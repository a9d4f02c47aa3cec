"""thermoflow objects from the raw tables and contexts of ``reference``."""

from __future__ import annotations

import thermoflow as tf

import reference as ref


def context(ctx: ref.Context):
    return tf.make_context("energy", ctx.beta, ctx.intensive)


def spec(table: ref.Table):
    return tf.SystemSpec(table.dim, tuple(zip(table.labels, table.spectra)))


def state(table: ref.Table, r):
    return tf.QuasiclassicalState(spec(table), r)


def query(ctx: ref.Context, src_table, r, tgt_table, s):
    return tf.ConversionQuery(state(src_table, r), state(tgt_table, s), context(ctx))
