"""single-shot: one query through can_convert, w_gain and w_cost_bounds.

The round holds 240 same-table and 160 cross-table queries on seeded
random helmholtz, grand_potential and gibbs contexts, with dimensions 2
to 12 on each side in a fixed schedule. Every verdict is known by
construction:

- a target pushed through a random map that fixes equilibrium is reachable;
- an equilibrium source cannot reach a target other than equilibrium;
- every state reaches its equilibrium state.

Work values are checked against a fractional-knapsack test written here.
Four fixed cases show program faults and fail every round:

- (a) the equilibrium state of a spectrum shifted by +800 or -800 is
  reported convertible to a nonequilibrium state;
- (b) two cross-table queries at beta = 2 with spectra in [-4, 4] raise
  WidthMismatch, because the width tolerance is absolute while the
  composed partition function is about 5e6.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import thermoflow as tf

import reference as ref
from workloads import Case, Workload, states

EPSILON = 0.05
SAME_TABLE = 240
CROSS_TABLE = 160
DIMS = tuple(range(2, 13))
TOL = 1e-9

# Fault (b): found by search at beta = 2, spectra in [-4, 4]; both raise
# "curve widths differ" although the two widths agree to 15 digits.
FAULT_B = (
    # source spectrum, target spectrum, probabilities, and the side that
    # holds them; the other side is in equilibrium
    ([-3.56, -3.2, -2.0, 0.11], [3.18, -3.93, -1.9], [0.018, 0.393, 0.325, 0.264], "source"),
    ([-2.71, 2.66, -3.79], [-3.81, 0.14, 0.28, -0.33], [0.418, 0.205, 0.23, 0.147], "target"),
)


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= TOL * max(1.0, abs(want))


def _case(ctx, src_table, r, tgt_table, s, expected, fault=None) -> Case:
    query = states.query(ctx, src_table, r, tgt_table, s)
    tf_ctx = query.ctx
    source = query.source
    g_src = ref.gibbs(src_table, ctx)
    is_equilibrium = np.array_equal(r, g_src)

    def run():
        return (tf.can_convert(query), tf.w_gain(source, tf_ctx, EPSILON),
                tf.w_cost_bounds(source, tf_ctx, EPSILON))

    @functools.cache
    def wanted():
        beta = ctx.beta
        if is_equilibrium:
            # b = 1 - epsilon for r = g: the yield of equilibrium is zero
            # only at epsilon = 0.
            gain = -math.log(1.0 - EPSILON) / beta
        else:
            gain = -ref.greedy_log_b(r, g_src, 1.0 - EPSILON) / beta
        upper = (-ref.greedy_log_b(r, g_src, EPSILON)
                 - math.log((1.0 - EPSILON) / EPSILON)) / beta
        # The lower bound maximizes over a delta grid whose top end alone
        # gives this value.
        floor = (-ref.greedy_log_b(r, g_src, 1.0) + math.log(1.0 - EPSILON)) / beta
        return gain, upper, floor

    def check(out):
        verdict, gain, (lower, upper) = out
        want_gain, want_upper, floor = wanted()
        return (verdict is expected and _close(gain, want_gain)
                and _close(upper, want_upper) and floor - TOL <= lower <= upper)

    return Case("can_convert+w_gain+w_cost_bounds", run, check, fault)


def _seeded_case(rng, i, ctx, src_table, tgt_table) -> Case:
    g_src = ref.gibbs(src_table, ctx)
    g_tgt = ref.gibbs(tgt_table, ctx)
    construction = i % 3
    if construction == 0:
        r = ref.random_probabilities(rng, src_table.dim)
        s = ref.fixing_map(rng, g_src, g_tgt) @ r
        return _case(ctx, src_table, r, tgt_table, s, True)
    if construction == 1:
        s = ref.random_probabilities(rng, tgt_table.dim, away_from=g_tgt)
        return _case(ctx, src_table, g_src, tgt_table, s, False)
    r = ref.random_probabilities(rng, src_table.dim)
    return _case(ctx, src_table, r, tgt_table, g_tgt, True)


def fault_cases() -> list:
    cases = []
    ctx = ref.Context("helmholtz", 1.0)
    for shift in (800.0, -800.0):
        table = ref.Table(("H",), np.array([[0.0, 1.0, 2.0]])).shifted(shift)
        g = ref.gibbs(table, ctx)
        cases.append(_case(ctx, table, g, table, np.array([0.7, 0.2, 0.1]), False, "a"))
    ctx = ref.Context("helmholtz", 2.0)
    for h_src, h_tgt, p, side in FAULT_B:
        src = ref.Table(("H",), np.array([h_src]))
        tgt = ref.Table(("H",), np.array([h_tgt]))
        if side == "source":
            cases.append(_case(ctx, src, np.array(p), tgt, ref.gibbs(tgt, ctx), True, "b"))
        else:
            cases.append(_case(ctx, src, ref.gibbs(src, ctx), tgt, np.array(p), False, "b"))
    return cases


def build(seed: int, workdir) -> Workload:
    rng = np.random.default_rng([seed, 1])
    cases = []
    for i in range(SAME_TABLE):
        ctx = ref.random_context(rng, ref.KINDS[(i // 3) % 3])
        table = ref.random_table(rng, ctx, DIMS[i % len(DIMS)])
        cases.append(_seeded_case(rng, i, ctx, table, table))
    for i in range(CROSS_TABLE):
        ctx = ref.random_context(rng, ref.KINDS[(i // 3) % 3])
        d_src = DIMS[i % len(DIMS)]
        d_tgt = DIMS[(i + i // len(DIMS)) % len(DIMS)]
        cases.append(_seeded_case(rng, i, ctx, ref.random_table(rng, ctx, d_src),
                                  ref.random_table(rng, ctx, d_tgt)))
    order = rng.permutation(len(cases))
    cases = [cases[k] for k in order] + fault_cases()
    # A round takes about 0.3 s, far shorter than the host's slow spells.
    return Workload(cases=cases, warmup=cases, traced_cases=cases, case_quantile=0.9)
