"""Shared random-instance generators for the test suite.

Everything is seeded through numpy Generators passed in by the tests, so
reruns are reproducible bit for bit.
"""

import numpy as np

import thermoflow as tf

GRAND_LABELS = ("H", "N")
HELMHOLTZ_LABELS = ("H",)


def random_context(rng, kind=None):
    if kind is None:
        kind = rng.choice(["helmholtz", "grand_potential", "gibbs"])
    beta = float(rng.uniform(0.5, 2.0))
    if kind == "helmholtz":
        return tf.preset("helmholtz", beta=beta)
    if kind == "grand_potential":
        return tf.preset("grand_potential", beta=beta, mu=float(rng.uniform(-1, 1)))
    if kind == "gibbs":
        return tf.preset("gibbs", beta=beta, pressure=float(rng.uniform(0.1, 2)))
    raise ValueError(kind)


def random_spec(rng, d, ctx, labels=None, spread=2.0):
    n_ops = ctx.n_state_operators
    if labels is None:
        labels = [f"X{i}" for i in range(n_ops)]
        if n_ops:
            labels[0] = "H"
    ops = tuple((lab, rng.uniform(-spread, spread, d)) for lab in labels)
    return tf.SystemSpec(d, ops)


def random_state(rng, spec):
    return tf.QuasiclassicalState(spec, rng.dirichlet(np.ones(spec.dim)))


def nonequilibrium_state(rng, spec, ctx, min_divergence=1e-3):
    g = tf.gibbs_state(spec, ctx)
    for _ in range(100):
        state = random_state(rng, spec)
        if tf.relative_entropy(state.r, g.r) > min_divergence:
            return state
    raise AssertionError("could not draw a nonequilibrium state")


def equilibrium_preserving_map(rng, g, steps=4, mix=0.0):
    """Random column-stochastic matrix M with M g = g.

    Product of two-level partial swaps that each fix g, optionally
    blended with the rank-one projector onto g (also g-fixing).
    """
    d = g.size
    m = np.eye(d)
    for _ in range(steps):
        i, j = rng.choice(d, size=2, replace=False)
        a_max = min(1.0, g[j] / g[i])
        a = float(rng.uniform(0.0, a_max))
        b = a * g[i] / g[j]
        step = np.eye(d)
        step[i, i] = 1.0 - a
        step[j, i] = a
        step[i, j] = b
        step[j, j] = 1.0 - b
        m = step @ m
    if mix > 0.0:
        m = (1.0 - mix) * m + mix * np.outer(g, np.ones(d))
    return m


def pushed_state(rng, state, ctx, steps=4, mix=0.0):
    """A state reachable from ``state`` by construction."""
    g = tf.gibbs_state(state.spec, ctx).r
    m = equilibrium_preserving_map(rng, g, steps=steps, mix=mix)
    return tf.QuasiclassicalState(state.spec, m @ state.r)


def majorizes(r, s, atol=1e-12):
    """Classic majorization via sorted partial sums (entropy theory only)."""
    a = np.sort(np.asarray(r, dtype=float))[::-1].cumsum()
    b = np.sort(np.asarray(s, dtype=float))[::-1].cumsum()
    return bool(np.all(a >= b - atol))


def relabeled(state, ctx, perm=None, shift=0.0, scale=1.0):
    """``state`` with eigenstates permuted, every spectrum shifted by ``shift``
    (a gauge) and scaled by ``scale``, and beta divided by ``scale``: the
    exponents beta (x_0 - p_1 x_1 - ...) stay the same."""
    perm = np.arange(state.dim) if perm is None else perm
    ops = tuple((label, scale * (eig[perm] + shift)) for label, eig in state.spec.operators)
    return (tf.QuasiclassicalState(tf.SystemSpec(state.dim, ops), state.r[perm]),
            tf.make_context(ctx.representation, ctx.beta / scale, ctx.intensive))
