import time
import warnings

import numpy as np
import pytest

import thermoflow as tf
from thermoflow.errors import ContextMismatch, TooLarge
from thermoflow.simplex import solve_standard_lp

from conftest import (
    majorizes,
    nonequilibrium_state,
    pushed_state,
    random_context,
    random_spec,
    random_state,
)


def test_everything_flows_to_equilibrium():
    rng = np.random.default_rng(101)
    for _ in range(20):
        ctx = random_context(rng)
        spec = random_spec(rng, int(rng.integers(2, 6)), ctx)
        state = random_state(rng, spec)
        g = tf.gibbs_state(spec, ctx)
        assert tf.can_convert(tf.ConversionQuery(state, g, ctx))


def test_equilibrium_creates_nothing():
    rng = np.random.default_rng(103)
    for _ in range(20):
        ctx = random_context(rng)
        spec = random_spec(rng, int(rng.integers(2, 6)), ctx)
        state = nonequilibrium_state(rng, spec, ctx)
        g = tf.gibbs_state(spec, ctx)
        assert not tf.can_convert(tf.ConversionQuery(g, state, ctx))


def test_entropy_theory_partial_sum_example():
    ctx = tf.preset("entropy")
    spec = tf.SystemSpec(3)
    r = tf.QuasiclassicalState(spec, [0.5, 0.3, 0.2])
    s = tf.QuasiclassicalState(spec, [0.4, 0.35, 0.25])
    assert tf.can_convert(tf.ConversionQuery(r, s, ctx))
    assert not tf.can_convert(tf.ConversionQuery(s, r, ctx))


def test_direct_and_composed_routes_agree_on_shared_tables():
    rng = np.random.default_rng(107)
    for _ in range(30):
        ctx = random_context(rng)
        spec = random_spec(rng, int(rng.integers(2, 5)), ctx)
        a = random_state(rng, spec)
        b = random_state(rng, spec) if rng.random() < 0.5 else pushed_state(rng, a, ctx)
        direct = tf.dominates(tf.build_curve(a, ctx), tf.build_curve(b, ctx))
        left = tf.compose(a, tf.gibbs_state(spec, ctx))
        right = tf.compose(tf.gibbs_state(spec, ctx), b)
        composed = tf.dominates(tf.build_curve(left, ctx), tf.build_curve(right, ctx))
        assert direct == composed


def test_witness_for_identity_conversion():
    ctx = tf.preset("helmholtz", beta=1.0)
    spec = tf.SystemSpec(3, (("H", [0.0, 0.4, 1.1]),))
    state = tf.QuasiclassicalState(spec, [0.6, 0.3, 0.1])
    witness = tf.feasibility_oracle(tf.ConversionQuery(state, state, ctx))
    assert witness is not None
    np.testing.assert_allclose(witness.entries @ state.r, state.r, atol=1e-9)


def test_witness_for_flow_to_equilibrium():
    ctx = tf.preset("helmholtz", beta=1.0)
    spec = tf.SystemSpec(2, (("H", [0.0, 0.7]),))
    state = tf.QuasiclassicalState(spec, [1.0, 0.0])
    g = tf.gibbs_state(spec, ctx)
    witness = tf.feasibility_oracle(tf.ConversionQuery(state, g, ctx))
    assert witness is not None
    np.testing.assert_allclose(witness.entries @ state.r, g.r, atol=1e-9)
    np.testing.assert_allclose(witness.entries @ g.r, g.r, atol=1e-9)
    # the reverse direction is infeasible
    assert tf.feasibility_oracle(tf.ConversionQuery(g, state, ctx)) is None


def test_oracle_matches_partial_sum_majorization_500_trials():
    rng = np.random.default_rng(109)
    ctx = tf.preset("entropy")
    spec = tf.SystemSpec(4)
    for _ in range(500):
        if rng.random() < 0.4:
            a = random_state(rng, spec)
            b = pushed_state(rng, a, ctx, steps=int(rng.integers(1, 4)))
        else:
            a = random_state(rng, spec)
            b = random_state(rng, spec)
        verdict = tf.feasibility_oracle(tf.ConversionQuery(a, b, ctx)) is not None
        assert verdict == majorizes(a.r, b.r)


def test_witness_invariants_on_constructed_conversions():
    rng = np.random.default_rng(113)
    for _ in range(20):
        ctx = random_context(rng)
        spec = random_spec(rng, 4, ctx)
        a = random_state(rng, spec)
        b = pushed_state(rng, a, ctx)
        witness = tf.feasibility_oracle(tf.ConversionQuery(a, b, ctx))
        assert witness is not None
        m = witness.entries
        g = tf.gibbs_state(spec, ctx).r
        assert m.min() >= -1e-9 and m.max() <= 1 + 1e-9
        np.testing.assert_allclose(m.sum(axis=0), np.ones(4), atol=1e-9)
        np.testing.assert_allclose(m @ g, g, atol=1e-9)
        np.testing.assert_allclose(m @ a.r, b.r, atol=1e-9)


def test_smallest_epsilon_values():
    ctx = tf.preset("entropy")
    spec = tf.SystemSpec(2)
    pure = tf.QuasiclassicalState(spec, [1.0, 0.0])
    uniform = tf.gibbs_state(spec, ctx)
    assert tf.smallest_epsilon(tf.ConversionQuery(pure, uniform, ctx)) == pytest.approx(0.0, abs=1e-9)
    assert tf.smallest_epsilon(tf.ConversionQuery(uniform, pure, ctx)) == pytest.approx(0.5, abs=1e-9)
    assert tf.smallest_epsilon(tf.ConversionQuery(pure, pure, ctx)) == pytest.approx(0.0, abs=1e-9)


def test_smallest_epsilon_zero_iff_convertible():
    rng = np.random.default_rng(127)
    for _ in range(25):
        ctx = random_context(rng)
        spec = random_spec(rng, 3, ctx)
        a = random_state(rng, spec)
        b = pushed_state(rng, a, ctx) if rng.random() < 0.5 else random_state(rng, spec)
        q = tf.ConversionQuery(a, b, ctx)
        eps = tf.smallest_epsilon(q)
        assert (eps <= 1e-9) == tf.can_convert(q)


def test_unequal_operator_tables_are_compared_by_composition():
    rng = np.random.default_rng(131)
    ctx = tf.preset("helmholtz", beta=1.0)
    spec_a = tf.SystemSpec(2, (("H", [0.0, 1.0]),))
    spec_b = tf.SystemSpec(3, (("H", [0.0, 0.5, 2.0]),))
    hot = tf.QuasiclassicalState(spec_a, [1.0, 0.0])
    # a target very close to its own equilibrium should be reachable
    gb = tf.gibbs_state(spec_b, ctx)
    soft = tf.QuasiclassicalState(spec_b, 0.99 * gb.r + 0.01 * np.array([1.0, 0.0, 0.0]))
    q = tf.ConversionQuery(hot, soft, ctx)
    assert tf.can_convert(q)
    assert tf.feasibility_oracle(q) is not None
    # the reverse asks a weak resource to make a strong one
    q_back = tf.ConversionQuery(soft, hot, ctx)
    assert not tf.can_convert(q_back)
    assert tf.feasibility_oracle(q_back) is None


def test_smallest_epsilon_across_tables():
    ctx = tf.preset("helmholtz", beta=1.0)
    hot = tf.QuasiclassicalState(tf.SystemSpec(2, (("H", [0.0, 1.0]),)), [1.0, 0.0])
    cold = tf.QuasiclassicalState(tf.SystemSpec(3, (("H", [0.0, 0.5, 2.0]),)), [0.2, 0.5, 0.3])
    q = tf.ConversionQuery(hot, cold, ctx)
    eps = tf.smallest_epsilon(q)
    assert 0.0 <= eps <= 1.0
    assert (eps <= 1e-9) == tf.can_convert(q)


def test_oracle_size_cap_and_env_override():
    ctx = tf.preset("entropy")
    spec = tf.SystemSpec(13)
    state = tf.gibbs_state(spec, ctx)
    q = tf.ConversionQuery(state, state, ctx)
    with pytest.raises(TooLarge, match="capped at dimension 12 per side, got 13 and 13"):
        tf.feasibility_oracle(q)


def test_context_mismatch_errors():
    ctx = tf.preset("helmholtz", beta=1.0)
    good = tf.QuasiclassicalState(tf.SystemSpec(2, (("H", [0.0, 1.0]),)), [0.5, 0.5])
    no_ops = tf.QuasiclassicalState(tf.SystemSpec(2), [0.5, 0.5])
    with pytest.raises(ContextMismatch):
        tf.can_convert(tf.ConversionQuery(good, no_ops, ctx))
    other_label = tf.QuasiclassicalState(tf.SystemSpec(2, (("E", [0.0, 1.0]),)), [0.5, 0.5])
    with pytest.raises(ContextMismatch):
        tf.can_convert(tf.ConversionQuery(good, other_label, ctx))


def test_quasiorder_axioms_sample():
    rng = np.random.default_rng(137)
    for _ in range(20):
        ctx = random_context(rng)
        spec = random_spec(rng, 4, ctx)
        a = random_state(rng, spec)
        assert tf.can_convert(tf.ConversionQuery(a, a, ctx))
        b = pushed_state(rng, a, ctx)
        c = pushed_state(rng, b, ctx)
        assert tf.can_convert(tf.ConversionQuery(a, b, ctx))
        assert tf.can_convert(tf.ConversionQuery(b, c, ctx))
        assert tf.can_convert(tf.ConversionQuery(a, c, ctx))


def test_relative_width_tolerance_on_large_composed_tables():
    # Composed partition functions near 5e6 whose curve widths agree to 15
    # digits; an absolute width tolerance rejected both queries.
    ctx = tf.preset("helmholtz", beta=2.0)
    src = tf.SystemSpec(4, (("H", [-3.56, -3.2, -2.0, 0.11]),))
    tgt = tf.SystemSpec(3, (("H", [3.18, -3.93, -1.9]),))
    source = tf.QuasiclassicalState(src, [0.018, 0.393, 0.325, 0.264])
    assert tf.can_convert(tf.ConversionQuery(source, tf.gibbs_state(tgt, ctx), ctx))
    src = tf.SystemSpec(3, (("H", [-2.71, 2.66, -3.79]),))
    tgt = tf.SystemSpec(4, (("H", [-3.81, 0.14, 0.28, -0.33]),))
    target = tf.QuasiclassicalState(tgt, [0.418, 0.205, 0.23, 0.147])
    assert not tf.can_convert(tf.ConversionQuery(tf.gibbs_state(src, ctx), target, ctx))


def cross_table_map(rng, g_src, g_tgt, steps):
    """Random d_T x d_S stochastic M with M g_src = g_tgt.

    Appends g_tgt, applies two-level partial swaps that fix g_src (x) g_tgt,
    then traces out the source: every step is a free operation.
    """
    g = np.kron(g_src, g_tgt)
    m = np.kron(np.eye(g_src.size), g_tgt.reshape(-1, 1))
    for _ in range(steps):
        i, j = rng.choice(g.size, size=2, replace=False)
        a = float(rng.uniform(0.0, min(1.0, g[j] / g[i])))
        b = a * g[i] / g[j]
        mi, mj = m[i].copy(), m[j].copy()
        m[i] = (1.0 - a) * mi + b * mj
        m[j] = a * mi + (1.0 - b) * mj
    return m.reshape(g_src.size, g_tgt.size, g_src.size).sum(axis=0)


def cross_table_query(rng, d_src, d_tgt, kind):
    """Query across two random tables: 0 reachable, 1 unreachable, 2 either."""
    ctx = random_context(rng)
    spec_src = random_spec(rng, d_src, ctx)
    spec_tgt = random_spec(rng, d_tgt, ctx)
    g_src = tf.gibbs_state(spec_src, ctx)
    g_tgt = tf.gibbs_state(spec_tgt, ctx)
    if kind == 1:
        return tf.ConversionQuery(g_src, nonequilibrium_state(rng, spec_tgt, ctx), ctx)
    source = random_state(rng, spec_src)
    if kind == 2:
        return tf.ConversionQuery(source, random_state(rng, spec_tgt), ctx)
    m = cross_table_map(rng, g_src.r, g_tgt.r, steps=2 * d_src * d_tgt)
    return tf.ConversionQuery(source, tf.QuasiclassicalState(spec_tgt, m @ source.r), ctx)


def composed_lp(q):
    """The LP over the composed table, in (d_S d_T)^2 variables: a reference.

    Each side is padded with the other side's equilibrium state and the
    square witness W must fix g_S (x) g_T and map r (x) g_T to g_S (x) s.
    """
    g_src = tf.gibbs_state(q.source.spec, q.ctx)
    g_tgt = tf.gibbs_state(q.target.spec, q.ctx)
    r = tf.compose(q.source, g_tgt).r
    s = tf.compose(g_src, q.target).r
    g = tf.compose(g_src, g_tgt).r
    eye = np.eye(g.size)
    A = np.vstack([np.tile(eye, g.size), np.kron(eye, g.reshape(1, -1)),
                   np.kron(eye, r.reshape(1, -1))])
    return A, np.concatenate([np.ones(g.size), g, s])


def composed_feasible(q) -> bool:
    A, b = composed_lp(q)
    status, _, _ = solve_standard_lp(A, b, np.zeros(A.shape[1]))
    return status != "infeasible"


def composed_epsilon(q) -> float:
    A, b = composed_lp(q)
    d = q.source.dim * q.target.dim
    slack = np.zeros((A.shape[0], 2 * d))
    slack[-d:] = np.hstack([-np.eye(d), np.eye(d)])
    c = np.concatenate([np.zeros(A.shape[1]), np.full(2 * d, 0.5)])
    status, _, objective = solve_standard_lp(np.hstack([A, slack]), b, c)
    assert status == "optimal"
    return objective


def test_cross_table_witness_is_a_lifted_composed_map():
    rng = np.random.default_rng(139)
    for trial in range(24):
        d_src, d_tgt = (int(v) for v in rng.integers(2, 6, size=2))
        q = cross_table_query(rng, d_src, d_tgt, kind=0)
        witness = tf.feasibility_oracle(q)
        assert witness is not None
        w = witness.entries
        assert w.shape == (d_src * d_tgt, d_src * d_tgt)
        g_src = tf.gibbs_state(q.source.spec, q.ctx).r
        g_tgt = tf.gibbs_state(q.target.spec, q.ctx).r
        g = np.kron(g_src, g_tgt)
        assert w.min() >= -1e-9 and w.max() <= 1 + 1e-9
        np.testing.assert_allclose(w.sum(axis=0), 1.0, atol=1e-9)
        np.testing.assert_allclose(w @ g, g, atol=1e-9)
        np.testing.assert_allclose(w @ np.kron(q.source.r, g_tgt),
                                   np.kron(g_src, q.target.r), atol=1e-9)


def test_reduced_lp_matches_composed_lp_up_to_3x3():
    rng = np.random.default_rng(149)
    for trial in range(60):
        d_src, d_tgt = (int(v) for v in rng.integers(2, 4, size=2))
        q = cross_table_query(rng, d_src, d_tgt, kind=trial % 3)
        assert (tf.feasibility_oracle(q) is not None) == composed_feasible(q)
        assert tf.smallest_epsilon(q) == pytest.approx(composed_epsilon(q), abs=1e-9)


def test_cross_table_oracles_agree_with_curves_up_to_12x12():
    rng = np.random.default_rng(151)
    start = time.perf_counter()
    for trial in range(200):
        d_src, d_tgt = (int(v) for v in rng.integers(2, 13, size=2))
        kind = trial % 3
        q = cross_table_query(rng, d_src, d_tgt, kind)
        verdict = tf.can_convert(q)
        if kind < 2:
            assert verdict == (kind == 0)
        assert (tf.feasibility_oracle(q) is not None) == verdict
        assert (tf.smallest_epsilon(q) <= 1e-9) == verdict
    assert time.perf_counter() - start < 30.0


def shifted(state, c):
    """``state`` with every state operator's spectrum shifted by c: a gauge."""
    spec = state.spec
    ops = tuple((label, eig + c) for label, eig in spec.operators)
    return tf.QuasiclassicalState(tf.SystemSpec(spec.dim, ops, spec.nonstate_blocks), state.r)


def assert_same_work(a, b, ctx, eps):
    assert tf.w_gain(b, ctx, eps) == pytest.approx(tf.w_gain(a, ctx, eps), abs=1e-9)
    np.testing.assert_allclose(tf.w_cost_bounds(b, ctx, eps), tf.w_cost_bounds(a, ctx, eps),
                               rtol=0.0, atol=1e-9)


def test_gauge_shift_changes_no_verdict_and_no_work():
    rng = np.random.default_rng(163)
    for trial in range(60):
        if trial % 2:
            q = cross_table_query(rng, *(int(v) for v in rng.integers(2, 9, size=2)), trial % 3)
        else:
            ctx = random_context(rng)
            source = random_state(rng, random_spec(rng, int(rng.integers(2, 9)), ctx))
            target = (random_state(rng, source.spec) if trial % 4
                      else pushed_state(rng, source, ctx))
            q = tf.ConversionQuery(source, target, ctx)
        verdict = tf.can_convert(q)
        for c in (800.0, -800.0, 50.0, -50.0, float(rng.uniform(-1000.0, 1000.0))):
            moved = tf.ConversionQuery(shifted(q.source, c), shifted(q.target, c), q.ctx)
            assert tf.can_convert(moved) == verdict
            assert_same_work(q.source, moved.source, q.ctx, 0.05)


def test_equilibrium_creates_nothing_at_a_shift_of_800():
    ctx = tf.preset("helmholtz", beta=1.0)
    for shift in (800.0, -800.0):
        spec = tf.SystemSpec(3, (("H", [shift, shift + 1.0, shift + 2.0]),))
        g = tf.gibbs_state(spec, ctx)
        target = tf.QuasiclassicalState(spec, [0.7, 0.2, 0.1])
        assert not tf.can_convert(tf.ConversionQuery(g, target, ctx))
        assert tf.can_convert(tf.ConversionQuery(target, g, ctx))
        assert tf.w_gain(g, ctx, 0.05) == pytest.approx(-np.log(0.95), abs=1e-12)


def test_permutation_and_equilibrium_padding_change_nothing():
    rng = np.random.default_rng(167)
    for trial in range(40):
        ctx = random_context(rng)
        spec = random_spec(rng, int(rng.integers(2, 7)), ctx)
        source = random_state(rng, spec)
        target = random_state(rng, spec) if trial % 2 else pushed_state(rng, source, ctx)
        verdict = tf.can_convert(tf.ConversionQuery(source, target, ctx))
        perm = rng.permutation(spec.dim)
        spec_p = tf.SystemSpec(spec.dim, tuple((lab, eig[perm]) for lab, eig in spec.operators))
        source_p = tf.QuasiclassicalState(spec_p, source.r[perm])
        target_p = tf.QuasiclassicalState(spec_p, target.r[perm])
        assert tf.can_convert(tf.ConversionQuery(source_p, target_p, ctx)) == verdict
        assert_same_work(source, source_p, ctx, 0.1)
        pad = tf.gibbs_state(random_spec(rng, int(rng.integers(1, 4)), ctx), ctx)
        padded = tf.compose(source, pad)
        assert tf.can_convert(tf.ConversionQuery(padded, tf.compose(target, pad), ctx)) == verdict
        assert tf.can_convert(tf.ConversionQuery(padded, target, ctx)) == verdict
        assert_same_work(source, padded, ctx, 0.1)


def transport_rows(q):
    """Equality rows over the entries of M (d_T x d_S, row-major): unit column
    sums, M g_S = g_T and M r = s."""
    r, s = q.source.r, q.target.r
    g_src = tf.gibbs_state(q.source.spec, q.ctx).r
    g_tgt = tf.gibbs_state(q.target.spec, q.ctx).r
    eye = np.eye(s.size)
    A = np.vstack([np.tile(np.eye(r.size), s.size), np.kron(eye, g_src.reshape(1, -1)),
                   np.kron(eye, r.reshape(1, -1))])
    return A, np.concatenate([np.ones(r.size), g_tgt, s])


def distance_lp(q) -> float:
    """min (1/2)|M r - s|_1 over free d_T x d_S maps M, with the dense simplex:
    the reference the closed form replaced. Slack columns u, v >= 0 carry
    M r - s = u - v."""
    A, b = transport_rows(q)
    d = q.target.dim
    slack = np.zeros((A.shape[0], 2 * d))
    slack[-d:] = np.hstack([-np.eye(d), np.eye(d)])
    c = np.concatenate([np.zeros(A.shape[1]), np.full(2 * d, 0.5)])
    status, _, objective = solve_standard_lp(np.hstack([A, slack]), b, c)
    assert status == "optimal"
    return float(min(max(objective, 0.0), 1.0))


def highs_distance(q):
    """The distance LP solved by HiGHS: (optimum, M). The M g_S = g_T rows are
    divided by g_T, so a small g is not lost in HiGHS's absolute tolerance."""
    optimize = pytest.importorskip("scipy.optimize")
    A, b = transport_rows(q)
    d_src, d_tgt = q.source.dim, q.target.dim
    g_tgt = b[d_src:d_src + d_tgt]
    A[d_src:d_src + d_tgt] /= g_tgt[:, None]
    b[d_src:d_src + d_tgt] = 1.0
    slack = np.zeros((A.shape[0], 2 * d_tgt))
    slack[-d_tgt:] = np.hstack([-np.eye(d_tgt), np.eye(d_tgt)])
    c = np.concatenate([np.zeros(A.shape[1]), np.full(2 * d_tgt, 0.5)])
    res = optimize.linprog(c, A_eq=np.hstack([A, slack]), b_eq=b, bounds=(0, None),
                           method="highs", options={"primal_feasibility_tolerance": 1e-10,
                                                    "dual_feasibility_tolerance": 1e-10})
    assert res.status == 0, res.message
    return res.fun, res.x[:d_src * d_tgt].reshape(d_tgt, d_src)


def with_zeros(rng, state):
    """``state`` with about a third of its entries set to exactly 0 (at least one kept)."""
    r = state.r.copy()
    r[rng.random(r.size) < 0.3] = 0.0
    if r.sum() == 0.0:
        r[int(rng.integers(r.size))] = 1.0
    return tf.QuasiclassicalState(state.spec, r / r.sum())


def epsilon_query(rng, trial, max_dim=12, ctx=None):
    """Same-table (even trials) or cross-table query up to max_dim per side:
    reachable, random, or mixed toward the target's equilibrium state, and
    with exact zeros in a third of the states. Drawn vectors are mixed with
    10 % uniform first, since entries near 1e-6 throw off the dense simplex
    by up to 6e-6, and the simplex is the reference here."""
    ctx = random_context(rng) if ctx is None else ctx
    d_src, d_tgt = (int(v) for v in rng.integers(2, max_dim + 1, size=2))
    spec_src = random_spec(rng, d_src, ctx)
    spec_tgt = spec_src if trial % 2 == 0 else random_spec(rng, d_tgt, ctx)

    def draw(spec):
        r = 0.9 * rng.dirichlet(np.ones(spec.dim)) + 0.1 / spec.dim
        return tf.QuasiclassicalState(spec, r)

    source = draw(spec_src)
    kind = rng.integers(3)
    if kind == 0 and spec_tgt is spec_src:
        target = pushed_state(rng, source, ctx, steps=spec_src.dim)
    elif kind == 0:
        m = cross_table_map(rng, tf.gibbs_state(spec_src, ctx).r,
                            tf.gibbs_state(spec_tgt, ctx).r, steps=2 * d_src * d_tgt)
        target = tf.QuasiclassicalState(spec_tgt, m @ source.r)
    else:
        target = draw(spec_tgt)
        if kind == 2:
            g = tf.gibbs_state(spec_tgt, ctx).r
            target = tf.QuasiclassicalState(spec_tgt, 0.5 * target.r + 0.5 * g)
    if rng.random() < 1 / 3:
        source = with_zeros(rng, source)
    if rng.random() < 1 / 3 and kind != 0:
        target = with_zeros(rng, target)
    return tf.ConversionQuery(source, target, ctx)


def test_closed_form_matches_distance_lp_on_500_queries():
    rng = np.random.default_rng(173)
    for trial in range(500):
        q = epsilon_query(rng, trial)
        assert tf.smallest_epsilon(q) == pytest.approx(distance_lp(q), abs=1e-9)


def test_closed_form_matches_highs_at_three_temperatures():
    rng = np.random.default_rng(179)
    for trial in range(240):
        ctx = tf.preset("helmholtz", beta=(0.2, 1.0, 3.0)[trial % 3])
        q = epsilon_query(rng, trial // 3, ctx=ctx)
        optimum, _ = highs_distance(q)
        assert tf.smallest_epsilon(q) == pytest.approx(optimum, abs=1e-9)


def test_nearest_reachable_target_lies_at_epsilon():
    rng = np.random.default_rng(181)
    for trial in range(120):
        q = epsilon_query(rng, trial)
        eps = tf.smallest_epsilon(q)
        _, m = highs_distance(q)
        nearest = m @ q.source.r
        assert 0.5 * np.abs(nearest - q.target.r).sum() == pytest.approx(eps, abs=1e-9)
        reached = tf.QuasiclassicalState(q.target.spec, np.clip(nearest, 0.0, None))
        assert tf.can_convert(tf.ConversionQuery(q.source, reached, q.ctx))


def rescaled(state, lam):
    """``state`` with every state operator's spectrum multiplied by lam."""
    spec = state.spec
    ops = tuple((label, lam * eig) for label, eig in spec.operators)
    return tf.QuasiclassicalState(tf.SystemSpec(spec.dim, ops), state.r)


def test_epsilon_invariant_under_gauge_permutation_padding_and_scale():
    rng = np.random.default_rng(191)
    for trial in range(60):
        q = epsilon_query(rng, trial, max_dim=8)
        eps = tf.smallest_epsilon(q)
        for c in (800.0, -800.0):
            moved = tf.ConversionQuery(shifted(q.source, c), shifted(q.target, c), q.ctx)
            assert tf.smallest_epsilon(moved) == pytest.approx(eps, abs=1e-9)
        perm = rng.permutation(q.source.dim)
        spec = q.source.spec
        spec_p = tf.SystemSpec(spec.dim, tuple((lab, eig[perm]) for lab, eig in spec.operators))
        source_p = tf.QuasiclassicalState(spec_p, q.source.r[perm])
        permuted = tf.smallest_epsilon(tf.ConversionQuery(source_p, q.target, q.ctx))
        assert permuted == pytest.approx(eps, abs=1e-12)
        pad = tf.gibbs_state(random_spec(rng, int(rng.integers(1, 4)), q.ctx), q.ctx)
        for source, target in ((tf.compose(q.source, pad), q.target),
                               (q.source, tf.compose(q.target, pad))):
            padded = tf.smallest_epsilon(tf.ConversionQuery(source, target, q.ctx))
            assert padded == pytest.approx(eps, abs=1e-9)
        lam = float(rng.uniform(0.1, 10.0))
        ctx = tf.make_context("energy", q.ctx.beta / lam, q.ctx.intensive)
        scaled = tf.ConversionQuery(rescaled(q.source, lam), rescaled(q.target, lam), ctx)
        assert tf.smallest_epsilon(scaled) == pytest.approx(eps, abs=1e-9)


def test_epsilon_is_exactly_zero_when_convertible():
    rng = np.random.default_rng(193)
    verdicts = []
    for trial in range(400):
        q = epsilon_query(rng, trial)
        verdict = tf.can_convert(q)
        assert (tf.smallest_epsilon(q) == 0.0) == verdict
        verdicts.append(verdict)
    assert 100 < sum(verdicts) < 300


def test_reachable_target_at_beta_3_has_epsilon_zero():
    # The dense simplex returned 0.0395 for this reachable target, whose
    # equilibrium probabilities go down to 4e-10.
    ctx = tf.preset("helmholtz", beta=3.0)
    rng = np.random.default_rng(118)
    d = int(rng.integers(3, 13))
    spec = random_spec(rng, d, ctx, spread=4.0)
    source = random_state(rng, spec)
    q = tf.ConversionQuery(source, pushed_state(rng, source, ctx, steps=2 * d), ctx)
    assert tf.gibbs_state(spec, ctx).r.min() < 1e-9
    assert tf.can_convert(q)
    assert tf.smallest_epsilon(q) == 0.0


def test_smallest_epsilon_needs_no_simplex_and_no_size_cap(monkeypatch):
    from thermoflow import convert

    def refuse(*args):
        raise AssertionError("smallest_epsilon called the simplex")

    monkeypatch.setattr(convert, "solve_standard_lp", refuse)
    rng = np.random.default_rng(197)
    for trial in range(20):
        q = epsilon_query(rng, trial)
        assert 0.0 <= tf.smallest_epsilon(q) <= 1.0
    ctx = tf.preset("helmholtz", beta=1.0)
    spec = random_spec(rng, 40, ctx)
    q = tf.ConversionQuery(tf.gibbs_state(spec, ctx), nonequilibrium_state(rng, spec, ctx), ctx)
    assert 0.0 < tf.smallest_epsilon(q) <= 1.0
    assert tf.smallest_epsilon(tf.ConversionQuery(q.target, q.source, ctx)) == 0.0


def test_smallest_epsilon_silent_on_a_subnormal_equilibrium_probability():
    ctx = tf.preset("helmholtz", beta=1.0)
    spec = tf.SystemSpec(2, (("H", [0.0, 740.0]),))
    state = tf.QuasiclassicalState(spec, [0.6, 0.4])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert tf.smallest_epsilon(tf.ConversionQuery(state, state, ctx)) == 0.0
        eps = tf.smallest_epsilon(tf.ConversionQuery(tf.gibbs_state(spec, ctx), state, ctx))
    assert eps == pytest.approx(0.4, abs=1e-12)
