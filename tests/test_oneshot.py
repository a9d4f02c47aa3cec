import math

import numpy as np
import pytest

import thermoflow as tf
from thermoflow.errors import (
    EnergyRepresentation,
    EntropyRepresentation,
    EpsilonOutOfRange,
    NormalizationError,
    TooLarge,
)
from thermoflow.lorenz import curve_of, inverse

from conftest import pushed_state, random_context, random_spec, random_state, relabeled


def test_b_epsilon_full_overlap_needs_everything():
    t = tf.HypothesisTest([0.4, 0.6], [0.4, 0.6], 0.0)
    assert tf.b_epsilon(t) == pytest.approx(1.0, abs=1e-12)


def test_b_epsilon_two_thirds_probe():
    t = tf.HypothesisTest([1.0, 0.0], [2 / 3, 1 / 3], 0.0)
    assert tf.b_epsilon(t) == pytest.approx(2 / 3, abs=1e-12)
    assert tf.d_h_epsilon(t) == pytest.approx(math.log(1.5), abs=1e-12)


def test_b_epsilon_uniform_half():
    t = tf.HypothesisTest([0.5, 0.5], [0.5, 0.5], 0.5)
    assert tf.b_epsilon(t) == pytest.approx(0.5, abs=1e-12)
    assert tf.d_h_epsilon(t) == pytest.approx(math.log(2), abs=1e-12)


def test_d_h_zero_at_equal_distributions():
    t = tf.HypothesisTest([0.3, 0.7], [0.3, 0.7], 0.0)
    assert tf.d_h_epsilon(t) == 0.0


def test_d_h_infinite_outside_support():
    # all detection mass sits where g vanishes
    t = tf.HypothesisTest([1.0, 0.0], [0.0, 1.0], 0.0)
    assert tf.b_epsilon(t) == 0.0
    assert tf.d_h_epsilon(t) == math.inf


def test_vertex_oracle_matches_probes():
    for r, g, eps in (
        ([1.0, 0.0], [2 / 3, 1 / 3], 0.0),
        ([0.5, 0.5], [0.5, 0.5], 0.5),
        ([0.4, 0.6], [0.4, 0.6], 0.0),
    ):
        t = tf.HypothesisTest(r, g, eps)
        assert tf.vertex_oracle(t) == pytest.approx(tf.b_epsilon(t), abs=1e-12)


def test_vertex_oracle_one_dimensional():
    for eps in (0.0, 0.25, 0.9):
        t = tf.HypothesisTest([1.0], [1.0], eps)
        assert tf.vertex_oracle(t) == pytest.approx(1.0 - eps, abs=1e-12)
        assert tf.b_epsilon(t) == pytest.approx(1.0 - eps, abs=1e-12)


def test_vertex_oracle_cap():
    rng = np.random.default_rng(1)
    r = rng.dirichlet(np.ones(19))
    with pytest.raises(TooLarge):
        tf.vertex_oracle(tf.HypothesisTest(r, r, 0.1))


def test_greedy_equals_vertex_oracle_randomized():
    rng = np.random.default_rng(211)
    for _ in range(60):
        d = int(rng.integers(1, 11))
        r = rng.dirichlet(np.ones(d))
        g = rng.dirichlet(np.ones(d))
        # sprinkle hard zeros into both distributions
        if d > 2 and rng.random() < 0.5:
            r[rng.integers(d)] = 0.0
            r /= r.sum()
        if d > 2 and rng.random() < 0.5:
            g[rng.integers(d)] = 0.0
            g /= g.sum()
        eps = float(rng.uniform(0, 0.95))
        t = tf.HypothesisTest(r, g, eps)
        assert tf.b_epsilon(t) == pytest.approx(tf.vertex_oracle(t), abs=1e-12)


def test_d_h_monotone_in_epsilon():
    rng = np.random.default_rng(223)
    for _ in range(10):
        d = 5
        r = rng.dirichlet(np.ones(d))
        g = rng.dirichlet(np.ones(d))
        values = [tf.d_h_epsilon(tf.HypothesisTest(r, g, e))
                  for e in np.linspace(0.0, 0.95, 12)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_d_h_at_zero_is_support_mass():
    rng = np.random.default_rng(227)
    g = rng.dirichlet(np.ones(6))
    r = np.array([0.5, 0.5, 0.0, 0.0, 0.0, 0.0])
    t = tf.HypothesisTest(r, g, 0.0)
    assert tf.d_h_epsilon(t) == pytest.approx(-math.log(g[0] + g[1]), abs=1e-12)


def test_d_h_at_zero_keeps_a_tiny_r_tail():
    # The last outcome has r down to 1e-17 but most of g. The rounded r total can
    # pass 1 before the tail is reached; threshold 1 must still accept all of supp r.
    rng = np.random.default_rng(5)
    for _ in range(20000):
        d = int(rng.integers(3, 9))
        tail = 10.0 ** rng.uniform(-17.0, -12.0)
        r = np.append(rng.dirichlet(np.ones(d - 1)) * (1.0 - tail), tail)
        g_last = rng.uniform(0.5, 0.99)
        g = np.append(rng.dirichlet(np.ones(d - 1)) * (1.0 - g_last), g_last)
        t = tf.HypothesisTest(r, g, 0.0)
        want = -math.log(t.g[t.r > 0].sum())
        assert tf.d_h_epsilon(t) == pytest.approx(want, abs=1e-9)


def test_epsilon_one_rejected():
    with pytest.raises(EpsilonOutOfRange):
        tf.HypothesisTest([1.0], [1.0], 1.0)
    with pytest.raises(EpsilonOutOfRange):
        tf.HypothesisTest([1.0], [1.0], -0.2)


def test_non_finite_probabilities_rejected():
    for bad in ([math.nan, 0.5, 0.5], [math.inf, 0.0, 0.0]):
        with pytest.raises(NormalizationError):
            tf.HypothesisTest(bad, [0.2, 0.3, 0.5], 0.1)
        with pytest.raises(NormalizationError):
            tf.HypothesisTest([0.2, 0.3, 0.5], bad, 0.1)
        with pytest.raises(NormalizationError):
            tf.relative_entropy(bad, [0.2, 0.3, 0.5])


def test_entropies():
    assert tf.shannon_entropy([0.5, 0.5]) == pytest.approx(math.log(2), abs=1e-12)
    assert tf.shannon_entropy([1.0, 0.0]) == 0.0
    assert tf.relative_entropy([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert tf.relative_entropy([1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2), abs=1e-12)
    assert tf.relative_entropy([0.5, 0.5], [1.0, 0.0]) == math.inf


def test_w_gain_of_equilibrium_is_zero():
    rng = np.random.default_rng(229)
    ctx = random_context(rng)
    spec = random_spec(rng, 4, ctx)
    g = tf.gibbs_state(spec, ctx)
    assert tf.w_gain(g, ctx, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_w_gain_two_level_probe():
    ctx = tf.preset("helmholtz", beta=1.0)
    spec = tf.SystemSpec(2, (("H", [0.0, math.log(2)]),))
    state = tf.QuasiclassicalState(spec, [1.0, 0.0])
    assert tf.w_gain(state, ctx, 0.0) == pytest.approx(math.log(1.5), abs=1e-12)
    fuzzy = tf.w_gain(state, ctx, 0.5)
    assert fuzzy >= math.log(1.5) - 1e-12
    g = tf.gibbs_state(spec, ctx)
    oracle = tf.vertex_oracle(tf.HypothesisTest(state.r, g.r, 0.5))
    assert fuzzy == pytest.approx(-math.log(oracle), abs=1e-12)


def test_w_gain_needs_energy_representation():
    state = tf.QuasiclassicalState(tf.SystemSpec(2), [1.0, 0.0])
    with pytest.raises(EntropyRepresentation):
        tf.w_gain(state, tf.preset("entropy"), 0.0)


def test_w_gain_permutation_invariant():
    rng = np.random.default_rng(233)
    for _ in range(10):
        ctx = random_context(rng)
        d = 5
        spec = random_spec(rng, d, ctx)
        state = random_state(rng, spec)
        perm = rng.permutation(d)
        spec_p = tf.SystemSpec(d, tuple((lab, eig[perm]) for lab, eig in spec.operators))
        state_p = tf.QuasiclassicalState(spec_p, state.r[perm])
        eps = float(rng.uniform(0, 0.9))
        assert tf.w_gain(state, ctx, eps) == pytest.approx(
            tf.w_gain(state_p, ctx, eps), abs=1e-12)


def test_w_cost_bounds_order_randomized():
    rng = np.random.default_rng(239)
    for _ in range(30):
        ctx = random_context(rng)
        spec = random_spec(rng, int(rng.integers(2, 6)), ctx)
        state = random_state(rng, spec)
        for eps in (0.01, 0.1, 0.5):
            lower, upper = tf.w_cost_bounds(state, ctx, eps)
            assert lower <= upper + 1e-12


def test_w_cost_bounds_equilibrium_closed_form():
    ctx = tf.preset("helmholtz", beta=2.0)
    spec = tf.SystemSpec(3, (("H", [0.0, 0.3, 1.0]),))
    g = tf.gibbs_state(spec, ctx)
    for eps in (0.05, 0.3, 0.7):
        lower, upper = tf.w_cost_bounds(g, ctx, eps)
        assert upper == pytest.approx(-math.log(1 - eps) / 2.0, abs=1e-12)
        assert lower == pytest.approx(math.log(1 - eps) / 2.0, abs=1e-12)


def test_w_cost_bounds_large_epsilon_verbatim():
    ctx = tf.preset("helmholtz", beta=1.0)
    spec = tf.SystemSpec(2, (("H", [0.0, 1.0]),))
    state = tf.QuasiclassicalState(spec, [0.8, 0.2])
    eps = 0.999
    lower, upper = tf.w_cost_bounds(state, ctx, eps)
    g = tf.gibbs_state(spec, ctx)
    expected_upper = (
        tf.d_h_epsilon(tf.HypothesisTest(state.r, g.r, 1 - eps))
        - math.log((1 - eps) / eps)
    )
    assert upper == pytest.approx(expected_upper, abs=1e-12)
    assert lower <= upper


def test_w_cost_epsilon_domain():
    ctx = tf.preset("helmholtz", beta=1.0)
    spec = tf.SystemSpec(2, (("H", [0.0, 1.0]),))
    state = tf.QuasiclassicalState(spec, [0.8, 0.2])
    for eps in (0.0, 1.0, -0.5):
        with pytest.raises(EpsilonOutOfRange):
            tf.w_cost_bounds(state, ctx, eps)


def test_resource_yield():
    ctx = tf.preset("entropy")
    uniform = tf.QuasiclassicalState(tf.SystemSpec(2), [0.5, 0.5])
    assert tf.resource_yield(uniform, ctx) == pytest.approx(0.0, abs=1e-12)
    pure = tf.QuasiclassicalState(tf.SystemSpec(2), [1.0, 0.0])
    assert tf.resource_yield(pure, ctx) == pytest.approx(math.log(2), abs=1e-12)
    tilted = tf.QuasiclassicalState(tf.SystemSpec(2), [0.75, 0.25])
    expected = math.log(2) - tf.shannon_entropy([0.75, 0.25])
    assert tf.resource_yield(tilted, ctx) == pytest.approx(expected, abs=1e-12)
    with pytest.raises(EnergyRepresentation):
        tf.resource_yield(pure, tf.preset("helmholtz", beta=1.0))


def test_work_report_epsilon_zero_has_no_cost_bounds():
    ctx = tf.preset("helmholtz", beta=1.0)
    spec = tf.SystemSpec(2, (("H", [0.0, 1.0]),))
    report = tf.work_report(tf.gibbs_state(spec, ctx), ctx, 0.0)
    assert report.w_gain == pytest.approx(0.0, abs=1e-12)
    assert report.w_cost_lower is None and report.w_cost_upper is None
    fuller = tf.work_report(tf.QuasiclassicalState(spec, [1.0, 0.0]), ctx, 0.2)
    assert fuller.w_cost_lower <= fuller.w_cost_upper


def test_battery_check_boundaries():
    ctx = tf.preset("helmholtz", beta=1.0)
    spec = tf.SystemSpec(2, (("H", [0.0, 1.0]),))
    state = tf.QuasiclassicalState(spec, [1.0, 0.0])
    battery = tf.BatteryState(0.4)
    yield_ = tf.w_gain(state, ctx, 0.0)
    assert tf.battery_extract_check(state, battery, 0.0, ctx, 0.0)
    assert tf.battery_extract_check(state, battery, yield_, ctx, 0.0)
    assert not tf.battery_extract_check(state, battery, yield_ + 0.1, ctx, 0.0)
    g = tf.gibbs_state(spec, ctx)
    assert not tf.battery_extract_check(g, battery, 0.05, ctx, 0.0)


def test_battery_check_agrees_with_conversion_decision():
    rng = np.random.default_rng(241)
    ctx = tf.preset("helmholtz", beta=1.3)
    for _ in range(8):
        spec = random_spec(rng, 3, ctx)
        state = random_state(rng, spec)
        # avoid full-support states whose zero-tolerance yield vanishes
        r = state.r.copy()
        r[rng.integers(3)] = 0.0
        state = tf.QuasiclassicalState(spec, r / r.sum())
        yield_ = tf.w_gain(state, ctx, 0.0)
        battery = tf.BatteryState(float(rng.uniform(-1, 1)))
        for work, expected in ((0.5 * yield_, True), (0.9 * yield_, True),
                               (1.1 * yield_, False), (2.0 * yield_, False)):
            low, high = tf.battery_pair(spec.labels, battery, work)
            verdict = tf.can_convert(tf.ConversionQuery(tf.compose(state, low), high, ctx))
            assert verdict == expected
            assert tf.battery_extract_check(state, battery, work, ctx, 0.0) == expected


def test_extractable_work_is_a_monotone():
    rng = np.random.default_rng(251)
    for _ in range(20):
        ctx = random_context(rng)
        spec = random_spec(rng, 4, ctx)
        src = random_state(rng, spec)
        dst = pushed_state(rng, src, ctx)
        assert tf.w_gain(dst, ctx, 0.0) <= tf.w_gain(src, ctx, 0.0) + 1e-9


def greedy_order(r, g):
    """Descending r/g, zero-g entries first: the greedy test's own sort
    from before it read the Lorenz curve backwards, kept as a reference."""
    ratio = np.full(r.size, np.inf)
    mask = g > 0
    ratio[mask] = r[mask] / g[mask]
    return np.argsort(-ratio, kind="stable")


def greedy_b_many(r, g, needs):
    """Optimal Type II errors at several thresholds: the reference greedy test."""
    order = greedy_order(r, g)
    rs, gs = r[order], g[order]
    cum_r = np.cumsum(rs)
    cum_g = np.cumsum(gs)
    support_g = float(gs[rs > 0].sum())
    out = np.empty(needs.size)
    exhausted = needs >= cum_r[-1]
    out[exhausted] = support_g
    live = ~exhausted
    if live.any():
        k = np.searchsorted(cum_r, needs[live], side="left")
        prev_r = np.where(k > 0, cum_r[np.maximum(k - 1, 0)], 0.0)
        prev_g = np.where(k > 0, cum_g[np.maximum(k - 1, 0)], 0.0)
        frac = np.clip((needs[live] - prev_r) / rs[k], 0.0, 1.0)
        out[live] = prev_g + frac * gs[k]
    return out


def probability_pair(rng, d):
    """(r, g) with zeros on either side, or r = g, for the greedy test."""
    r = rng.dirichlet(np.full(d, float(rng.choice([0.3, 1.0, 3.0]))))
    g = rng.dirichlet(np.ones(d))
    kind = rng.integers(4)
    if kind == 1 and d > 1:
        r[rng.integers(d)] = 0.0
    elif kind == 2 and d > 1:
        g[rng.integers(d)] = 0.0
    elif kind == 3:
        r = g.copy()
    return r / r.sum(), g / g.sum()


def test_curve_read_backwards_is_the_reference_greedy_test():
    rng = np.random.default_rng(251)
    for _ in range(300):
        r, g = probability_pair(rng, int(rng.integers(1, 13)))
        curve = curve_of(r, g)
        # interior thresholds, exact prefix sums, the top and beyond it
        needs = np.concatenate([rng.uniform(0, 1, 16), np.cumsum(r[curve.source_order]),
                                [1.0, 1.5]])
        assert np.array_equal(inverse(curve, r, g, needs), greedy_b_many(r, g, needs))
        for eps in (0.0, 0.05, float(rng.uniform(0, 1))):
            test = tf.HypothesisTest(r, g, eps)
            # threshold 1 accepts all of supp r, also past a rounded r total above 1
            need = 1.0 - eps if eps > 0.0 else np.inf
            want = greedy_b_many(test.r, test.g, np.array([need]))[0]
            assert tf.b_epsilon(test) == want


def breakpoint_lower(r, g, eps):
    """max of ln(h - eps) - ln b(h) over every breakpoint height of the
    reference greedy test inside (eps, 1), and h = 1, one lookup each."""
    heights = [h for h in np.cumsum(r[greedy_order(r, g)]).tolist() if eps < h < 1.0]
    return max(math.log(h - eps) - math.log(greedy_b_many(r, g, np.array([h]))[0])
               for h in heights + [1.0])


def sampled_lower(r, g, eps, deltas):
    """max of ln delta - ln b(eps + delta) over the given deltas."""
    return float((np.log(deltas) - np.log(greedy_b_many(r, g, eps + deltas))).max())


def grid_lower(r, g, eps):
    """The 512-point logarithmic delta grid that the exact maximum replaced."""
    top = 1.0 - eps
    deltas = np.geomspace(top * 1e-12, top, 512)
    deltas[-1] = top
    return sampled_lower(r, g, eps, deltas)


def test_work_bounds_match_the_reference_greedy_test():
    rng = np.random.default_rng(257)
    for trial in range(60):
        ctx = random_context(rng)
        spec = random_spec(rng, int(rng.integers(1, 13)), ctx)
        state = random_state(rng, spec) if trial % 4 else tf.gibbs_state(spec, ctx)
        g = tf.gibbs_state(spec, ctx).r
        eps = float(rng.uniform(0.01, 0.99))
        upper = (-math.log(greedy_b_many(state.r, g, np.array([eps]))[0])
                 - math.log((1.0 - eps) / eps)) / ctx.beta
        lower, got_upper = tf.w_cost_bounds(state, ctx, eps)
        assert got_upper == upper
        exact = lower * ctx.beta
        assert exact == pytest.approx(breakpoint_lower(state.r, g, eps), rel=0, abs=1e-12)
        # the maximum: no sampled delta beats it, and it sits below the upper bound
        dense = np.linspace(0.0, 1.0 - eps, 200_001)[1:]
        assert grid_lower(state.r, g, eps) <= exact + 1e-12
        assert sampled_lower(state.r, g, eps, dense) <= exact + 1e-12
        assert lower <= upper
        test = tf.HypothesisTest(state.r, g, eps)
        gain = -math.log(greedy_b_many(test.r, test.g, np.array([1.0 - eps]))[0]) + 0.0
        assert tf.w_gain(state, ctx, eps) == gain / ctx.beta


def test_lower_cost_bound_uses_libm_logs():
    # the value is pinned to math.log, so it cannot change with numpy's SIMD log
    rng = np.random.default_rng(263)
    for _ in range(100):
        ctx = random_context(rng)
        state = random_state(rng, random_spec(rng, int(rng.integers(2, 13)), ctx))
        eps = float(rng.uniform(0.01, 0.99))
        g = tf.gibbs_state(state.spec, ctx).r
        curve = curve_of(state.r, g)
        heights = [h for h in curve.y.tolist() if eps < h < 1.0] + [1.0]
        b = [float(inverse(curve, state.r, g, np.array([h]))[0]) for h in heights]
        want = max(math.log(h - eps) - math.log(b_h) for h, b_h in zip(heights, b)) / ctx.beta
        assert tf.w_cost_bounds(state, ctx, eps)[0] == want


def test_work_bounds_invariances():
    rng = np.random.default_rng(269)
    for _ in range(60):
        ctx = random_context(rng)
        state = random_state(rng, random_spec(rng, int(rng.integers(2, 10)), ctx))
        eps = float(rng.uniform(0.01, 0.99))
        want = np.multiply(tf.w_cost_bounds(state, ctx, eps), ctx.beta)
        for kwargs in ({"shift": float(rng.uniform(-50, 50))},
                       {"perm": rng.permutation(state.dim)},
                       {"scale": float(rng.choice([0.1, 0.5, 3.0, 20.0]))}):
            other, other_ctx = relabeled(state, ctx, **kwargs)
            got = np.multiply(tf.w_cost_bounds(other, other_ctx, eps), other_ctx.beta)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=str(kwargs))

