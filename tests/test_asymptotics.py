import itertools
import math
import time
from statistics import NormalDist

import numpy as np
import pytest

import thermoflow as tf
from thermoflow.asymptotics import BLOCK, SHORT_RUN, _SortedClasses
from thermoflow.errors import (
    EntropyRepresentation,
    EpsilonOutOfRange,
    TargetIsEquilibrium,
)

from conftest import (nonequilibrium_state, random_context, random_spec, random_state,
                      relabeled)


def test_free_energy_rate_vanishes_at_equilibrium():
    rng = np.random.default_rng(301)
    ctx = random_context(rng)
    spec = random_spec(rng, 5, ctx)
    assert tf.free_energy_rate(tf.gibbs_state(spec, ctx), ctx) == pytest.approx(0.0, abs=1e-12)


def test_free_energy_rate_two_level_probe():
    ctx = tf.preset("helmholtz", beta=1.0)
    spec = tf.SystemSpec(2, (("H", [0.0, math.log(2)]),))
    state = tf.QuasiclassicalState(spec, [1.0, 0.0])
    assert tf.free_energy_rate(state, ctx) == pytest.approx(math.log(1.5), abs=1e-12)


def test_free_energy_rate_equals_scaled_divergence():
    rng = np.random.default_rng(307)
    for kind in ("helmholtz", "grand_potential", "gibbs"):
        for _ in range(10):
            ctx = random_context(rng, kind)
            spec = random_spec(rng, int(rng.integers(2, 6)), ctx)
            state = random_state(rng, spec)
            expected = tf.relative_entropy(state.r, tf.gibbs_state(spec, ctx).r) / ctx.beta
            assert tf.free_energy_rate(state, ctx) == pytest.approx(expected, abs=1e-10)


def test_gauge_shift_of_2_to_the_40_moves_no_bit():
    # Levels on a 2^-10 grid with dyadic beta and intensive values: every shifted
    # exponent is exact, so g and D(r || g) keep their bits. Means of the levels
    # would cancel 2^40 against 2^40 and keep few of them.
    rng = np.random.default_rng(431)
    for trial in range(40):
        beta = float(rng.choice([0.5, 1.0, 2.0]))
        ctx = [tf.preset("helmholtz", beta=beta),
               tf.preset("grand_potential", beta=beta, mu=0.75),
               tf.preset("gibbs", beta=beta, pressure=0.25)][trial % 3]
        d = int(rng.integers(2, 7))
        ops = [(label, rng.integers(0, 2**11, d) / 2**10)
               for label in ("H", "X")[:ctx.n_state_operators]]
        r, s = rng.dirichlet(np.ones(d), 2)
        eps = float(rng.uniform(0.01, 0.9))
        got = []
        for shift in (0.0, 2.0**40):
            spec = tf.SystemSpec(d, tuple((label, eig + shift) for label, eig in ops))
            source, target = tf.QuasiclassicalState(spec, r), tf.QuasiclassicalState(spec, s)
            got.append((tf.free_energy_rate(source, ctx), tf.conversion_rate(source, target, ctx),
                        tf.aep_sweep(source, ctx, eps, [3]).limit, tf.w_gain(source, ctx, eps)))
        assert got[1] == got[0], (trial, got)


def test_free_energy_rate_entropy_rejected():
    state = tf.QuasiclassicalState(tf.SystemSpec(2), [1.0, 0.0])
    with pytest.raises(EntropyRepresentation):
        tf.free_energy_rate(state, tf.preset("entropy"))


def test_free_energy_rate_checks_operator_count():
    from thermoflow.errors import DimensionMismatch

    ctx = tf.preset("grand_potential", beta=1.0, mu=0.5)
    bare = tf.QuasiclassicalState(tf.SystemSpec(2, (("H", [0.0, 1.0]),)), [0.5, 0.5])
    with pytest.raises(DimensionMismatch):
        tf.free_energy_rate(bare, ctx)


def test_aep_equilibrium_closed_form():
    ctx = tf.preset("helmholtz", beta=1.0)
    spec = tf.SystemSpec(2, (("H", [0.0, 1.0]),))
    g = tf.gibbs_state(spec, ctx)
    eps = 0.2
    sweep = tf.aep_sweep(g, ctx, eps, [1, 4, 16, 64])
    assert sweep.limit == pytest.approx(0.0, abs=1e-12)
    for n, per_copy in sweep.rows:
        assert per_copy == pytest.approx(-math.log(1 - eps) / n, abs=1e-12)


def test_aep_first_row_is_single_copy_entropy():
    ctx = tf.preset("helmholtz", beta=1.0)
    spec = tf.SystemSpec(2, (("H", [0.0, 1.0]),))
    state = tf.QuasiclassicalState(spec, [0.9, 0.1])
    eps = 0.3
    sweep = tf.aep_sweep(state, ctx, eps, [1])
    g = tf.gibbs_state(spec, ctx)
    expected = tf.d_h_epsilon(tf.HypothesisTest(state.r, g.r, eps))
    assert sweep.rows[0] == (1, pytest.approx(expected, abs=1e-12))


def test_aep_deviation_shrinks_along_ladder():
    ctx = tf.preset("helmholtz", beta=1.0)
    spec = tf.SystemSpec(2, (("H", [0.0, 1.0]),))
    state = tf.QuasiclassicalState(spec, [0.9, 0.1])
    sweep = tf.aep_sweep(state, ctx, 0.01, [64, 1024])
    dev = {n: abs(pc - sweep.limit) for n, pc in sweep.rows}
    assert dev[1024] <= 5 * dev[64]


def test_aep_needs_interior_epsilon():
    ctx = tf.preset("helmholtz", beta=1.0)
    spec = tf.SystemSpec(2, (("H", [0.0, 1.0]),))
    state = tf.QuasiclassicalState(spec, [0.9, 0.1])
    with pytest.raises(EpsilonOutOfRange):
        tf.aep_sweep(state, ctx, 0.0, [4])


def test_compressed_greedy_matches_explicit_products():
    ctx = tf.preset("helmholtz", beta=0.7)
    spec = tf.SystemSpec(2, (("H", [0.0, 1.3]),))
    state = tf.QuasiclassicalState(spec, [0.85, 0.15])
    g = tf.gibbs_state(spec, ctx)
    for n in (2, 5, 9, 12):
        r_n = state.r.copy()
        g_n = g.r.copy()
        for _ in range(n - 1):
            r_n = np.kron(r_n, state.r)
            g_n = np.kron(g_n, g.r)
        cs = tf.tensor_power_compressed(state, ctx, n)
        for eps in (0.0, 0.05, 0.3, 0.8):
            explicit = tf.d_h_epsilon(tf.HypothesisTest(r_n, g_n, eps))
            compressed = tf.compressed_d_h_epsilon(cs, eps)
            assert compressed == pytest.approx(explicit, abs=1e-10)


@pytest.mark.parametrize("r", [[0.9, 0.1], [0.999, 0.001]])
@pytest.mark.parametrize("n", [300, 1000])
def test_compressed_d_h_at_zero_of_full_support_is_zero(r, n):
    # g = [0.01, 0.99]: the last classes hold r mass near the rounding error of
    # the cumulative r total and most of the g mass, and threshold 1 needs them all
    ctx = tf.preset("helmholtz", beta=1.0)
    state = tf.QuasiclassicalState(tf.SystemSpec(2, (("H", [math.log(99.0), 0.0]),)), r)
    cs = tf.tensor_power_compressed(state, ctx, n)
    assert tf.compressed_d_h_epsilon(cs, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_conversion_rate_identity_and_halving():
    ent = tf.preset("entropy")
    pure2 = tf.QuasiclassicalState(tf.SystemSpec(2), [1.0, 0.0])
    pure4 = tf.QuasiclassicalState(tf.SystemSpec(4), [1.0, 0.0, 0.0, 0.0])
    assert tf.conversion_rate(pure2, pure2, ent) == pytest.approx(1.0, abs=1e-12)
    assert tf.conversion_rate(pure2, pure4, ent) == pytest.approx(0.5, abs=1e-12)


def test_conversion_rate_reciprocity():
    rng = np.random.default_rng(311)
    for _ in range(20):
        ctx = random_context(rng)
        spec_a = random_spec(rng, 3, ctx)
        spec_b = random_spec(rng, 4, ctx, labels=spec_a.labels)
        a = nonequilibrium_state(rng, spec_a, ctx)
        b = nonequilibrium_state(rng, spec_b, ctx)
        product = tf.conversion_rate(a, b, ctx) * tf.conversion_rate(b, a, ctx)
        assert product == pytest.approx(1.0, abs=1e-12)


def test_conversion_rate_equilibrium_target_rejected():
    ctx = tf.preset("helmholtz", beta=1.0)
    spec = tf.SystemSpec(2, (("H", [0.0, 1.0]),))
    state = tf.QuasiclassicalState(spec, [0.9, 0.1])
    with pytest.raises(TargetIsEquilibrium):
        tf.conversion_rate(state, tf.gibbs_state(spec, ctx), ctx)


def test_finite_n_gap_single_copy_reduction():
    ctx = tf.preset("helmholtz", beta=1.0)
    spec = tf.SystemSpec(2, (("H", [0.0, 1.0]),))
    state = tf.QuasiclassicalState(spec, [0.9, 0.1])
    eps = 0.1
    gain, (lower, upper) = tf.finite_n_gap(state, ctx, eps, 1)
    assert gain == pytest.approx(tf.w_gain(state, ctx, eps), abs=1e-12)
    ref_lower, ref_upper = tf.w_cost_bounds(state, ctx, eps)
    assert lower == pytest.approx(ref_lower, abs=1e-12)
    assert upper == pytest.approx(ref_upper, abs=1e-12)


def test_finite_n_gap_costs_exceed_gains():
    ctx = tf.preset("helmholtz", beta=1.0)
    spec = tf.SystemSpec(2, (("H", [0.0, 1.0]),))
    state = tf.QuasiclassicalState(spec, [0.9, 0.1])
    for n in (4, 16, 64):
        gain, (lower, upper) = tf.finite_n_gap(state, ctx, 0.01, n)
        assert upper >= gain
        assert lower <= upper


def boundary_lower(state, ctx, eps, n):
    """beta times the lower cost bound of n copies: the best of ln(h - eps) -
    ln b(h) over every class boundary h inside (eps, 1), and h = 1."""
    classes = _SortedClasses([tf.tensor_power_compressed(state, ctx, n)])
    heights = classes.cum_r[(classes.cum_r > eps) & (classes.cum_r < 1.0)]
    heights = np.append(heights, 1.0)
    # b where the r mass reaches h, as the bound reads it: at h = 1 that leaves
    # out classes past a rounded r total of 1, which D_H^0's log_b accepts
    log_b = np.array([classes._log_b_reached(float(h)) for h in heights])
    return float((np.log(heights - eps) - log_b).max())


def test_finite_n_gap_lower_matches_every_class_boundary():
    rng = np.random.default_rng(347)
    cases = []
    for d, n in ((2, 1), (2, 3000), (3, 7), (3, 200), (4, 40), (5, 20), (2, 500), (4, 9)):
        ctx = random_context(rng)
        r = rng.dirichlet(np.ones(d))
        if n in (500, 9, 200):  # an outcome of zero probability
            r[rng.integers(d)] = 0.0
            r /= r.sum()
        cases.append((tf.QuasiclassicalState(random_spec(rng, d, ctx), r), ctx, n))
    # d = 3, n = 800: classes whose r mass underflows to 0.0 lie between eps and
    # the maximum; reading rho from their mass would stop the bisection early
    ctx = tf.preset("helmholtz", beta=1.0)
    spec = tf.SystemSpec(3, (("H", [0.11409534228867368, -2.108443015892206,
                                    2.6375643792617414]),))
    r = [0.7912077483136309, 0.10956133497875473, 0.09923091670761419]
    cases.append((tf.QuasiclassicalState(spec, r), ctx, 800))
    for state, ctx, n in cases:
        for eps in (0.01, 0.11403838390122807, 0.5, 0.97, float(rng.uniform(0.01, 0.99))):
            _, (lower, upper) = tf.finite_n_gap(state, ctx, eps, n)
            want = boundary_lower(state, ctx, eps, n)
            assert lower * ctx.beta == pytest.approx(want, rel=1e-12, abs=1e-12), (n, eps)
            assert lower <= upper


def test_lower_cost_bound_stops_where_the_rounded_r_total_reaches_1():
    # r = [1, 6e-17]: the all-0 class alone carries r mass 1.0, and the later
    # classes add r only at rounding size but most of g. The lower bound's
    # maximum stays at the end of that class, ln(1 - eps) - n ln g_0, while
    # D_H^0 accepts every class (b = 1).
    ctx = tf.preset("helmholtz", beta=1.0)
    state = tf.QuasiclassicalState(tf.SystemSpec(2, (("H", [0.25, 0.0]),)), [1.0, 6e-17])
    log_g0 = -math.log1p(math.exp(0.25))
    for n in (500, 2000):
        for eps in (0.1, 0.5):
            _, (lower, upper) = tf.finite_n_gap(state, ctx, eps, n)
            assert lower == pytest.approx(math.log(1.0 - eps) - n * log_g0, rel=1e-12)
            assert lower <= upper
        cs = tf.tensor_power_compressed(state, ctx, n)  # masses conserved to 1e-9
        assert tf.compressed_d_h_epsilon(cs, 0.0) == pytest.approx(0.0, abs=1e-9)


def test_lower_cost_bound_stops_where_the_r_total_first_rounds_to_1():
    # r = [1, 1e-19]: every class past the all-0 one adds r below rounding, so
    # the r total stays exactly 1.0 from the first class on. The maximum is
    # ln(1 - eps) - n ln g_0 there; counting the later classes' g gave
    # -0.693 at n = 1 and 332.59 at n = 500.
    ctx = tf.preset("helmholtz", beta=1.0)
    state = tf.QuasiclassicalState(tf.SystemSpec(2, (("H", [0.25, 0.0]),)), [1.0, 1e-19])
    log_g0 = -math.log1p(math.exp(0.25))
    for n, want in ((1, 0.1328), (500, 412.28)):
        classes = _SortedClasses([tf.tensor_power_compressed(state, ctx, n)])
        assert classes.cum_r[-1] == 1.0
        _, (lower, upper) = tf.finite_n_gap(state, ctx, 0.5, n)
        assert lower == pytest.approx(math.log(0.5) - n * log_g0, rel=1e-12)
        assert lower == pytest.approx(want, abs=5e-3)
        assert lower <= upper
    w_lower = tf.w_cost_bounds(state, ctx, 0.5)[0]
    assert w_lower == pytest.approx(tf.finite_n_gap(state, ctx, 0.5, 1)[1][0], rel=1e-12)


def test_finite_n_gap_invariances():
    rng = np.random.default_rng(349)
    # The last three states have levels of r = 0, which a permutation moves. At
    # d = 3, n = 1500 and d = 4, n = 200, classes over all d levels would exceed the cap.
    for d, n, zeros in ((2, 400, 0), (3, 30, 0), (4, 12, 0), (5, 6, 0),
                        (3, 1500, 1), (4, 200, 2), (5, 40, 1)):
        ctx = random_context(rng)
        state = random_state(rng, random_spec(rng, d, ctx))
        if zeros:
            r = state.r.copy()
            r[rng.choice(d, zeros, replace=False)] = 0.0
            state = tf.QuasiclassicalState(state.spec, r / r.sum())
        eps = float(rng.uniform(0.01, 0.99))
        gain, bounds = tf.finite_n_gap(state, ctx, eps, n)
        want = np.multiply((gain, *bounds), ctx.beta)
        for kwargs in ({"shift": float(rng.uniform(-50, 50))},
                       {"perm": rng.permutation(d)},
                       {"scale": float(rng.choice([0.1, 0.5, 3.0, 20.0]))}):
            other, other_ctx = relabeled(state, ctx, **kwargs)
            gain, bounds = tf.finite_n_gap(other, other_ctx, eps, n)
            got = np.multiply((gain, *bounds), other_ctx.beta)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12, err_msg=str(kwargs))


def test_pure_state_work_is_the_closed_form():
    # A pure state has one class at any n, of r mass 1 and g mass g_1^n, so
    # gain = upper = (-n ln g_1 - ln(1 - eps)) / beta and lower = (ln(1 - eps) - n ln g_1) / beta.
    rng = np.random.default_rng(367)
    n = 10**4
    for d in range(2, 13):
        ctx = random_context(rng)
        spec = random_spec(rng, d, ctx)
        level = int(rng.integers(d))
        state = tf.QuasiclassicalState(spec, np.eye(d)[level])
        log_g1 = math.log(tf.gibbs_state(spec, ctx).r[level])
        for eps in (0.01, 0.1, 0.5, 0.9):
            log_keep = math.log(1.0 - eps)
            gain, (lower, upper) = tf.finite_n_gap(state, ctx, eps, n)
            want = (-n * log_g1 - log_keep) / ctx.beta
            assert gain == pytest.approx(want, rel=1e-12)
            assert upper == pytest.approx(want, rel=1e-12)
            assert lower == pytest.approx((log_keep - n * log_g1) / ctx.beta, rel=1e-12)
            sweep = tf.aep_sweep(state, ctx, eps, [1, 100, n])
            assert sweep.rows[-1][1] == pytest.approx(ctx.beta * gain / n, rel=1e-12)
            for m, per_copy in sweep.rows:
                assert per_copy == pytest.approx((-m * log_g1 - log_keep) / m, rel=1e-12)


def reference_log_b(classes, need):
    """The scalar per-threshold lookup, kept as a reference for ``log_b``."""
    if not np.any(classes.r_mass > 0.0):
        return -math.inf
    if need >= min(classes.cum_r[-1], 1.0):
        return float(np.logaddexp.reduce(classes.log_g_mass[classes.r_mass > 0.0]))
    k = int(np.searchsorted(classes.cum_r, need, side="left"))
    prev_r = classes.cum_r[k - 1] if k > 0 else 0.0
    prev_log_g = classes.prefix_log_g[k - 1] if k > 0 else -math.inf
    frac = min(max((need - prev_r) / classes.r_mass[k], 0.0), 1.0)
    if frac == 0.0:
        return float(prev_log_g)
    return float(np.logaddexp(prev_log_g, math.log(frac) + classes.log_g_mass[k]))


def test_many_copy_calls_near_the_cap_hold_fewer_than_six_tables():
    import tracemalloc

    # d = 3, n = 1400: 982,101 classes, 7.9 MB per float64 table. Building the
    # power and sorting it each keep at most five tables alive, since the
    # power's tables are freed as their sorted copies appear.
    rng = np.random.default_rng(316)
    ctx = random_context(rng, "helmholtz")
    state = tf.QuasiclassicalState(random_spec(rng, 3, ctx), [0.5, 0.3, 0.2])
    size = math.comb(1400 + 2, 2)
    calls = [(size, lambda: tf.finite_n_gap(state, ctx, 0.1, 1400)),
             (size, lambda: tf.aep_sweep(state, ctx, 0.1, [700, 1400]))]
    # d = 5, n = 62 (720,720 classes) and d = 4, n = 175 (924,176 classes) take
    # the SIMD sort; the second has two alike levels, so nearly every class ties
    # and the tie repair runs
    five = tf.QuasiclassicalState(random_spec(rng, 5, ctx), rng.dirichlet(np.ones(5)))
    tied = tf.QuasiclassicalState(tf.SystemSpec(4, (("H", [0.0, 0.5, 0.5, 1.5]),)),
                                  [0.4, 0.25, 0.25, 0.1])
    for other, n in ((five, 62), (tied, 175)):
        power = tf.tensor_power_compressed(other, ctx, n)
        key = power.log_g - power.log_r
        descents = np.count_nonzero(key[1:] < key[:-1])
        assert key.size < SHORT_RUN * (1 + min(descents, key.size - 1 - descents))
        assert (np.unique(key).size < key.size / 2) == (other is tied)
        calls.append((key.size, lambda other=other, n=n: tf.finite_n_gap(other, ctx, 0.1, n)))
        del power, key
    for size, call in calls:
        bound = 6 * 8 * size
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound


def fsum_prefix_log_g(log_g_mass, reads):
    """ln of the g mass of classes 0..k for each k in ``reads``. Each stretch
    between sorted reads is summed by math.fsum around its own largest term;
    a read adds up the stretch sums so far with math.fsum."""
    want, tops, sums, lo = {}, [], [], 0
    for k in sorted(set(reads)):
        if k >= lo:
            stretch = log_g_mass[lo:k + 1]
            tops.append(float(stretch.max()))
            sums.append(math.fsum(np.exp(stretch - tops[-1]).tolist()))
            lo = k + 1
        top = max(tops)
        want[k] = top + math.log(math.fsum(s * math.exp(t - top) for t, s in zip(tops, sums)))
    return want


@pytest.mark.parametrize("d, n, scale", [
    (2, 8190, 1.0),  # 8191 classes
    (2, 8191, 1.0),  # 8192: the largest table that keeps one running logaddexp
    (2, 8192, 1.0),  # 8193: one whole block and a block of one class
    (5, 62, 1.0),  # 720,720 classes, near the cap
    (3, 1400, 6.0),  # g masses span more than 700 inside one block
])
def test_g_mass_prefix_reads_match_an_fsum_reference(d, n, scale):
    rng = np.random.default_rng([353, d, n])
    ctx = tf.preset("helmholtz", beta=1.0)
    spec = tf.SystemSpec(d, (("H", scale * rng.uniform(-2, 2, d)),))
    state = tf.QuasiclassicalState(spec, rng.dirichlet(np.ones(d)))
    classes = _SortedClasses([tf.tensor_power_compressed(state, ctx, n)])
    size = classes.log_g_mass.size
    if size <= BLOCK:  # block 0 is the plain running accumulate
        np.testing.assert_array_equal([classes.prefix_log_g[k] for k in range(size)],
                                      np.logaddexp.accumulate(classes.log_g_mass))
    if scale > 1.0:  # some terms of a block lie below the floor, 700 under its largest
        whole = classes.log_g_mass[:size // BLOCK * BLOCK].reshape(-1, BLOCK)
        assert np.ptp(whole, axis=1).max() > 700
    edges = [k for j in range(1, size // BLOCK + 1) for k in (j * BLOCK - 1, j * BLOCK)]
    reads = [k for k in edges if k < size] + [0, size - 1] + rng.integers(size, size=200).tolist()
    want = fsum_prefix_log_g(classes.log_g_mass, reads)
    for k in reads:
        assert classes.prefix_log_g[k] == pytest.approx(want[k], rel=1e-13, abs=1e-13), k


@pytest.mark.parametrize("n", [140, 200])
def test_g_mass_prefix_stays_minus_infinity_over_blocks_without_mass(n):
    # k ln g overflows to -inf for most classes: they sort first and fill whole blocks
    ctx = tf.preset("grand_potential", beta=1.0, mu=0.5)
    spec = tf.SystemSpec(3, (("H", np.zeros(3)), ("N", np.array([0.0, 1.0, 1e308]))))
    state = tf.QuasiclassicalState(spec, np.array([0.5, 0.3, 0.2]))
    with np.errstate(over="ignore"):
        power = tf.tensor_power_compressed(state, ctx, n)
    classes = _SortedClasses([power])
    size = classes.log_g_mass.size
    assert size > BLOCK and np.isneginf(classes.log_g_mass[:BLOCK]).all()
    np.testing.assert_array_equal([classes.prefix_log_g[k] for k in range(size)],
                                  np.logaddexp.accumulate(classes.log_g_mass))
    assert classes.log_b_all == float(np.logaddexp.reduce(classes.log_g_mass))


def stable_tables(power):
    """r_mass, log_g_mass and cum_r in the order of a stable argsort of -ratio."""
    order = np.argsort(power.log_g - power.log_r, kind="stable")
    r_mass = np.exp(power.log_r + power.log_mult)[order]
    return r_mass, (power.log_g + power.log_mult)[order], np.cumsum(r_mass)


@pytest.mark.parametrize("d, n", [(4, 40), (5, 20), (4, 100), (5, 36)])
def test_short_runs_sort_to_the_stable_tables(d, n):
    rng = np.random.default_rng([359, d, n])
    ctx = tf.preset("helmholtz", beta=1.0)
    repaired = 0
    for kind in ("random", "degenerate", "integer", "zero"):
        energies, r = rng.uniform(-2, 2, d), rng.dirichlet(np.ones(d))
        if kind == "degenerate":  # two alike levels: swapping their counts ties
            energies[1], r[1] = energies[0], r[0]
        elif kind == "integer":  # commensurate log ratios tie across many classes
            energies = rng.integers(-3, 4, d).astype(float)
            r = np.exp(-rng.integers(0, 4, d).astype(float))
        elif kind == "zero":  # one more level, of r = 0: the classes stay over d levels
            energies = np.insert(energies, 1, rng.uniform(-2, 2))
            r = np.insert(r, 1, 0.0)
        state = tf.QuasiclassicalState(tf.SystemSpec(r.size, (("H", energies),)), r / r.sum())
        power = tf.tensor_power_compressed(state, ctx, n)
        key = power.log_g - power.log_r
        descents = np.count_nonzero(key[1:] < key[:-1])
        assert BLOCK < key.size < SHORT_RUN * (1 + min(descents, key.size - 1 - descents)), kind
        # the default argsort leaves ties out of index order: the repair has work
        repaired += not np.array_equal(np.argsort(key), np.argsort(key, kind="stable"))
        classes = _SortedClasses([power])
        for got, want in zip((classes.r_mass, classes.log_g_mass, classes.cum_r),
                             stable_tables(power)):
            np.testing.assert_array_equal(got, want, err_msg=kind)
    assert repaired


def test_log_b_many_matches_scalar_lookup():
    rng = np.random.default_rng(331)
    ctx = tf.preset("helmholtz", beta=0.9)
    cases = [([0.6, 0.4, 0.0], 7), ([0.0, 0.3, 0.7], 12), ([1.0], 5)]
    for d, n in ((2, 40), (3, 9), (4, 6), (5, 4)):
        cases.append((rng.dirichlet(np.ones(d)), n))
    for r, n in cases:
        spec = tf.SystemSpec(len(r), (("H", rng.uniform(-1, 1, len(r))),))
        state = tf.QuasiclassicalState(spec, r)
        classes = _SortedClasses([tf.tensor_power_compressed(state, ctx, n)])
        total = classes.cum_r[-1]
        needs = np.concatenate([
            [0.0, -0.25],  # k = 0 with a fraction of exactly 0
            [total, np.nextafter(total, 0.0), 1.0, 1.5],  # at and past the total
            classes.cum_r,  # class boundaries
            np.nextafter(classes.cum_r, 2.0),
            np.linspace(0.0, 1.0, 257),
        ])
        got = np.array([classes.log_b(float(v)) for v in needs])
        expected = np.array([reference_log_b(classes, float(v)) for v in needs])
        np.testing.assert_array_equal(got, expected)
        # an r with a zero entry gives the classes over supp r only
        support = np.count_nonzero(r)
        assert classes.r_mass.size == math.comb(n + support - 1, support - 1)


def test_compressed_d_h_matches_second_order_expansion():
    # D_H^eps(r^n || g^n) = n D + sqrt(n V) Phi^-1(eps) + O(log n), with V the
    # relative-entropy variance (Strassen 1962; Tomamichel & Hayashi,
    # arXiv:1208.1478). d = 3 at n = 1400 is 982,101 classes, just under
    # the cap; the time gate also catches a return to per-row Python objects.
    rng = np.random.default_rng(337)
    start = time.perf_counter()
    for d, n in ((3, 1400), (3, 1400), (2, 4096), (2, 4096), (2, 4096)):
        ctx = random_context(rng)
        spec = random_spec(rng, d, ctx)
        g = tf.gibbs_state(spec, ctx).r
        r = 0.9 * rng.dirichlet(np.ones(d)) + 0.1 / d
        eps = float(rng.uniform(0.05, 0.5))
        log_ratio = np.log(r / g)
        rel = float(r @ log_ratio)
        var = float(r @ log_ratio ** 2) - rel ** 2
        expansion = n * rel + math.sqrt(n * var) * NormalDist().inv_cdf(eps)
        cs = tf.tensor_power_compressed(tf.QuasiclassicalState(spec, r), ctx, n)
        assert abs(tf.compressed_d_h_epsilon(cs, eps) - expansion) <= math.log(n) + 5
    assert time.perf_counter() - start < 20.0


def brute_force_per_copy_dh(r, log_g, n, epsilon):
    """Per-copy D_H^epsilon of the n-fold product over all d^n sequences, with
    the greedy test run in the log domain so no g underflows."""
    seqs = np.array(list(itertools.product(range(r.size), repeat=n)))
    log_r = np.log(r)[seqs].sum(axis=1)
    log_gs = log_g[seqs].sum(axis=1)
    order = np.argsort(-(log_r - log_gs), kind="stable")
    need, log_b = 1.0 - epsilon, -math.inf
    for k in order:
        p = math.exp(log_r[k])
        if p >= need:
            return -np.logaddexp(log_b, math.log(need / p) + log_gs[k]) / n
        need -= p
        log_b = np.logaddexp(log_b, log_gs[k])
    raise AssertionError("threshold not reached")


@pytest.mark.parametrize("energies, r, n_list", [
    ([0.0, 800.0], [0.6, 0.4], (3, 10)),
    ([0.0, 5.0, 900.0], [0.5, 0.3, 0.2], (2, 6)),
])
def test_aep_and_rate_across_a_gap_that_underflows_g(energies, r, n_list):
    ctx = tf.preset("helmholtz", beta=1.0)
    spec = tf.SystemSpec(len(r), (("H", energies),))
    state = tf.QuasiclassicalState(spec, r)
    exponents = -np.array(energies)
    log_g = exponents - np.logaddexp.reduce(exponents)
    assert tf.gibbs_state(spec, ctx).r.min() == 0.0
    sweep = tf.aep_sweep(state, ctx, 0.1, n_list)
    assert sweep.limit == pytest.approx(float((state.r * (np.log(state.r) - log_g)).sum()),
                                        rel=1e-12)
    for n, per_copy in sweep.rows:
        assert per_copy == pytest.approx(brute_force_per_copy_dh(state.r, log_g, n, 0.1),
                                         rel=1e-9)
    assert tf.conversion_rate(state, state, ctx) == 1.0
