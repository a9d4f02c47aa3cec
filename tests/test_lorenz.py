import math

import numpy as np
import pytest

import thermoflow as tf
from thermoflow.errors import WidthMismatch
from thermoflow.lorenz import (
    DOMINATION_ATOL,
    NEAR_TIE_BAND,
    DominationResult,
    LorenzCurve,
    compare,
    curve_of,
)
from thermoflow.theory import _equilibrium, equilibrium_exponents

from conftest import random_context, random_spec, random_state


def test_gibbs_state_curve_is_the_diagonal():
    rng = np.random.default_rng(2)
    for _ in range(10):
        ctx = random_context(rng)
        spec = random_spec(rng, 5, ctx)
        curve = tf.build_curve(tf.gibbs_state(spec, ctx), ctx)
        np.testing.assert_allclose(curve.y, curve.u, rtol=0, atol=1e-12)


def test_pure_entropy_curve_breakpoints():
    ctx = tf.preset("entropy")
    state = tf.QuasiclassicalState(tf.SystemSpec(2), [1.0, 0.0])
    curve = tf.build_curve(state, ctx)
    np.testing.assert_allclose(curve.points, [(0, 0), (1, 1), (2, 1)], atol=1e-15)


def test_uniform_entropy_curve_is_diagonal():
    ctx = tf.preset("entropy")
    state = tf.QuasiclassicalState(tf.SystemSpec(2), [0.5, 0.5])
    curve = tf.build_curve(state, ctx)
    np.testing.assert_allclose(curve.points, [(0, 0), (1, 0.5), (2, 1)], atol=1e-15)


def test_dominates_reflexive_and_gibbs_floor():
    rng = np.random.default_rng(9)
    for _ in range(25):
        ctx = random_context(rng)
        spec = random_spec(rng, int(rng.integers(2, 6)), ctx)
        state = random_state(rng, spec)
        curve = tf.build_curve(state, ctx)
        assert tf.dominates(curve, curve)
        gibbs_curve = tf.build_curve(tf.gibbs_state(spec, ctx), ctx)
        assert tf.dominates(curve, gibbs_curve)
        # the floor dominates back only if the state is equilibrium itself
        back = tf.dominates(gibbs_curve, curve)
        is_gibbs = np.allclose(state.r, tf.gibbs_state(spec, ctx).r, atol=1e-9)
        assert back == is_gibbs


def test_entropy_theory_majorization_pair():
    ctx = tf.preset("entropy")
    spec = tf.SystemSpec(2)
    sharp = tf.build_curve(tf.QuasiclassicalState(spec, [0.9, 0.1]), ctx)
    flat = tf.build_curve(tf.QuasiclassicalState(spec, [0.7, 0.3]), ctx)
    assert tf.dominates(sharp, flat)
    assert not tf.dominates(flat, sharp)


def test_width_mismatch_rejected():
    ctx = tf.preset("entropy")
    c2 = tf.build_curve(tf.QuasiclassicalState(tf.SystemSpec(2), [1.0, 0.0]), ctx)
    c3 = tf.build_curve(tf.QuasiclassicalState(tf.SystemSpec(3), [1.0, 0.0, 0.0]), ctx)
    with pytest.raises(WidthMismatch):
        tf.dominates(c2, c3)


def test_curve_gauge_invariance_under_relabeling():
    rng = np.random.default_rng(17)
    for _ in range(10):
        ctx = random_context(rng)
        d = 5
        spec = random_spec(rng, d, ctx)
        state = random_state(rng, spec)
        perm = rng.permutation(d)
        spec_p = tf.SystemSpec(d, tuple((lab, eig[perm]) for lab, eig in spec.operators))
        state_p = tf.QuasiclassicalState(spec_p, state.r[perm])
        a = tf.build_curve(state, ctx)
        b = tf.build_curve(state_p, ctx)
        np.testing.assert_allclose(a.points, b.points, atol=1e-12)


def test_breakpoint_span_is_partition_function():
    rng = np.random.default_rng(29)
    for _ in range(15):
        ctx = random_context(rng)
        spec = random_spec(rng, int(rng.integers(2, 7)), ctx)
        state = random_state(rng, spec)
        curve = tf.build_curve(state, ctx)
        assert curve.width == pytest.approx(tf.partition_function(spec, ctx), abs=1e-10)


def test_curve_shape_invariants():
    rng = np.random.default_rng(31)
    for _ in range(15):
        ctx = random_context(rng)
        spec = random_spec(rng, 6, ctx)
        curve = tf.build_curve(random_state(rng, spec), ctx)
        dx = np.diff(curve.x)
        dy = np.diff(curve.y)
        assert np.all(dx > 0)
        assert np.all(dy >= -1e-15)
        assert curve.y[0] == 0.0
        assert curve.y[-1] == pytest.approx(1.0, abs=1e-12)
        slopes = dy / dx
        assert np.all(np.diff(slopes) <= 1e-12)


def test_near_tie_diagnostic():
    ctx = tf.preset("entropy")
    spec = tf.SystemSpec(2)
    base = tf.build_curve(tf.QuasiclassicalState(spec, [0.6, 0.4]), ctx)
    same = tf.compare(base, base)
    assert same.dominates and same.min_margin == 0.0 and not same.near_tie

    bump = tf.build_curve(tf.QuasiclassicalState(spec, [0.6 + 5e-11, 0.4 - 5e-11]), ctx)
    result = tf.compare(base, bump)
    assert not result.dominates
    assert result.near_tie
    assert result.min_margin == pytest.approx(-5e-11, rel=0.1)

    clear = tf.compare(base, tf.build_curve(tf.QuasiclassicalState(spec, [0.9, 0.1]), ctx))
    assert not clear.dominates and not clear.near_tie


def linear_curve(state, ctx):
    """(x, y) built on raw Boltzmann weights, sorted by r / w: a reference.

    This is how curves were built before they moved to the unit axis; it
    overflows or underflows once the exponents leave about +-700.
    """
    w = np.exp(equilibrium_exponents(state.spec, ctx))
    order = np.argsort(-(state.r / w), kind="stable")
    return (np.concatenate(([0.0], np.cumsum(w[order]))),
            np.concatenate(([0.0], np.cumsum(state.r[order]))))


def test_unit_axis_curve_matches_linear_reference():
    rng = np.random.default_rng(37)
    for trial in range(200):
        ctx = tf.preset("entropy") if trial % 4 == 0 else random_context(rng)
        spec = random_spec(rng, int(rng.integers(1, 13)), ctx)
        state = random_state(rng, spec)
        curve = tf.build_curve(state, ctx)
        x, y = linear_curve(state, ctx)
        assert np.array_equal(curve.y, y)
        np.testing.assert_allclose(curve.x, x, rtol=1e-14, atol=0.0)
        assert curve.width == pytest.approx(x[-1], rel=1e-14)


def test_equilibrium_curve_lists_ties_in_index_order():
    rng = np.random.default_rng(41)
    for _ in range(40):
        ctx = random_context(rng)
        spec = random_spec(rng, int(rng.integers(2, 13)), ctx)
        curve = tf.build_curve(tf.gibbs_state(spec, ctx), ctx)
        assert np.array_equal(curve.source_order, np.arange(spec.dim))


def test_curve_survives_gauge_shift_of_800():
    ctx = tf.preset("helmholtz", beta=1.0)
    r = [0.7, 0.2, 0.1]
    base = tf.build_curve(tf.QuasiclassicalState(tf.SystemSpec(3, (("H", [0.0, 1.0, 2.0]),)), r), ctx)
    for shift in (800.0, -800.0):
        spec = tf.SystemSpec(3, (("H", [shift, shift + 1.0, shift + 2.0]),))
        curve = tf.build_curve(tf.QuasiclassicalState(spec, r), ctx)
        np.testing.assert_allclose(curve.u, base.u, rtol=1e-12, atol=0.0)
        assert np.array_equal(curve.y, base.y)
        assert curve.log_width == pytest.approx(base.log_width - shift, rel=1e-12)
        assert tf.dominates(curve, curve)
    with pytest.raises(OverflowError):
        curve.width  # Z = e^800 is beyond double range


def test_width_check_is_relative_below_one():
    # Widths near 1e-13 differ by far less than 1e-9 in absolute terms.
    ctx = tf.preset("helmholtz", beta=1.0)
    a = tf.build_curve(tf.QuasiclassicalState(tf.SystemSpec(2, (("H", [30.0, 31.0]),)),
                                              [0.5, 0.5]), ctx)
    b = tf.build_curve(tf.QuasiclassicalState(tf.SystemSpec(2, (("H", [29.0, 31.0]),)),
                                              [0.5, 0.5]), ctx)
    assert a.width < 1e-12 and b.width < 1e-12
    with pytest.raises(WidthMismatch):
        tf.compare(a, b)


# --- References: the curve build, the curve comparison and the shared-table
# decision as they were before each was cut to fewer numpy calls (a separate
# concatenate + cumsum per axis, a sorted union of breakpoints clipped at both
# ends, and one equilibrium and one curve build per side). The fast ones must
# return every bit these do.

def reference_curve_of(r, g, log_width=0.0):
    with np.errstate(over="ignore"):
        ratio = np.divide(r, g, out=np.full(r.size, np.inf), where=g > 0)
    order = np.argsort(-ratio, kind="stable")
    u = np.concatenate(([0.0], np.cumsum(g[order])))
    y = np.concatenate(([0.0], np.cumsum(r[order])))
    return LorenzCurve(u, y, order, log_width)


def reference_compare(a, b):
    grid = np.union1d(a.u, b.u)
    grid = np.clip(grid, 0.0, min(a.u[-1], b.u[-1]))
    margins = np.interp(grid, a.u, a.y) - np.interp(grid, b.u, b.y)
    worst = float(margins.min())
    return DominationResult(worst >= -DOMINATION_ATOL, worst, -NEAR_TIE_BAND <= worst < 0.0)


def reference_can_convert_on_a_shared_table(q):
    curves = [reference_curve_of(side.r, *_equilibrium(side.spec, q.ctx))
              for side in (q.source, q.target)]
    return reference_compare(*curves).dominates


def edge_case_pair(rng, trial):
    """A context, one operator table and two states on it, cycling through
    d = 1 to 12, zero r entries, g = 0 and subnormal g (beta dE of 705 to 800),
    tied ratios on degenerate levels and gauge shifts of +-800."""
    beta = float(rng.uniform(0.5, 2.0))
    ctx = tf.preset("helmholtz", beta=beta)
    d = trial % 12 + 1
    kind = trial // 12 % 4
    if kind == 1:  # degenerate levels; r proportional to g on some of them
        energies = rng.choice([-1.0, 0.0, 0.5], d)
    else:
        energies = rng.uniform(-2.0, 2.0, d)
    if kind == 2 and d > 1:  # g underflows to a subnormal or to 0
        energies[rng.integers(d)] += float(rng.uniform(705.0, 800.0)) / beta
    if kind == 3:
        energies += float(rng.choice([800.0, -800.0]))
    spec = tf.SystemSpec(d, (("H", energies),))
    g = _equilibrium(spec, ctx)[0]

    def draw():
        r = rng.dirichlet(np.full(d, float(rng.choice([0.3, 1.0, 3.0]))))
        if d > 1 and rng.random() < 0.3:
            r[rng.choice(d, size=int(rng.integers(1, d)), replace=False)] = 0.0
        if kind == 1 and rng.random() < 0.5:
            r = g * rng.choice([1.0, 2.0], d)
        return tf.QuasiclassicalState(spec, r / r.sum())

    return ctx, spec, draw(), draw()


def assert_same_curve(got, want):
    for name in ("u", "y", "source_order"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.log_width == want.log_width


def test_curves_and_comparisons_match_the_references_bit_for_bit():
    rng = np.random.default_rng(43)
    for trial in range(480):
        ctx, spec, source, target = edge_case_pair(rng, trial)
        g, log_z = _equilibrium(spec, ctx)
        curves = []
        for state in (source, target):
            got = curve_of(state.r, g, log_z)
            assert_same_curve(got, reference_curve_of(state.r, g, log_z))
            curves.append(got)
        pairs = [curves, curves[::-1]]
        # curves of unequal length on the unit axis, as smallest_epsilon compares them
        _, _, other, _ = edge_case_pair(rng, trial + 5)
        other_g = _equilibrium(other.spec, ctx)[0]
        pairs.append([curve_of(source.r, g), curve_of(other.r, other_g)])
        for a, b in pairs:
            got, want = compare(a, b), reference_compare(a, b)
            assert (got.dominates, got.near_tie) == (want.dominates, want.near_tie)
            assert repr(got.min_margin) == repr(want.min_margin)
        q = tf.ConversionQuery(source, target, ctx)
        assert tf.can_convert(q) is reference_can_convert_on_a_shared_table(q)
