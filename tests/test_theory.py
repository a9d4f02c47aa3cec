import itertools
import math

import numpy as np
import pytest

import thermoflow as tf
from thermoflow import theory
from thermoflow.errors import (
    DimensionMismatch,
    IntensivesInEntropyTheory,
    LabelMismatch,
    MissingParameter,
    NonPositiveBeta,
    NormalizationError,
    TooLarge,
)

from conftest import random_context, random_spec, random_state


def test_entropy_context_has_no_parameters():
    ctx = tf.make_context("entropy")
    assert ctx.beta is None
    assert ctx.intensive == ()
    assert ctx.entropy_intensives().size == 0
    assert ctx.n_state_operators == 0


def test_helmholtz_derived_intensive_is_beta():
    ctx = tf.make_context("energy", beta=1.0)
    assert ctx.entropy_intensives().tolist() == [1.0]


def test_grand_derived_intensive():
    # F_1 = -beta * mu = -2 * 0.5
    ctx = tf.make_context("energy", beta=2.0, intensive=[("mu", 0.5)])
    np.testing.assert_allclose(ctx.entropy_intensives(), [2.0, -1.0], rtol=0, atol=0)


def test_context_rejects_bad_beta():
    for bad in (0.0, -1.0, float("inf"), float("nan"), None):
        with pytest.raises(NonPositiveBeta):
            tf.make_context("energy", beta=bad)


def test_entropy_context_rejects_bath_parameters():
    with pytest.raises(IntensivesInEntropyTheory):
        tf.make_context("entropy", intensive=[("mu", 1.0)])
    with pytest.raises(IntensivesInEntropyTheory):
        tf.make_context("entropy", beta=1.0)


def test_preset_helmholtz():
    ctx = tf.preset("helmholtz", beta=1.0)
    assert ctx.intensive == ()
    assert ctx.beta == 1.0


def test_preset_grand_mu_zero_is_canonical():
    rng = np.random.default_rng(7)
    energies = rng.uniform(-1, 1, 4)
    grand = tf.preset("grand_potential", beta=1.0, mu=0.0)
    helm = tf.preset("helmholtz", beta=1.0)
    spec_grand = tf.SystemSpec(4, (("H", energies), ("N", rng.uniform(0, 3, 4))))
    spec_helm = tf.SystemSpec(4, (("H", energies),))
    np.testing.assert_allclose(
        tf.gibbs_state(spec_grand, grand).r,
        tf.gibbs_state(spec_helm, helm).r,
        atol=1e-12,
    )


def test_preset_gibbs_pressure_sign():
    ctx = tf.preset("gibbs", beta=1.0, pressure=2.0)
    assert ctx.intensive == (("-p", -2.0),)


def test_preset_magnetic_components():
    ctx = tf.preset("magnetic", beta=1.0, field=[0.1, 0.2, 0.3])
    assert [v for _, v in ctx.intensive] == [0.1, 0.2, 0.3]
    single = tf.preset("magnetic", beta=1.0, field=0.7)
    assert single.intensive == (("B", 0.7),)


def test_preset_grand_mu_by_label():
    ctx = tf.preset("grand_potential", beta=1, mu={"e": 0.2, "h": -0.1})
    assert ctx.intensive == (("mu_e", 0.2), ("mu_h", -0.1))


def test_preset_missing_parameter():
    with pytest.raises(MissingParameter):
        tf.preset("helmholtz")
    with pytest.raises(MissingParameter):
        tf.preset("grand_potential", beta=1.0)
    with pytest.raises(ValueError):
        tf.preset("unknown_kind")


def test_gravitational_potential_shifts_mu():
    assert tf.gravitational_chemical_potential(0.5, 2.0, 9.8, 3.0) == 0.5 + 2.0 * 9.8 * 3.0


def test_gibbs_entropy_theory_is_uniform():
    state = tf.gibbs_state(tf.SystemSpec(3), tf.preset("entropy"))
    np.testing.assert_allclose(state.r, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_gibbs_two_level():
    # Z = 1 + 1/2
    ctx = tf.preset("helmholtz", beta=1.0)
    spec = tf.SystemSpec(2, (("H", [0.0, math.log(2)]),))
    np.testing.assert_allclose(tf.gibbs_state(spec, ctx).r, [2 / 3, 1 / 3], atol=1e-14)


def test_gibbs_degenerate_spectrum_is_uniform():
    ctx = tf.preset("helmholtz", beta=3.0)
    spec = tf.SystemSpec(2, (("H", [0.0, 0.0]),))
    np.testing.assert_allclose(tf.gibbs_state(spec, ctx).r, [0.5, 0.5], atol=1e-15)


def test_partition_function_values():
    assert tf.partition_function(tf.SystemSpec(5), tf.preset("entropy")) == pytest.approx(5.0, abs=1e-12)
    ctx = tf.preset("helmholtz", beta=1.0)
    spec = tf.SystemSpec(2, (("H", [0.0, math.log(2)]),))
    assert tf.partition_function(spec, ctx) == pytest.approx(1.5, abs=1e-12)


def test_log_partition_survives_huge_shift():
    ctx = tf.preset("helmholtz", beta=1.0)
    spec = tf.SystemSpec(2, (("H", [1000.0, 1000.0 + math.log(2)]),))
    log_z = tf.log_partition_function(spec, ctx)
    assert math.isfinite(log_z)
    assert log_z == pytest.approx(math.log(1.5) - 1000.0, abs=1e-9)


def test_gibbs_invariant_under_spectrum_shift():
    rng = np.random.default_rng(11)
    for _ in range(20):
        ctx = random_context(rng)
        spec = random_spec(rng, 5, ctx)
        which = rng.integers(len(spec.operators))
        shift = float(rng.uniform(-3, 3))
        ops = list(spec.operators)
        label, eig = ops[which]
        ops[which] = (label, eig + shift)
        shifted = tf.SystemSpec(5, tuple(ops))

        np.testing.assert_allclose(
            tf.gibbs_state(spec, ctx).r, tf.gibbs_state(shifted, ctx).r, atol=1e-12
        )
        coeff = ctx.entropy_intensives()[which]
        delta = tf.log_partition_function(shifted, ctx) - tf.log_partition_function(spec, ctx)
        assert delta == pytest.approx(-coeff * shift, abs=1e-10)


def test_gibbs_positive_and_normalized():
    rng = np.random.default_rng(5)
    for _ in range(20):
        ctx = random_context(rng)
        spec = random_spec(rng, int(rng.integers(2, 7)), ctx)
        g = tf.gibbs_state(spec, ctx).r
        assert np.all(g > 0)
        assert abs(g.sum() - 1.0) <= 1e-12


def test_gibbs_wrong_operator_count():
    ctx = tf.preset("grand_potential", beta=1.0, mu=0.5)
    spec = tf.SystemSpec(2, (("H", [0.0, 1.0]),))
    with pytest.raises(DimensionMismatch):
        tf.gibbs_state(spec, ctx)


def test_exponent_span_beyond_double_range_raises_overflow():
    ctx = tf.preset("helmholtz", beta=1.0)
    spec = tf.SystemSpec(3, (("H", [0.0, 1e308, -1e308]),))
    for call in (tf.gibbs_state, tf.log_partition_function):
        with pytest.raises(OverflowError, match="exponents span"):
            call(spec, ctx)


def test_exponents_that_overflow_raise_without_a_warning():
    # RuntimeWarning is an error under tier-1, so a warning would fail here
    cases = ((tf.preset("helmholtz", beta=2.0), tf.SystemSpec(2, (("H", [1e308, 1e308]),))),
             (tf.preset("grand_potential", beta=2.0, mu=1.0),
              tf.SystemSpec(2, (("H", [1e308, 0.0]), ("N", [1e308, 0.0])))))
    for ctx, spec in cases:
        for call in (tf.gibbs_state, tf.log_partition_function):
            with pytest.raises(OverflowError, match="exponents span"):
                call(spec, ctx)


def test_compose_with_trivial_system_is_identity():
    rng = np.random.default_rng(3)
    ctx = tf.preset("helmholtz", beta=1.0)
    spec = random_spec(rng, 3, ctx)
    state = random_state(rng, spec)
    trivial = tf.QuasiclassicalState(tf.SystemSpec(1, (("H", [0.0]),)), [1.0])
    joint = tf.compose(state, trivial)
    np.testing.assert_allclose(joint.r, state.r, atol=1e-15)
    np.testing.assert_allclose(joint.spec.operators[0][1], spec.operators[0][1], atol=0)


def test_compose_of_gibbs_states_is_gibbs_of_composition():
    rng = np.random.default_rng(13)
    for _ in range(10):
        ctx = random_context(rng)
        spec_a = random_spec(rng, 3, ctx)
        spec_b = random_spec(rng, 4, ctx, labels=spec_a.labels)
        joint = tf.compose(tf.gibbs_state(spec_a, ctx), tf.gibbs_state(spec_b, ctx))
        direct = tf.gibbs_state(tf.compose_specs(spec_a, spec_b), ctx)
        np.testing.assert_allclose(joint.r, direct.r, atol=1e-12)


def test_compose_row_major_layout():
    ctx = tf.preset("helmholtz", beta=1.0)
    a = tf.QuasiclassicalState(tf.SystemSpec(2, (("H", [0.0, 1.0]),)), [0.7, 0.3])
    b = tf.QuasiclassicalState(tf.SystemSpec(2, (("H", [10.0, 20.0]),)), [0.6, 0.4])
    joint = tf.compose(a, b)
    assert joint.dim == 4
    # index (alpha, beta) -> alpha * d_b + beta
    np.testing.assert_allclose(joint.r, [0.42, 0.28, 0.18, 0.12], atol=1e-15)
    np.testing.assert_allclose(joint.spec.operators[0][1], [10.0, 20.0, 11.0, 21.0], atol=0)


def test_compose_merges_nonstate_blocks():
    spec_a = tf.SystemSpec(2, (("H", [0.0, 1.0]),), (("N", [3.0, 3.0]),))
    spec_b = tf.SystemSpec(2, (("H", [0.0, 2.0]),))
    a = tf.QuasiclassicalState(spec_a, [0.5, 0.5])
    b = tf.QuasiclassicalState(spec_b, [1.0, 0.0])
    joint = tf.compose(a, b)
    assert joint.spec.nonstate_labels == ("N",)
    # the side without the block contributes zero eigenvalues
    np.testing.assert_allclose(joint.spec.nonstate_blocks[0][1], [3.0, 3.0, 3.0, 3.0])
    blocks = [eig for _, eig in joint.spec.nonstate_blocks]
    assert theory.support_in_one_eigensubspace(joint.r, blocks)


def test_compose_label_mismatch():
    a = tf.QuasiclassicalState(tf.SystemSpec(2, (("H", [0.0, 1.0]),)), [0.5, 0.5])
    b = tf.QuasiclassicalState(tf.SystemSpec(2, (("E", [0.0, 1.0]),)), [0.5, 0.5])
    with pytest.raises(LabelMismatch):
        tf.compose(a, b)


def test_state_normalization_window():
    spec = tf.SystemSpec(2)
    ok = tf.QuasiclassicalState(spec, [0.5, 0.5 + 1e-10])
    assert abs(ok.r.sum() - 1.0) <= 1e-12
    with pytest.raises(NormalizationError):
        tf.QuasiclassicalState(spec, [0.5, 0.51])
    with pytest.raises(NormalizationError):
        tf.QuasiclassicalState(spec, [1.5, -0.5])


def test_state_rejects_non_finite_probabilities():
    spec = tf.SystemSpec(3)
    for bad in ([math.nan, 0.5, 0.5], [math.inf, 0.0, 0.0], [-math.inf, 0.5, 0.5]):
        with pytest.raises(NormalizationError):
            tf.QuasiclassicalState(spec, bad)


def test_tensor_power_single_copy_is_identity():
    ctx = tf.preset("helmholtz", beta=1.0)
    spec = tf.SystemSpec(3, (("H", [0.0, 0.5, 1.0]),))
    state = tf.QuasiclassicalState(spec, [0.5, 0.3, 0.2])
    cs = tf.tensor_power_compressed(state, ctx, 1)
    assert cs.n_classes == 3
    np.testing.assert_allclose(np.exp(cs.log_mult), np.ones(3), atol=1e-12)
    np.testing.assert_allclose(np.sort(np.exp(cs.log_r)), np.sort(state.r), atol=1e-12)


def test_tensor_power_binomial_multiplicities():
    ctx = tf.preset("entropy")
    state = tf.QuasiclassicalState(tf.SystemSpec(2), [0.5, 0.5])
    cs = tf.tensor_power_compressed(state, ctx, 3)
    assert cs.n_classes == 4
    np.testing.assert_allclose(np.sort(np.exp(cs.log_mult)), [1, 1, 3, 3], atol=1e-9)
    np.testing.assert_allclose(np.exp(cs.log_r), np.full(4, 1 / 8), atol=1e-12)


def test_tensor_power_conserves_mass():
    rng = np.random.default_rng(23)
    ctx = tf.preset("helmholtz", beta=1.3)
    spec = random_spec(rng, 3, ctx)
    state = random_state(rng, spec)
    cs = tf.tensor_power_compressed(state, ctx, 10)
    assert np.exp(cs.log_mult + cs.log_r).sum() == pytest.approx(1.0, abs=1e-9)
    assert np.exp(cs.log_mult + cs.log_g).sum() == pytest.approx(1.0, abs=1e-9)


def test_tensor_power_cap():
    ctx = tf.preset("entropy")
    state = tf.QuasiclassicalState(tf.SystemSpec(4), [0.25] * 4)
    # 167,668,501 classes, refused before any allocation
    with pytest.raises(TooLarge, match="167668501 type classes exceed the cap of 1000000"):
        tf.tensor_power_compressed(state, ctx, 1000)
    with pytest.raises(ValueError, match="n must be at least 1"):
        tf.tensor_power_compressed(state, ctx, 0)


def reference_compositions(n, d):
    """The divider enumeration the numpy construction replaced."""
    if d == 1:
        return np.array([[n]], dtype=np.int64)
    dividers = np.array(
        list(itertools.combinations(range(n + d - 1), d - 1)), dtype=np.int64
    )
    first = dividers[:, :1]
    inner = np.diff(dividers, axis=1) - 1
    last = n + d - 2 - dividers[:, -1:]
    return np.hstack([first, inner, last])


def compositions(n, d):
    """The rows k of ``_type_classes``, read column by column through
    identity rows: e_i . k = k_i."""
    eye = np.eye(d)
    return np.column_stack([theory._type_classes(n, eye[i], eye[i])[1] for i in range(d)])


def test_compositions_match_divider_enumeration():
    for d in range(1, 6):
        for n in (1, 2, 3, 7, 16, 30):
            got = compositions(n, d)
            expected = reference_compositions(n, d)
            # same rows in the same order: downstream tie-breaking relies on it
            np.testing.assert_array_equal(got, expected)
            assert got.shape[0] == math.comb(n + d - 1, d - 1)


def left_to_right(k, log_base):
    """k . log_base per row of k, added column by column from the left."""
    out = np.zeros(k.shape[0])
    for column, value in zip(k.T, log_base):
        out += column * value
    return out


def reference_tensor_power(state, ctx, n):
    """The integer-matrix builder the level-by-level fold replaced:
    column_stack compositions over all d levels, of which the rows that
    count no level of r = 0 are kept on the columns of r > 0, then a gathered
    log-factorial row sum and left-to-right column sums per vector."""
    d = state.dim
    rows = np.empty((1, 0), dtype=np.int64)
    rest = np.array([n], dtype=np.int64)
    for _ in range(d - 1):
        counts = rest + 1
        starts = np.repeat(np.cumsum(counts) - counts, counts)
        value = np.arange(starts.size, dtype=np.int64) - starts
        rows = np.column_stack([np.repeat(rows, counts, axis=0), value])
        rest = np.repeat(rest, counts) - value
    k = np.column_stack([rows, rest])
    live = state.r > 0.0
    k = k[(k[:, ~live] == 0).all(axis=1)][:, live]
    logfact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, n + 1)))))
    return tf.CompressedState(
        n=n,
        log_mult=logfact[n] - logfact[k].sum(axis=1),
        log_r=left_to_right(k, np.log(state.r[live])),
        log_g=left_to_right(k, theory._log_equilibrium(state.spec, ctx)[live]),
    )


def power_cases(rng):
    """States over d = 1 to 7 in entropy, helmholtz and grand_potential
    contexts, a third with a zero entry in r."""
    for d in range(1, 8):
        for kind in ("entropy", "helmholtz", "grand_potential"):
            ctx = tf.preset("entropy") if kind == "entropy" else random_context(rng, kind)
            r = rng.dirichlet(np.ones(d))
            if d > 1 and rng.random() < 1 / 3:
                r[rng.integers(d)] = 0.0
                r /= r.sum()
            yield tf.QuasiclassicalState(random_spec(rng, d, ctx), r), ctx


def assert_same_power(got, want):
    assert got.n == want.n
    for field in ("log_mult", "log_r", "log_g"):
        np.testing.assert_array_equal(getattr(got, field), getattr(want, field))


def test_tensor_power_matches_integer_reference_bit_for_bit():
    rng = np.random.default_rng(811)
    for state, ctx in power_cases(rng):
        for n in range(1, 31 if state.dim <= 5 else 9):
            want = reference_tensor_power(state, ctx, n)
            assert_same_power(tf.tensor_power_compressed(state, ctx, n), want)


def test_tensor_power_matches_integer_reference_near_the_cap():
    rng = np.random.default_rng(812)
    for d, n in ((3, 1400), (4, 175), (5, 62)):
        for kind in ("helmholtz", "grand_potential"):
            ctx = random_context(rng, kind)
            r = rng.dirichlet(np.ones(d))
            if kind == "grand_potential":
                r[0] = 0.0
                r /= r.sum()
            state = tf.QuasiclassicalState(random_spec(rng, d, ctx), r)
            assert_same_power(tf.tensor_power_compressed(state, ctx, n),
                              reference_tensor_power(state, ctx, n))


def test_tensor_power_matches_integer_reference_with_subnormal_g():
    ctx = tf.preset("helmholtz", beta=1.0)
    spec = tf.SystemSpec(2, (("H", [0.0, 800.0]),))
    assert tf.gibbs_state(spec, ctx).r[1] < np.finfo(float).tiny
    for r in ([0.6, 0.4], [1.0, 0.0], [0.0, 1.0]):
        state = tf.QuasiclassicalState(spec, r)
        for n in (1, 2, 10, 300):
            want = reference_tensor_power(state, ctx, n)
            assert np.all(np.isfinite(want.log_g))
            assert_same_power(tf.tensor_power_compressed(state, ctx, n), want)


def test_tensor_power_rows_of_eight_or_more_columns_agree_to_rounding():
    # numpy sums a row of 8 or more terms pairwise, the expansion left to
    # right, so log multinomials may differ in the last bits there
    rng = np.random.default_rng(813)
    for d, n in ((8, 12), (10, 9)):
        ctx = random_context(rng, "helmholtz")
        state = tf.QuasiclassicalState(random_spec(rng, d, ctx), rng.dirichlet(np.ones(d)))
        got = tf.tensor_power_compressed(state, ctx, n)
        want = reference_tensor_power(state, ctx, n)
        np.testing.assert_allclose(got.log_mult, want.log_mult, rtol=1e-14, atol=1e-13)
        np.testing.assert_array_equal(got.log_r, want.log_r)
        np.testing.assert_array_equal(got.log_g, want.log_g)


def test_class_logs_are_left_to_right_python_sums():
    # log r and log g of a class are what a Python loop over the outcomes
    # gives, k_i ln r_i added in outcome order, whatever BLAS the CPU runs
    rng = np.random.default_rng(815)
    for d, n in ((3, 40), (5, 9), (9, 4)):
        ctx = random_context(rng, "grand_potential")
        state = tf.QuasiclassicalState(random_spec(rng, d, ctx), rng.dirichlet(np.ones(d)))
        power = tf.tensor_power_compressed(state, ctx, n)
        # the per-outcome logs the power starts from
        logs = (np.log(state.r).tolist(), theory._log_equilibrium(state.spec, ctx).tolist())
        k = reference_compositions(n, d)
        for row in rng.choice(len(k), 25, replace=False):
            for got, per_outcome in zip((power.log_r[row], power.log_g[row]), logs):
                total = 0.0
                for count, value in zip(k[row].tolist(), per_outcome):
                    total += count * value
                assert got == total


def test_one_level_power_builds_no_log_factorial_table():
    import tracemalloc

    ctx = tf.preset("helmholtz", beta=1.3)
    state = tf.QuasiclassicalState(tf.SystemSpec(1, (("H", [0.7]),)), [1.0])
    for n in (1, 2, 7, 30, 1000, 123456):
        assert_same_power(tf.tensor_power_compressed(state, ctx, n),
                          reference_tensor_power(state, ctx, n))
    tracemalloc.start()
    try:
        power = tf.tensor_power_compressed(state, ctx, 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert power.n_classes == 1 and power.log_mult.tolist() == [0.0]
    assert peak < 1_000_000


def test_many_copy_results_match_reference_built_powers(monkeypatch):
    rng = np.random.default_rng(814)
    cases = []
    for d, n in ((1, 7), (2, 300), (3, 40), (4, 175), (5, 18)):
        ctx = random_context(rng)
        r = rng.dirichlet(np.ones(d))
        if d == 3:
            r[1] = 0.0
            r /= r.sum()
        cases.append((tf.QuasiclassicalState(random_spec(rng, d, ctx), r), ctx, n,
                      float(rng.uniform(0.02, 0.3))))

    def results():
        return [(tf.finite_n_gap(state, ctx, eps, n),
                 tf.aep_sweep(state, ctx, eps, [1, n // 2 + 1, n]))
                for state, ctx, n, eps in cases]

    fast = results()
    monkeypatch.setattr("thermoflow.asymptotics.tensor_power_compressed",
                        reference_tensor_power)
    assert results() == fast


def test_fixed_eigensubspace_cases():
    def fixed(r, blocks):
        return theory.support_in_one_eigensubspace(np.array(r), [np.array(b) for b in blocks])

    assert fixed([1.0, 0.0], [[5.0, 7.0]])
    assert not fixed([0.5, 0.5], [[5.0, 7.0]])
    assert fixed([0.5, 0.5], [[5.0, 5.0]])
    # no non-state blocks: vacuously true
    assert fixed([0.5, 0.5], [])


def test_equilibrium_coefficients_are_built_once_and_read_only():
    ctx = tf.preset("grand_potential", beta=2.0, mu=[0.5, -0.25])
    spec = tf.SystemSpec(3, (("H", [0.0, 1.0, 2.0]), ("N1", [1.0, 0.0, 2.0]),
                             ("N2", [0.0, 3.0, 1.0])))
    for built, fresh in ((ctx.entropy_intensives(), [2.0, -1.0, 0.5]),
                         (spec.operator_matrix(), [eig for _, eig in spec.operators])):
        np.testing.assert_array_equal(built, fresh)
        assert not built.flags.writeable
    assert ctx.entropy_intensives() is ctx.entropy_intensives()
    assert spec.operator_matrix() is spec.operator_matrix()
    assert ctx == tf.preset("grand_potential", beta=2.0, mu=[0.5, -0.25])
    assert tf.preset("entropy").entropy_intensives().size == 0


def test_log_g_forms_the_exponents_once(monkeypatch):
    ctx = tf.preset("grand_potential", beta=1.5, mu=0.3)
    spec = tf.SystemSpec(3, (("H", [0.0, 1.0, 900.0]), ("N", [1.0, 0.0, 2.0])))
    state = tf.QuasiclassicalState(spec, [0.5, 0.3, 0.2])
    calls = []
    formed = theory.equilibrium_exponents
    monkeypatch.setattr(theory, "equilibrium_exponents",
                        lambda *args: calls.append(1) or formed(*args))
    for run in (lambda: tf.free_energy_rate(state, ctx),
                lambda: tf.tensor_power_compressed(state, ctx, 4)):
        calls.clear()
        run()
        assert len(calls) == 1
