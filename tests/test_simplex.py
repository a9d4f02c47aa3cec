import numpy as np
import pytest

import thermoflow as tf
from thermoflow import convert
from thermoflow.simplex import solve_standard_lp

from conftest import random_context, random_spec, random_state
from oracles import reference_solve


def test_known_optimum_with_slack():
    # max x + y s.t. x + y <= 1  ->  min -x - y with one slack
    A = np.array([[1.0, 1.0, 1.0]])
    b = np.array([1.0])
    c = np.array([-1.0, -1.0, 0.0])
    status, x, obj = reference_solve(A, b, c)
    assert status == "optimal"
    assert obj == pytest.approx(-1.0, abs=1e-9)
    np.testing.assert_allclose(A @ x, b, atol=1e-9)


def test_two_constraint_optimum():
    # min -3x - 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 (classic; opt -36)
    A = np.array([
        [1.0, 0.0, 1.0, 0.0, 0.0],
        [0.0, 2.0, 0.0, 1.0, 0.0],
        [3.0, 2.0, 0.0, 0.0, 1.0],
    ])
    b = np.array([4.0, 12.0, 18.0])
    c = np.array([-3.0, -5.0, 0.0, 0.0, 0.0])
    status, x, obj = reference_solve(A, b, c)
    assert status == "optimal"
    assert obj == pytest.approx(-36.0, abs=1e-9)
    np.testing.assert_allclose(x[:2], [2.0, 6.0], atol=1e-9)


def test_infeasible_detected():
    A = np.array([[1.0, 1.0], [1.0, 1.0]])
    b = np.array([1.0, 2.0])
    assert solve_standard_lp(A, b) is None


def test_unbounded_detected():
    # x1 - x2 = 1, minimize -x1: push x2 up forever
    A = np.array([[1.0, -1.0]])
    b = np.array([1.0])
    status, x, obj = reference_solve(A, b, np.array([-1.0, 0.0]))
    assert status == "unbounded"


def test_redundant_rows_are_dropped():
    A = np.array([[1.0, 1.0], [2.0, 2.0]])
    b = np.array([1.0, 2.0])
    np.testing.assert_allclose(A @ solve_standard_lp(A, b), b, atol=1e-9)
    status, x, obj = reference_solve(A, b, np.array([1.0, 0.0]))
    assert status == "optimal"
    assert obj == pytest.approx(0.0, abs=1e-9)
    np.testing.assert_allclose(A @ x, b, atol=1e-9)


def test_negative_rhs_rows_handled():
    # -x1 - x2 = -1 should behave like x1 + x2 = 1
    A = np.array([[-1.0, -1.0]])
    b = np.array([-1.0])
    np.testing.assert_allclose(A @ solve_standard_lp(A, b), b, atol=1e-9)
    status, x, obj = reference_solve(A, b, np.array([2.0, 1.0]))
    assert status == "optimal"
    assert obj == pytest.approx(1.0, abs=1e-9)


def test_random_feasible_instances():
    rng = np.random.default_rng(41)
    for _ in range(50):
        m, n = int(rng.integers(2, 6)), int(rng.integers(4, 10))
        A = rng.normal(size=(m, n))
        x0 = rng.uniform(0, 2, n)
        b = A @ x0
        c = rng.uniform(0, 1, n)  # nonnegative cost keeps the LP bounded
        point = solve_standard_lp(A, b)
        np.testing.assert_allclose(A @ point, b, atol=1e-8)
        assert np.all(point >= 0.0)
        status, x, obj = reference_solve(A, b, c)
        assert status == "optimal"
        np.testing.assert_allclose(A @ x, b, atol=1e-8)
        assert np.all(x >= -1e-12)
        assert obj <= c @ x0 + 1e-8


def assert_same_point(x, reference):
    """The phase-1 point against the reference's answer at zero cost: None
    where it says infeasible, otherwise its x bit for bit."""
    status, want, objective = reference
    assert status in ("optimal", "infeasible")
    assert (x is None) == (want is None)
    if want is not None:
        assert x.tobytes() == want.tobytes() and objective == 0.0


def reference_transport_lp(q):
    """The witness LP's rows built with np.tile and np.kron."""
    r, s = q.source.r, q.target.r
    g_src = tf.gibbs_state(q.source.spec, q.ctx).r
    g_tgt = tf.gibbs_state(q.target.spec, q.ctx).r
    eye = np.eye(s.size)
    A = np.vstack([np.tile(np.eye(r.size), s.size),
                   np.kron(eye, g_src.reshape(1, -1)),
                   np.kron(eye, r.reshape(1, -1))])
    return A, np.concatenate([np.ones(r.size), g_tgt, s])


def reference_oracle(q, x):
    """The oracle's answer from the LP solution x with an einsum lift across
    tables, then the witness and residual checks."""
    r, s = q.source.r, q.target.r
    g_src = tf.gibbs_state(q.source.spec, q.ctx).r
    g_tgt = tf.gibbs_state(q.target.spec, q.ctx).r
    matrix = np.clip(x.reshape(s.size, r.size), 0.0, None)
    if not convert._same_table(q.source.spec, q.target.spec):
        matrix = np.einsum("i,jk,l->ijkl", g_src, matrix, np.ones(s.size))
        matrix = matrix.reshape(r.size * s.size, -1)
        r, s = np.kron(r, g_tgt), np.kron(g_src, s)
        g_src = g_tgt = np.kron(g_src, g_tgt)
    witness = tf.WitnessMatrix(matrix)
    for got, want in ((matrix @ g_src, g_tgt), (matrix @ r, s)):
        if np.abs(got - want).max() > 1e-9:
            raise ArithmeticError("feasible witness violates its defining equations")
    return witness


def outcome(oracle, *args):
    """Witness bytes, None, or the error an oracle raises, in one comparable value."""
    try:
        witness = oracle(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    return None if witness is None else witness.entries.tobytes()


def assert_oracle_matches_reference(q, monkeypatch):
    """feasibility_oracle against the reference rows, pivots, lift and checks, bit
    for bit; returns the oracle's outcome."""
    solved = []

    def spy(A, b):
        out = solve_standard_lp(A, b)
        solved.append((A, b, out))
        return out

    monkeypatch.setattr(convert, "solve_standard_lp", spy)
    got = outcome(tf.feasibility_oracle, q)
    (A, b, out), = solved
    A_ref, b_ref = reference_transport_lp(q)
    assert np.array_equal(A, A_ref) and b.tobytes() == b_ref.tobytes()
    reference = reference_solve(A_ref, b_ref, np.zeros(A_ref.shape[1]))
    assert_same_point(out, reference)
    want = None if reference[0] == "infeasible" else outcome(reference_oracle, q, reference[1])
    assert got == want
    return got


def coupling_map(rng, g_src, g_tgt):
    """Random d_T x d_S stochastic M with M g_src = g_tgt: a mixture of two
    greedy couplings of (g_tgt, g_src), each filling targets and sources in
    random orders, with each column divided by its source mass."""
    pi = np.zeros((g_tgt.size, g_src.size))
    for weight in rng.dirichlet(np.ones(2)):
        left_t, left_s = g_tgt.copy(), g_src.copy()
        for i in rng.permutation(g_tgt.size):
            for j in rng.permutation(g_src.size):
                mass = min(left_t[i], left_s[j])
                pi[i, j] += weight * mass
                left_t[i] -= mass
                left_s[j] -= mass
    return pi / pi.sum(axis=0)


def transport_query(rng, trial, max_dim=12):
    """Same-table (even trials) or cross-table query up to max_dim per side:
    reachable by construction, a random target, or a random target mixed
    halfway to equilibrium. Vectors are mixed with 10 % uniform, as entries
    near 1e-6 push the dense simplex past the witness tolerance."""
    ctx = random_context(rng)
    d_src, d_tgt = (int(v) for v in rng.integers(1, max_dim + 1, size=2))
    spec_src = random_spec(rng, d_src, ctx)
    spec_tgt = spec_src if trial % 2 == 0 else random_spec(rng, d_tgt, ctx)
    g_src, g_tgt = (tf.gibbs_state(spec, ctx).r for spec in (spec_src, spec_tgt))

    def draw(spec):
        return 0.9 * rng.dirichlet(np.ones(spec.dim)) + 0.1 / spec.dim

    r = draw(spec_src)
    kind = trial // 2 % 3
    if kind == 0:
        s = coupling_map(rng, g_src, g_tgt) @ r
    else:
        s = draw(spec_tgt)
        if kind == 2:
            s = 0.5 * s + 0.5 * g_tgt
    return tf.ConversionQuery(tf.QuasiclassicalState(spec_src, r),
                              tf.QuasiclassicalState(spec_tgt, s), ctx)


def test_witness_lp_matches_reference_on_500_transport_queries(monkeypatch):
    rng = np.random.default_rng(1009)
    outcomes = [assert_oracle_matches_reference(transport_query(rng, trial), monkeypatch)
                for trial in range(500)]
    assert 150 < sum(isinstance(o, bytes) for o in outcomes) < 450
    assert sum(o is None for o in outcomes) > 50


def test_witness_lp_matches_reference_on_degenerate_queries(monkeypatch):
    """Identity conversions, equilibrium sources and equilibrium targets. The
    dense simplex can still return an infeasible point here (an entry of 1.35
    on one identity conversion at d = 10); the oracle must then reject it
    exactly as the reference does."""
    rng = np.random.default_rng(1013)
    witnesses = 0
    for trial in range(60):
        ctx = random_context(rng)
        d_src, d_tgt = (int(v) for v in rng.integers(1, 13, size=2))
        spec_src = random_spec(rng, d_src, ctx)
        spec_tgt = spec_src if trial % 2 == 0 else random_spec(rng, d_tgt, ctx)
        g_src, g_tgt = (tf.gibbs_state(spec, ctx) for spec in (spec_src, spec_tgt))
        source = random_state(rng, spec_src)
        target = random_state(rng, spec_tgt)
        for q in (tf.ConversionQuery(source, source, ctx), tf.ConversionQuery(g_src, g_tgt, ctx),
                  tf.ConversionQuery(source, g_tgt, ctx), tf.ConversionQuery(g_src, target, ctx)):
            got = assert_oracle_matches_reference(q, monkeypatch)
            if got is None or isinstance(got, bytes):
                assert (got is not None) == tf.can_convert(q)
                witnesses += got is not None
    assert witnesses > 150


def test_random_feasible_family_matches_reference():
    """The phase-1 point matches the reference at zero cost; with a cost, the
    reference's phase 2 ends no worse than its start and the seed point."""
    for seed in (41, 42, 43, 44):
        rng = np.random.default_rng(seed)
        for _ in range(50):
            m, n = int(rng.integers(2, 6)), int(rng.integers(4, 10))
            A = rng.normal(size=(m, n))
            x0 = rng.uniform(0, 2, n)
            b = A @ x0
            start = reference_solve(A, b, np.zeros(n))
            assert_same_point(solve_standard_lp(A, b), start)
            for c in (rng.uniform(0, 1, n), rng.normal(size=n)):
                status, x, obj = reference_solve(A, b, c)
                if status == "unbounded":
                    assert c.min() < 0.0
                    continue
                assert status == "optimal"
                np.testing.assert_allclose(A @ x, b, atol=1e-8)
                assert obj <= min(c @ x0, c @ start[1]) + 1e-8


def test_small_cases_match_reference():
    cases = [
        ([[1.0, 1.0, 1.0]], [1.0], [-1.0, -1.0, 0.0], ("optimal", -1.0)),
        ([[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0], [0.0, 0.0], ("infeasible", None)),
        ([[1.0, -1.0]], [1.0], [-1.0, 0.0], ("unbounded", None)),
        ([[1.0, 1.0], [2.0, 2.0]], [1.0, 2.0], [1.0, 0.0], ("optimal", 0.0)),
        ([[-1.0, -1.0]], [-1.0], [2.0, 1.0], ("optimal", 1.0)),
    ]
    for A, b, c, (status, objective) in cases:
        assert_same_point(solve_standard_lp(A, b), reference_solve(A, b, np.zeros(len(c))))
        got = reference_solve(A, b, c)
        assert got[0] == status and got[2] == pytest.approx(objective, abs=1e-12)


def test_iteration_cap_still_raises():
    # Two artificial variables leave the basis one pivot at a time, and a
    # third pass finds no improving column.
    A, b, c = np.eye(2), np.array([1.0, 1.0]), np.zeros(2)
    for max_iter in (1, 2):
        with pytest.raises(ArithmeticError, match="iteration cap"):
            solve_standard_lp(A, b, max_iter=max_iter)
        with pytest.raises(ArithmeticError, match="iteration cap"):
            reference_solve(A, b, c, max_iter=max_iter)
    reference = reference_solve(A, b, c, max_iter=3)
    assert reference[0] == "optimal" and reference[2] == 0.0
    assert reference[1].tobytes() == np.ones(2).tobytes()
    assert_same_point(solve_standard_lp(A, b, max_iter=3), reference)
