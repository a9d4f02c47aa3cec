"""Single-shot convertibility: curve domination plus an LP witness oracle.

The production path decides the quasiorder geometrically, by comparing
rescaled Lorenz curves (O(d log d)). The feasibility oracle answers the
same question by searching directly for a d_T x d_S stochastic matrix M
with M g_S = g_T and M r = s (relative majorization of (r, g_S) over
(s, g_T)): an LP in d_S*d_T variables that lives behind a size cap and
exists to cross-check the curves, not to replace them. Across tables
the witness is lifted to the composed system the curves compare on.

The least trace distance from the target to a free image of the source is
eps* = max(0, max_u [L_s(u) - L_r(u)]) on the unit axis. Data processing
bounds it below: any image s' = M r has L_s' <= L_r, and the optimal test
q for s at u gives L_s(u) - L_s'(u) <= (s - s').q <= (1/2)|s - s'|_1. The
flattest state that close to s is an image (Renes 2016; Horodecki et al. 2018).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContextMismatch, TooLarge
from .lorenz import build_curve, compare, curve_of, dominates
from .simplex import solve_standard_lp
from .theory import QuasiclassicalState, TheoryContext, _equilibrium, compose, gibbs_state

WITNESS_ATOL = 1e-9
# Per-side dimension cap for the simplex-based feasibility oracle.
ORACLE_DIM_CAP = 12


@dataclass(frozen=True)
class ConversionQuery:
    """A source state, a target state, and the theory they live in."""

    source: QuasiclassicalState
    target: QuasiclassicalState
    ctx: TheoryContext


@dataclass(frozen=True, eq=False)
class WitnessMatrix:
    """Column-stochastic matrix certifying a conversion.

    Acts on probability column vectors, so each column sums to one; the
    defining properties M g = g and M r = s are checked by the oracle
    that returns the witness.
    """

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        if m.ndim != 2:
            raise ValueError("witness must be a matrix")
        if m.min() < -WITNESS_ATOL or m.max() > 1.0 + WITNESS_ATOL:
            raise ValueError("witness entries leave [0, 1]")
        colsums = m.sum(axis=0)
        if np.abs(colsums - 1.0).max() > WITNESS_ATOL:
            raise ValueError("witness columns must sum to 1")
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)

    @property
    def shape(self):
        return self.entries.shape


def _check_query(q: ConversionQuery):
    expected = q.ctx.n_state_operators
    for name, state in (("source", q.source), ("target", q.target)):
        if len(state.spec.operators) != expected:
            raise ContextMismatch(
                f"{name} has {len(state.spec.operators)} state operators, "
                f"context expects {expected}"
            )
    if q.source.spec.labels != q.target.spec.labels:
        raise ContextMismatch(
            f"operator labels differ: {q.source.spec.labels} vs {q.target.spec.labels}"
        )


def _same_table(a, b) -> bool:
    if a.dim != b.dim:
        return False
    return all(
        np.array_equal(ea, eb)
        for (_, ea), (_, eb) in zip(a.operators, b.operators)
    )


def can_convert(q: ConversionQuery) -> bool:
    """Whether some equilibrating operation maps source to target.

    States over the same operator table are compared directly. Otherwise
    each side is padded with the other side's equilibrium state, which
    puts both on one joint table without changing the answer.
    """
    _check_query(q)
    if _same_table(q.source.spec, q.target.spec):
        left, right = q.source, q.target
    else:
        left = compose(q.source, gibbs_state(q.target.spec, q.ctx))
        right = compose(gibbs_state(q.source.spec, q.ctx), q.target)
    return dominates(build_curve(left, q.ctx), build_curve(right, q.ctx))


def feasibility_oracle(q: ConversionQuery):
    """Witness matrix for the conversion, or None when infeasible.

    Solves {M >= 0, columns sum to 1, M g_S = g_T, M r = s} with the
    dense phase-1 simplex over the d_T*d_S entries of M (row-major), and
    must agree with ``can_convert`` on every instance. Over one table the
    witness is M itself. Across tables M is lifted to the composed witness
    W[(i, j), (k, l)] = g_S[i] M[j, k], i.e. x -> g_S (x) M(tr_T x),
    which fixes g_S (x) g_T and maps r (x) g_T to g_S (x) s.
    """
    _check_query(q)
    if q.source.dim > ORACLE_DIM_CAP or q.target.dim > ORACLE_DIM_CAP:
        raise TooLarge(f"oracle capped at dimension {ORACLE_DIM_CAP} per side, "
                       f"got {q.source.dim} and {q.target.dim}")
    r, s = q.source.r, q.target.r
    g_src, g_tgt = (_equilibrium(side.spec, q.ctx)[0] for side in (q.source, q.target))
    # Rows sum_j m[j, k] = 1, then sum_k g_S[k] m[j, k] = g_T[j] and sum_k r[k] m[j, k]
    # = s[j], whose row j holds its vector in columns j*d_S to j*d_S + d_S - 1.
    A = np.zeros((r.size + 2 * s.size, s.size * r.size))
    A[:r.size].reshape(r.size, s.size, r.size)[:] = np.eye(r.size)[:, None]
    A[r.size:].reshape(2, s.size ** 2, r.size)[:, ::s.size + 1] = np.stack((g_src, r))[:, None]
    b = np.concatenate([np.ones(r.size), g_tgt, s])
    status, x, _ = solve_standard_lp(A, b, np.zeros(A.shape[1]))
    if status == "infeasible":
        return None
    matrix = np.clip(x.reshape(s.size, r.size), 0.0, None)
    if not _same_table(q.source.spec, q.target.spec):
        # Lift M and check the witness against the composed vectors.
        matrix = np.repeat(g_src[:, None, None] * matrix, s.size, 2).reshape(r.size * s.size, -1)
        r, s = np.outer(r, g_tgt).ravel(), np.outer(g_src, s).ravel()
        g_src = g_tgt = np.outer(g_src, g_tgt).ravel()
    witness = WitnessMatrix(matrix)
    for got, want in ((matrix @ g_src, g_tgt), (matrix @ r, s)):
        if np.abs(got - want).max() > WITNESS_ATOL:
            raise ArithmeticError("feasible witness violates its defining equations")
    return witness


def smallest_epsilon(q: ConversionQuery) -> float:
    """Least trace distance to the target over all free images of the source.

    The module docstring's eps*, exactly 0.0 whenever the curves decide the
    conversion possible. Across tables each composed curve is the same
    curve with every segment split d_T ways, so nothing is composed.
    """
    _check_query(q)
    result = compare(curve_of(q.source.r, _equilibrium(q.source.spec, q.ctx)[0]),
                     curve_of(q.target.r, _equilibrium(q.target.spec, q.ctx)[0]))
    return 0.0 if result.dominates else min(-result.min_margin, 1.0)
