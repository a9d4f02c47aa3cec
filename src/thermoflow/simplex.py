"""Dense two-phase simplex for the small LPs behind the conversion oracles.

Full-tableau implementation in standard form (min c.x, A x = b, x >= 0)
with Bland's anticycling rule throughout: the entering column is the
lowest-index improving one and ratio ties leave the row whose basic
variable has the lowest index. Determinism comes first: each pivot is one
argmax, one ratio test whose ties go to an argmin over the int basis array
and one broadcast rank-1 update in place. These do the textbook loop's
float operations in its order, so pivots and results match it bit for bit.
"""

from __future__ import annotations

import numpy as np

FEASIBILITY_TOL = 1e-9


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int):
    pivot_row = tableau[row] / tableau[row, col]
    # The product is formed before the subtraction, and the pivot column comes
    # out an exact unit vector: x/x is 1.0 and t - t*1.0 is +0.0.
    tableau -= tableau[:, col, None] * pivot_row
    tableau[row] = pivot_row
    basis[row] = col


def _iterate(tableau: np.ndarray, basis: np.ndarray, tol: float, max_iter: int) -> str:
    body, rhs, reduced = tableau[:-1], tableau[:-1, -1], tableau[-1, :-1]
    for _ in range(max_iter):
        improving = reduced < -tol
        col = int(improving.argmax())
        if not improving[col]:
            return "optimal"
        column = body[:, col]
        rows = (column > tol).nonzero()[0]
        if rows.size == 0:
            return "unbounded"
        ratios = rhs[rows] / column[rows]
        best = float(ratios.min())
        tied = rows[ratios <= best + tol * max(1.0, abs(best))]
        _pivot(tableau, basis, int(tied[basis[tied].argmin()]), col)
    raise ArithmeticError("simplex iteration cap exceeded")


def solve_standard_lp(A, b, c, tol: float = FEASIBILITY_TOL,
                      max_iter: int | None = None):
    """Minimize c.x subject to A x = b, x >= 0.

    Returns (status, x, objective) where status is one of "optimal",
    "infeasible" or "unbounded"; x and objective are None unless optimal.
    """
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float)
    c = np.array(c, dtype=float)
    m, n = A.shape
    if max_iter is None:
        max_iter = 1000 + 200 * (m + n)

    flip = b < 0
    A[flip] *= -1.0
    b = np.abs(b)

    # Phase 1: artificial basis, minimize total artificial mass.
    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m, :n] = A
    tableau[:m, n:n + m] = np.eye(m)
    tableau[:m, -1] = b
    tableau[-1, :n] = -A.sum(axis=0)
    tableau[-1, -1] = -b.sum()
    basis = np.arange(n, n + m)

    status = _iterate(tableau, basis, tol, max_iter)
    if status != "optimal":
        raise ArithmeticError("phase 1 cannot be unbounded")
    if -tableau[-1, -1] > tol:
        return "infeasible", None, None

    # Drive leftover artificials out of the basis; rows that offer no
    # pivot are redundant constraints and get dropped.
    keep = []
    for i in range(m):
        if basis[i] >= n:
            candidates = np.flatnonzero(np.abs(tableau[i, :n]) > tol)
            if candidates.size == 0:
                continue
            _pivot(tableau, basis, i, int(candidates[0]))
        keep.append(i)

    rows = len(keep)
    phase2 = np.zeros((rows + 1, n + 1))
    phase2[:rows, :n], phase2[:rows, -1] = tableau[keep, :n], tableau[keep, -1]
    basis = basis[keep]
    cost_basic = c[basis]
    phase2[-1, :n] = c - cost_basic @ phase2[:rows, :n]
    phase2[-1, -1] = -(cost_basic @ phase2[:rows, -1])

    status = _iterate(phase2, basis, tol, max_iter)
    if status == "unbounded":
        return "unbounded", None, None

    x = np.zeros(n)
    x[basis] = np.maximum(phase2[:rows, -1], 0.0)
    return "optimal", x, float(c @ x)
