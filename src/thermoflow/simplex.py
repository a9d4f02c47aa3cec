"""Dense phase-1 simplex: a feasible point of A x = b, x >= 0, or None.

The feasibility oracle needs a point, not an optimum, so only phase 1 is
here: flip rows with negative rhs, start from an artificial basis and
minimize the total artificial mass, then drive leftover artificials out.
Bland's anticycling rule holds throughout: the entering column is the
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


def _minimize(tableau: np.ndarray, basis: np.ndarray, max_iter: int):
    tol = FEASIBILITY_TOL
    body, rhs, reduced = tableau[:-1], tableau[:-1, -1], tableau[-1, :-1]
    for _ in range(max_iter):
        improving = reduced < -tol
        col = int(improving.argmax())
        if not improving[col]:
            return
        column = body[:, col]
        rows = (column > tol).nonzero()[0]
        if rows.size == 0:
            raise ArithmeticError("phase 1 cannot be unbounded")
        ratios = rhs[rows] / column[rows]
        best = float(ratios.min())
        tied = rows[ratios <= best + tol * max(1.0, abs(best))]
        _pivot(tableau, basis, int(tied[basis[tied].argmin()]), col)
    raise ArithmeticError("simplex iteration cap exceeded")


def solve_standard_lp(A, b, max_iter: int | None = None):
    """A point x >= 0 with A x = b, or None when there is none."""
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float)
    m, n = A.shape
    if max_iter is None:
        max_iter = 1000 + 200 * (m + n)

    flip = b < 0
    A[flip] *= -1.0
    b = np.abs(b)

    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m, :n] = A
    tableau[:m, n:n + m] = np.eye(m)
    tableau[:m, -1] = b
    tableau[-1, :n] = -A.sum(axis=0)
    tableau[-1, -1] = -b.sum()
    basis = np.arange(n, n + m)

    _minimize(tableau, basis, max_iter)
    if -tableau[-1, -1] > FEASIBILITY_TOL:
        return None

    # Drive leftover artificials out of the basis; a row that offers no pivot
    # is a redundant constraint, and its artificial stays basic at zero.
    for i in np.flatnonzero(basis >= n):
        candidates = np.flatnonzero(np.abs(tableau[i, :n]) > FEASIBILITY_TOL)
        if candidates.size:
            _pivot(tableau, basis, i, int(candidates[0]))

    x = np.zeros(n + m)
    x[basis] = np.maximum(tableau[:m, -1], 0.0)
    return x[:n]
