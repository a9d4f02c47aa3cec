"""Reference oracles that only tests use.

The textbook two-phase simplex (list basis, np.outer update, explicit
unit-column reset) is the one LP optimizer in the repository: the
production phase-1 solver must take its pivots and return its bits at zero
cost, and tests that need an optimum (a least trace distance, an optimum
with slack) solve their LPs here. Vertex enumeration checks the greedy
hypothesis test.
"""

import numpy as np

from thermoflow import HypothesisTest
from thermoflow.errors import TooLarge

# Dimension cap for vertex enumeration (2^d subsets are visited).
VERTEX_DIM_CAP = 18


def reference_pivot(tableau, basis, row, col):
    pivot_row = tableau[row] / tableau[row, col]
    column = tableau[:, col].copy()
    tableau -= np.outer(column, pivot_row)
    tableau[row] = pivot_row
    tableau[:, col] = 0.0
    tableau[row, col] = 1.0
    basis[row] = col


def reference_iterate(tableau, basis, tol, max_iter):
    m = tableau.shape[0] - 1
    for _ in range(max_iter):
        reduced = tableau[-1, :-1]
        improving = np.flatnonzero(reduced < -tol)
        if improving.size == 0:
            return "optimal"
        col = int(improving[0])
        column = tableau[:m, col]
        rows = np.flatnonzero(column > tol)
        if rows.size == 0:
            return "unbounded"
        ratios = tableau[rows, -1] / column[rows]
        best = ratios.min()
        tied = rows[ratios <= best + tol * max(1.0, abs(best))]
        row = int(tied[np.argmin([basis[t] for t in tied])])
        reference_pivot(tableau, basis, row, col)
    raise ArithmeticError("simplex iteration cap exceeded")


def reference_solve(A, b, c, tol=1e-9, max_iter=None):
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float)
    c = np.array(c, dtype=float)
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
    basis = list(range(n, n + m))
    status = reference_iterate(tableau, basis, tol, max_iter)
    if status != "optimal":
        raise ArithmeticError("phase 1 cannot be unbounded")
    if -tableau[-1, -1] > tol:
        return "infeasible", None, None
    keep = []
    for i in range(m):
        if basis[i] >= n:
            candidates = np.flatnonzero(np.abs(tableau[i, :n]) > tol)
            if candidates.size == 0:
                continue
            reference_pivot(tableau, basis, i, int(candidates[0]))
        keep.append(i)
    rows = len(keep)
    phase2 = np.zeros((rows + 1, n + 1))
    phase2[:rows, :n] = tableau[keep][:, :n]
    phase2[:rows, -1] = tableau[keep][:, -1]
    basis = [basis[i] for i in keep]
    cost_basic = c[basis]
    phase2[-1, :n] = c - cost_basic @ phase2[:rows, :n]
    phase2[-1, -1] = -(cost_basic @ phase2[:rows, -1])
    status = reference_iterate(phase2, basis, tol, max_iter)
    if status == "unbounded":
        return "unbounded", None, None
    x = np.zeros(n)
    x[basis] = np.maximum(phase2[:rows, -1], 0.0)
    return "optimal", x, float(c @ x)


def vertex_oracle(test: HypothesisTest) -> float:
    """Independent optimum by enumerating vertices of the feasible box.

    Every vertex of {0 <= q <= 1, sum q r >= 1 - eps} has at most one
    fractional coordinate, so trying each 0/1 pattern plus each forced
    fractional fill is exhaustive. Exponential in d; capped.
    """
    d = test.r.size
    if d > VERTEX_DIM_CAP:
        raise TooLarge(f"vertex enumeration capped at dimension {VERTEX_DIM_CAP}, got {d}")
    r, g = test.r, test.g
    need = 1.0 - test.epsilon
    masks = ((np.arange(2 ** d)[:, None] >> np.arange(d)) & 1).astype(float)
    mass_r = masks @ r
    mass_g = masks @ g

    best = np.inf
    slack = 1e-12
    satisfied = mass_r >= need - slack
    if satisfied.any():
        best = float(mass_g[satisfied].min())
    for t in range(d):
        if r[t] <= 0:
            continue
        off = masks[:, t] == 0
        frac = (need - mass_r[off]) / r[t]
        usable = (frac > 0.0) & (frac <= 1.0 + slack)
        if usable.any():
            values = mass_g[off][usable] + np.clip(frac[usable], 0.0, 1.0) * g[t]
            best = min(best, float(values.min()))
    return best
