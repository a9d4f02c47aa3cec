"""Rescaled Lorenz curves, curve domination, and the greedy test.

A curve accumulates probability r (y) against equilibrium probability g
(u = x/Z, with ln Z kept beside it, so no gauge shift overflows) in order
of decreasing r/g. It is concave, and one curve lying nowhere below
another of the same width decides convertibility. Read backwards it is
the optimal test of r against g: the least u reaching height 1 - epsilon
is the Type II error b_epsilon (Brandao et al., arXiv:1305.5278).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import WidthMismatch
from .theory import QuasiclassicalState, TheoryContext, _equilibrium

# Absolute tolerance for one curve dipping below another (curves are built
# from unit-scale probabilities).
DOMINATION_ATOL = 1e-12
# ln Z must agree this closely (relative on Z at every scale) to compare at all.
WIDTH_ATOL = 1e-9
# Dips within this band of the decision boundary get flagged as near ties.
NEAR_TIE_BAND = 1e-10


@dataclass(frozen=True, eq=False)
class LorenzCurve:
    """d+1 breakpoints from (0,0) to (1,1) on u, i.e. to (Z,1) on x = Z u."""

    u: np.ndarray
    y: np.ndarray
    source_order: np.ndarray
    log_width: float

    def __post_init__(self):
        for name in ("u", "y", "source_order"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def width(self) -> float:
        """Z, the total equilibrium weight; OverflowError beyond double range."""
        return math.exp(self.log_width)

    @property
    def x(self) -> np.ndarray:
        """Breakpoints on the unnormalized axis, Z u."""
        return self.u * self.width

    @property
    def points(self) -> np.ndarray:
        """Breakpoints (x, y) as a (d+1, 2) array."""
        return np.column_stack([self.x, self.y])


@dataclass(frozen=True)
class DominationResult:
    """Outcome of a curve comparison.

    ``min_margin`` is the worst value of A(u) - B(u) over the breakpoints
    of both curves. ``near_tie`` flags a dip so shallow (within 1e-10 of the
    boundary) that the verdict is sensitive to the tolerance choice.
    """

    dominates: bool
    min_margin: float
    near_tie: bool


def curve_of(r: np.ndarray, g: np.ndarray, log_width: float = 0.0) -> LorenzCurve:
    """Curve of ``r`` over ``g`` by descending r/g: g = 0 goes first, and equal
    ratios keep index order (the shape does not depend on tie order)."""
    with np.errstate(over="ignore"):  # a subnormal g gives r/g = inf, which sorts right
        ratio = np.divide(r, g, out=np.full(r.size, np.inf), where=g > 0)
    order = (-ratio).argsort(kind="stable")
    u, y = np.zeros(r.size + 1), np.zeros(r.size + 1)
    np.add.accumulate(g[order], out=u[1:])
    np.add.accumulate(r[order], out=y[1:])
    return LorenzCurve(u, y, order, log_width)


def build_curve(state: QuasiclassicalState, ctx: TheoryContext) -> LorenzCurve:
    """Rescaled Lorenz curve of ``state`` over its equilibrium state."""
    g, log_z = _equilibrium(state.spec, ctx)
    return curve_of(state.r, g, log_z)


def inverse(curve: LorenzCurve, r: np.ndarray, g: np.ndarray,
            heights: np.ndarray) -> np.ndarray:
    """Least u where the curve of (r, g) reaches each height: the greedy test's
    Type II error, with steps read from r and g, not breakpoint differences.

    A height at or past the top of the curve takes the steps of r > 0 up to
    the first breakpoint at the top: steps after it add r only below rounding
    and no height. Only +inf takes every step of r > 0, all of supp r.
    """
    rs, gs = r[curve.source_order], g[curve.source_order]
    exhausted = heights >= curve.y[-1]
    any_exhausted = exhausted.any()
    live = heights[~exhausted] if any_exhausted else heights
    k = curve.y[1:].searchsorted(live, side="left")
    frac = np.minimum(np.maximum((live - curve.y[k]) / rs[k], 0.0), 1.0)
    b = curve.u[k] + frac * gs[k]
    if not any_exhausted:
        return b
    out = np.empty(heights.size)
    out[~exhausted] = b
    support = rs > 0
    top = int(curve.y.searchsorted(curve.y[-1]))
    out[exhausted] = gs[:top][support[:top]].sum()
    if support[top:].any():
        out[heights == math.inf] = gs[support].sum()
    return out


def compare(a: LorenzCurve, b: LorenzCurve) -> DominationResult:
    """Does curve ``a`` stay on or above curve ``b``?

    Both curves are piecewise linear, so checking the breakpoints of both on
    the unit axis is sufficient. They are evaluated as listed, one after the
    other: a point in both lists is checked twice, which changes no minimum.
    """
    if abs(a.log_width - b.log_width) > WIDTH_ATOL:
        raise WidthMismatch(f"curve widths differ: ln Z {a.log_width!r} vs {b.log_width!r}")
    # u >= 0 by construction, so only the end needs clipping
    grid = np.minimum(np.concatenate((a.u, b.u)), min(a.u[-1], b.u[-1]))
    margins = np.interp(grid, a.u, a.y) - np.interp(grid, b.u, b.y)
    worst = float(margins.min())
    return DominationResult(
        dominates=worst >= -DOMINATION_ATOL,
        min_margin=worst,
        near_tie=-NEAR_TIE_BAND <= worst < 0.0,
    )


def dominates(a: LorenzCurve, b: LorenzCurve) -> bool:
    """True iff ``a`` never dips below ``b`` (within 1e-12)."""
    return compare(a, b).dominates
