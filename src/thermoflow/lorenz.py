"""Rescaled Lorenz curves and curve domination.

A state's curve accumulates probability (y) against unnormalized
equilibrium weight (x), with eigenstates visited in order of decreasing
probability-to-weight ratio. The sort makes the curve concave, its width
equals the partition function, and one curve lying nowhere below another
decides convertibility between the underlying states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OutOfDomain, WidthMismatch
from .theory import QuasiclassicalState, TheoryContext, gibbs_weights

# Absolute tolerance for one curve dipping below another (curves are built
# from unit-scale probabilities).
DOMINATION_ATOL = 1e-12
# Widths must agree this closely, relative to widths above 1, before curves
# are comparable at all.
WIDTH_ATOL = 1e-9
# Dips within this band of the decision boundary get flagged as near ties.
NEAR_TIE_BAND = 1e-10


@dataclass(frozen=True, eq=False)
class LorenzCurve:
    """Piecewise-linear curve through d+1 breakpoints from (0,0) to (Z,1)."""

    x: np.ndarray
    y: np.ndarray
    source_order: np.ndarray

    def __post_init__(self):
        for name in ("x", "y", "source_order"):
            arr = np.asarray(getattr(self, name))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def width(self) -> float:
        """Z, the total equilibrium weight."""
        return float(self.x[-1])

    @property
    def points(self) -> np.ndarray:
        """Breakpoints as a (d+1, 2) array."""
        return np.column_stack([self.x, self.y])


@dataclass(frozen=True)
class DominationResult:
    """Outcome of a curve comparison.

    ``min_margin`` is the worst value of A(x) - B(x) over the union of
    breakpoints. ``near_tie`` flags a dip so shallow (within 1e-10 of the
    boundary) that the verdict is sensitive to the tolerance choice.
    """

    dominates: bool
    min_margin: float
    near_tie: bool


def build_curve(state: QuasiclassicalState, ctx: TheoryContext) -> LorenzCurve:
    """Rescaled Lorenz curve of ``state`` under ``ctx``.

    Indices are sorted by descending r / w where w is the unnormalized
    equilibrium weight (unit weights in the entropy theory). Equal ratios
    keep their original order; the curve shape does not depend on how
    such ties are broken.
    """
    w = gibbs_weights(state.spec, ctx)
    order = np.argsort(-(state.r / w), kind="stable")
    x = np.concatenate(([0.0], np.cumsum(w[order])))
    y = np.concatenate(([0.0], np.cumsum(state.r[order])))
    return LorenzCurve(x, y, order)


def evaluate(curve: LorenzCurve, x: float) -> float:
    """Linear interpolation of the curve at x in [0, Z]."""
    if x < -DOMINATION_ATOL or x > curve.width + DOMINATION_ATOL:
        raise OutOfDomain(f"x={x!r} outside [0, {curve.width!r}]")
    x = min(max(float(x), 0.0), curve.width)
    return float(np.interp(x, curve.x, curve.y))


def compare(a: LorenzCurve, b: LorenzCurve) -> DominationResult:
    """Does curve ``a`` stay on or above curve ``b``?

    Both curves are piecewise linear, so checking the union of their
    breakpoints is sufficient.
    """
    if abs(a.width - b.width) > WIDTH_ATOL * max(1.0, a.width, b.width):
        raise WidthMismatch(f"curve widths differ: {a.width!r} vs {b.width!r}")
    grid = np.union1d(a.x, b.x)
    grid = np.clip(grid, 0.0, min(a.width, b.width))
    margins = np.interp(grid, a.x, a.y) - np.interp(grid, b.x, b.y)
    worst = float(margins.min())
    return DominationResult(
        dominates=worst >= -DOMINATION_ATOL,
        min_margin=worst,
        near_tie=-NEAR_TIE_BAND <= worst < 0.0,
    )


def dominates(a: LorenzCurve, b: LorenzCurve) -> bool:
    """True iff ``a`` never dips below ``b`` (within 1e-12)."""
    return compare(a, b).dominates
