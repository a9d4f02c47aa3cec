"""Hypothesis-testing entropy and single-shot work quantities.

For commuting states the optimal hypothesis test is a fractional
knapsack: sort eigenstates by how much evidence they carry (r/g), accept
greedily until the required detection probability is reached, and pay
the accumulated g-mass as the Type II error. That sort and those sums
are the Lorenz curve of (r, g) on the unit axis, so the test is the
curve read backwards (``lorenz.inverse``). Work extracted from or paid
to create one copy of a state follows from that error probability, in
units of k_B T via the 1/beta prefactor.

Every quantity of a state reads its r and one ``_equilibrium`` g as they
are: one curve, and one D(r || g) for the rates. Only vectors a caller
supplies (``HypothesisTest``, ``shannon_entropy``, ``relative_entropy``)
are checked and renormalized here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    EnergyRepresentation,
    EntropyRepresentation,
    EpsilonOutOfRange,
    NormalizationError,
)
from .lorenz import curve_of, inverse
from .theory import (
    ENTROPY,
    QuasiclassicalState,
    RENORMALIZE_ATOL,
    SystemSpec,
    TheoryContext,
    _equilibrium,
    _log_equilibrium,
)


def _normalized(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if not (arr >= 0).all():  # false for NaN too
        raise NormalizationError(f"{name} must be finite and nonnegative")
    total = arr.sum()
    if abs(total - 1.0) > RENORMALIZE_ATOL:
        raise NormalizationError(f"{name} sums to {total!r}, too far from 1")
    if total != 1.0:  # x / 1.0 is x
        arr /= total
    arr.flags.writeable = False
    return arr


def _check_epsilon(epsilon: float, lo_open: bool = False):
    if not (0.0 < epsilon < 1.0 if lo_open else 0.0 <= epsilon < 1.0):  # false for NaN too
        raise EpsilonOutOfRange(f"epsilon must lie in {'(' if lo_open else '['}0, 1), "
                                f"got {epsilon!r}")


@dataclass(frozen=True, eq=False)
class HypothesisTest:
    """Distinguish r from g with Type I error at most epsilon."""

    r: np.ndarray
    g: np.ndarray
    epsilon: float

    def __post_init__(self):
        object.__setattr__(self, "r", _normalized(self.r, "r"))
        object.__setattr__(self, "g", _normalized(self.g, "g"))
        if self.r.size != self.g.size:
            raise DimensionMismatch("r and g must have the same length")
        _check_epsilon(self.epsilon)


def b_epsilon(test: HypothesisTest) -> float:
    """Least achievable Type II error probability.

    Exact optimum of the commuting-case program {0 <= q <= 1,
    sum q r >= 1 - epsilon, minimize sum q g}, reached greedily. Threshold 1
    accepts all of supp r, even where the rounded r total passes 1 before it.
    """
    return _b_epsilon(test.r, test.g, test.epsilon)


def d_h_epsilon(test: HypothesisTest) -> float:
    """Hypothesis-testing relative entropy, -ln b. Infinite when b = 0."""
    return _d_h_epsilon(test.r, test.g, test.epsilon)


def _b_epsilon(r: np.ndarray, g: np.ndarray, epsilon: float) -> float:
    need = 1.0 - epsilon
    return float(inverse(curve_of(r, g), r, g, np.array([need if need < 1.0 else math.inf]))[0])


def _d_h_epsilon(r: np.ndarray, g: np.ndarray, epsilon: float) -> float:
    b = _b_epsilon(r, g, epsilon)
    return math.inf if b == 0.0 else -math.log(b) + 0.0


def shannon_entropy(r) -> float:
    """-sum r ln r with 0 ln 0 = 0."""
    arr = _normalized(r, "r")
    pos = arr > 0
    return float(-(arr[pos] * np.log(arr[pos])).sum())


def relative_entropy(r, g) -> float:
    """sum r (ln r - ln g); +inf when r has mass outside supp(g)."""
    rv = _normalized(r, "r")
    gv = _normalized(g, "g")
    if rv.size != gv.size:
        raise DimensionMismatch("r and g must have the same length")
    pos = rv > 0
    if np.any(gv[pos] == 0.0):
        return math.inf
    return _divergence(rv[pos], np.log(gv[pos]))


def _divergence(r: np.ndarray, log_g: np.ndarray) -> float:
    """sum r (ln r - ln g) over entries with r > 0."""
    return float((r * (np.log(r) - log_g)).sum())


def _equilibrium_divergence(state: QuasiclassicalState, ctx: TheoryContext) -> float:
    """``relative_entropy`` of r from its own equilibrium state, finite across any gap."""
    pos = state.r > 0
    return _divergence(state.r[pos], _log_equilibrium(state.spec, ctx)[pos])


def _require_energy(ctx: TheoryContext):
    if ctx.representation == ENTROPY:
        raise EntropyRepresentation(
            "work is defined in energy-representation theories; "
            "use resource_yield for the entropy theory"
        )


def w_gain(state: QuasiclassicalState, ctx: TheoryContext, epsilon: float) -> float:
    """Work extractable from one copy with failure tolerance epsilon.

    (1/beta) times the hypothesis-testing entropy of the state against
    its own equilibrium ensemble, read from the curve of r and g as they
    are, the one ``w_cost_bounds`` reads.
    """
    _require_energy(ctx)
    _check_epsilon(epsilon)
    return _d_h_epsilon(state.r, _equilibrium(state.spec, ctx)[0], epsilon) / ctx.beta


def w_cost_bounds(state: QuasiclassicalState, ctx: TheoryContext,
                  epsilon: float) -> tuple[float, float]:
    """(lower, upper) work to form the state: the exact cost and a bound on it.

    lower = max over delta in (0, 1-eps] of
            (1/beta) [ D_H^{1-eps-delta}(r || g) - ln(1/delta) ]
    upper = (1/beta) [ D_H^{1-eps}(r || g) - ln((1-eps)/eps) ]

    The lower value is the exact eps-formation cost: the least W for which a
    free image of g (x) B_W lies within trace distance eps of r (x) B_0, with
    ``battery_pair`` ladders. The upper value is only a bound above it.

    With h = eps + delta, the Type II error b(h) is piecewise linear in h
    and the objective is monotone on each piece, so the maximum is exact at
    a curve breakpoint inside (eps, 1) or at h = 1, which is read where the
    curve first reaches it (``lorenz.inverse``). Both values are the raw
    formulas; the upper bound can go negative for large epsilon and is
    reported verbatim.
    """
    _require_energy(ctx)
    _check_epsilon(epsilon, lo_open=True)
    r, g = state.r, _equilibrium(state.spec, ctx)[0]
    curve = curve_of(r, g)
    heights = curve.y[(curve.y > epsilon) & (curve.y < 1.0)].tolist() + [1.0]
    b = inverse(curve, r, g, np.array([epsilon] + heights)).tolist()

    # D_H^e needs detection threshold 1 - e; for e = 1 - eps that is eps.
    upper = (-math.log(b[0]) - math.log((1.0 - epsilon) / epsilon)) / ctx.beta
    # libm's log, not numpy's SIMD one, which can differ in the last bit across CPUs
    lower = max(math.log(h - epsilon) - math.log(b_h) for h, b_h in zip(heights, b[1:]))
    return lower / ctx.beta, upper


def resource_yield(state: QuasiclassicalState, ctx: TheoryContext) -> float:
    """Distillable resource of an entropy-theory state: ln d - S(r), which is
    D(r || g) for the uniform g of that theory (the spec carries no operator)."""
    if ctx.representation != ENTROPY:
        raise EnergyRepresentation(
            "resource_yield is the entropy-theory quantity; use w_gain instead"
        )
    return _equilibrium_divergence(state, ctx)


def battery_pair(labels, work: float):
    """(B_0, B_W) on the two-level ladder {0, W}; only the level difference
    is physical. The spec copies the given labels, stores W in the energy
    operator and zeros every other one. A state r charges the battery by W
    exactly when r (x) B_0 -> B_W is free, that is up to W = ``w_gain(r, ctx, 0)``.
    """
    levels = np.array([0.0, work])
    ops = tuple((label, levels if i == 0 else np.zeros(2))
                for i, label in enumerate(labels))
    spec = SystemSpec(2, ops)
    return (
        QuasiclassicalState(spec, np.array([1.0, 0.0])),
        QuasiclassicalState(spec, np.array([0.0, 1.0])),
    )
