"""Hypothesis-testing entropy and single-shot work quantities.

For commuting states the optimal hypothesis test is a fractional
knapsack: sort eigenstates by how much evidence they carry (r/g), accept
greedily until the required detection probability is reached, and pay
the accumulated g-mass as the Type II error. That sort and those sums
are the Lorenz curve of (r, g) on the unit axis, so the test is the
curve read backwards (``lorenz.inverse``). Work extracted from or paid
to create one copy of a state follows from that error probability, in
units of k_B T via the 1/beta prefactor.
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
    TooLarge,
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

BATTERY_SLACK = 1e-9
# Dimension cap for vertex enumeration (2^d subsets are visited).
VERTEX_DIM_CAP = 18


def _normalized(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if not np.all(arr >= 0):  # false for NaN too
        raise NormalizationError(f"{name} must be finite and nonnegative")
    total = arr.sum()
    if abs(total - 1.0) > RENORMALIZE_ATOL:
        raise NormalizationError(f"{name} sums to {total!r}, too far from 1")
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
    need = 1.0 - test.epsilon
    curve = curve_of(test.r, test.g)
    return float(inverse(curve, test.r, test.g, np.array([need if need < 1.0 else math.inf]))[0])


def d_h_epsilon(test: HypothesisTest) -> float:
    """Hypothesis-testing relative entropy, -ln b. Infinite when b = 0."""
    b = b_epsilon(test)
    return math.inf if b == 0.0 else -math.log(b) + 0.0


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
    r = _normalized(state.r, "r")
    g = _normalized(_equilibrium(state.spec, ctx)[0], "g")
    return _divergence(r[r > 0], _log_equilibrium(state.spec, ctx, g)[r > 0])


def _require_energy(ctx: TheoryContext):
    if ctx.representation == ENTROPY:
        raise EntropyRepresentation(
            "work is defined in energy-representation theories; "
            "use resource_yield for the entropy theory"
        )


def w_gain(state: QuasiclassicalState, ctx: TheoryContext, epsilon: float) -> float:
    """Work extractable from one copy with failure tolerance epsilon.

    (1/beta) times the hypothesis-testing entropy of the state against
    its own equilibrium ensemble.
    """
    _require_energy(ctx)
    test = HypothesisTest(state.r, _equilibrium(state.spec, ctx)[0], epsilon)
    return d_h_epsilon(test) / ctx.beta


def w_cost_bounds(state: QuasiclassicalState, ctx: TheoryContext,
                  epsilon: float) -> tuple[float, float]:
    """(lower, upper) bounds on the work needed to form the state.

    upper = (1/beta) [ D_H^{1-eps}(r || g) - ln((1-eps)/eps) ]
    lower = max over delta in (0, 1-eps] of
            (1/beta) [ D_H^{1-eps-delta}(r || g) - ln(1/delta) ]

    With h = eps + delta, the Type II error b(h) is piecewise linear in h
    and the objective is monotone on each piece, so the maximum is exact at
    a curve breakpoint inside (eps, 1) or at h = 1. Both values are the raw
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
    """Distillable resource of an entropy-theory state: ln d - S(r)."""
    if ctx.representation != ENTROPY:
        raise EnergyRepresentation(
            "resource_yield is the entropy-theory quantity; use w_gain instead"
        )
    return math.log(state.dim) - shannon_entropy(state.r)


@dataclass(frozen=True)
class BatteryState:
    """A battery parked in the pure energy level E."""

    level_energy: float

    def __post_init__(self):
        if not math.isfinite(self.level_energy):
            raise ValueError("battery level must be finite")


@dataclass(frozen=True)
class WorkReport:
    """Work summary for one state at one failure tolerance.

    Cost bounds are None at epsilon = 0, where only the yield is defined.
    """

    epsilon: float
    w_gain: float
    w_cost_lower: float | None
    w_cost_upper: float | None


def work_report(state: QuasiclassicalState, ctx: TheoryContext,
                epsilon: float) -> WorkReport:
    """Yield plus cost bounds; cost bounds need epsilon strictly inside (0, 1)."""
    gain = w_gain(state, ctx, epsilon)
    if epsilon > 0.0:
        lower, upper = w_cost_bounds(state, ctx, epsilon)
    else:
        lower = upper = None
    return WorkReport(epsilon, gain, lower, upper)


def battery_pair(labels, battery: BatteryState, work: float):
    """(B_E, B_{E+W}) on the minimal two-level ladder {E, E+W}.

    The ladder spec copies the given operator labels so it can be
    composed with system states; work is stored in the energy operator
    and every other operator is zero on the battery.
    """
    levels = np.array([battery.level_energy, battery.level_energy + work])
    ops = tuple(
        (label, levels if i == 0 else np.zeros(2)) for i, label in enumerate(labels)
    )
    spec = SystemSpec(2, ops)
    return (
        QuasiclassicalState(spec, np.array([1.0, 0.0])),
        QuasiclassicalState(spec, np.array([0.0, 1.0])),
    )


def battery_extract_check(state: QuasiclassicalState, battery: BatteryState,
                          work: float, ctx: TheoryContext, epsilon: float) -> bool:
    """Whether charging the battery by ``work`` is within the state's yield.

    True iff work <= w_gain + 1e-9. The battery's resting level does not
    enter the verdict; only the level difference is physical.
    """
    del battery
    return work <= w_gain(state, ctx, epsilon) + BATTERY_SLACK
