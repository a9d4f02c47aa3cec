"""Asymptotic rates, equipartition sweeps, and finite-copy work gaps.

Many-copy quantities never materialize the d^n product vectors: the
n-fold product is grouped into type classes (all permutations of one
outcome count share their probability ratio), and the greedy hypothesis
test consumes whole classes with at most one fractional class. Class
totals are accumulated in log space, so n in the thousands is routine
for small d. One bisection over the classes finds the best delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .errors import TargetIsEquilibrium
from .oneshot import (
    _check_epsilon,
    _equilibrium_divergence,
    _require_energy,
    shannon_entropy,
)
from .theory import (
    CompressedState,
    QuasiclassicalState,
    TheoryContext,
    _check_operator_count,
    log_partition_function,
    tensor_power_compressed,
)

EQUILIBRIUM_ATOL = 1e-12


@dataclass(frozen=True)
class AepSweep:
    """Per-copy hypothesis-testing entropies along a ladder of copy counts."""

    epsilon: float
    rows: tuple
    limit: float


class _SortedClasses:
    """Type classes sorted by evidence ratio, with prefix tables.

    Answers "optimal log Type II error at detection threshold `need`"
    in O(log n_classes) per query, and the lower cost bound in as many steps.
    """

    def __init__(self, power: list):
        """Sorts the power in the one-item list ``power``, emptying it so that each
        table nothing else holds is freed once its sorted copy exists."""
        log_mult, log_r, log_g = attrgetter("log_mult", "log_r", "log_g")(power.pop())
        # -ratio; zero-probability classes get +inf and sort to the tail
        order = np.argsort(log_g - log_r, kind="stable")
        # every class before that tail, also one whose r mass underflowed to 0
        live = np.count_nonzero(log_r > -np.inf)
        log_mass = log_r + log_mult
        del log_r
        self.r_mass = np.exp(log_mass, out=log_mass)[order]
        log_mass = np.add(log_g, log_mult, out=log_mass)
        del log_g, log_mult
        self.log_g_mass = log_mass[order]
        del log_mass, order
        self.cum_r = np.cumsum(self.r_mass)
        self.prefix_log_g = np.logaddexp.accumulate(self.log_g_mass)
        self.log_b_all = float(self.prefix_log_g[live - 1])

    def log_b(self, need: float) -> float:
        """ln b at threshold ``need``; at or past min(total r, 1), every class of r > 0."""
        return self.log_b_all if need >= min(self.cum_r[-1], 1.0) else self._log_b_reached(need)

    def _log_b_reached(self, need: float) -> float:
        """ln b where the cumulated r mass first reaches ``need``; at or past
        the r total, that of the classes with r mass up to the first class
        that reaches the total (later ones add r only below rounding)."""
        if need >= self.cum_r[-1]:
            top = int(np.searchsorted(self.cum_r, self.cum_r[-1], side="left")) + 1
            return float(np.logaddexp.reduce(self.log_g_mass[:top][self.r_mass[:top] > 0.0]))
        k = int(np.searchsorted(self.cum_r, need, side="left"))
        prev_r = self.cum_r[k - 1] if k > 0 else 0.0
        prev_log_g = self.prefix_log_g[k - 1] if k > 0 else -math.inf
        frac = min(max((need - prev_r) / self.r_mass[k], 0.0), 1.0)
        if frac == 0.0:
            return float(prev_log_g)
        # libm's log, not numpy's SIMD one, which can differ in the last bit across CPUs
        return float(np.logaddexp(prev_log_g, math.log(frac) + self.log_g_mass[k]))

    def max_lower_objective(self, epsilon: float) -> float:
        """max over h in (eps, 1] of ln(h - eps) - ln b(h), b at threshold h.

        b is convex and piecewise linear in h, so the objective rises along
        the class pieces up to one boundary and falls after it: piece k rises
        iff ln b(h_k) + ln rho_k > ln(h_k - eps), rho_k its r/g. A piece whose
        r mass underflowed adds no height and takes the answer of the piece
        that reached that height. The piece holding eps rises (b(eps) > 0).
        """
        cum_r = self.cum_r
        lo = int(np.searchsorted(cum_r, epsilon, side="right")) + 1
        last = hi = min(int(np.searchsorted(cum_r, 1.0, side="left")), cum_r.size - 1)
        while lo <= hi:  # first falling piece past eps, up to the one holding h = 1
            mid = (lo + hi) // 2
            k = int(np.searchsorted(cum_r, cum_r[mid], side="left"))
            log_rho = math.log(self.r_mass[k]) - self.log_g_mass[k]
            if self.prefix_log_g[k] + log_rho > math.log(cum_r[k] - epsilon):
                lo = mid + 1
            else:
                hi = mid - 1
        if lo > last:
            # Rising up to h = 1. Classes past a rounded r total of 1, or whose r
            # mass underflowed, add g but no height, so they only lower the objective.
            return math.log(1.0 - epsilon) - self._log_b_reached(1.0)
        k = int(np.searchsorted(cum_r, cum_r[lo - 1], side="left"))
        return math.log(cum_r[k] - epsilon) - float(self.prefix_log_g[k])


def compressed_d_h_epsilon(cs: CompressedState, epsilon: float) -> float:
    """Hypothesis-testing entropy of a compressed power against its own
    equilibrium power, evaluated class by class in log space."""
    _check_epsilon(epsilon)
    return -_SortedClasses([cs]).log_b(1.0 - epsilon) + 0.0


def free_energy_rate(state: QuasiclassicalState, ctx: TheoryContext) -> float:
    """Asymptotic per-copy work content of a state.

    <H>_r - T S(r) - sum_i p_i <X_i>_r + T ln Z with T = 1/beta, which
    equals (1/beta) times the relative entropy of r from its equilibrium
    ensemble.
    """
    _require_energy(ctx)
    _check_operator_count(state.spec, ctx)
    temperature = ctx.temperature
    table = state.spec.operator_matrix()
    means = table @ state.r
    rate = float(means[0]) - temperature * shannon_entropy(state.r)
    for (_, p_value), mean in zip(ctx.intensive, means[1:]):
        rate -= p_value * float(mean)
    return rate + temperature * log_partition_function(state.spec, ctx)


def aep_sweep(state: QuasiclassicalState, ctx: TheoryContext, epsilon: float,
              n_list) -> AepSweep:
    """Per-copy D_H^epsilon over tensor powers for each n in ``n_list``.

    The per-copy values converge to the relative-entropy limit reported
    alongside the rows; epsilon must lie strictly inside (0, 1).
    """
    _check_epsilon(epsilon, lo_open=True)
    limit = _equilibrium_divergence(state, ctx)
    rows = []
    for n in sorted(int(n) for n in n_list):
        log_b = _SortedClasses([tensor_power_compressed(state, ctx, n)]).log_b(1.0 - epsilon)
        rows.append((n, (-log_b + 0.0) / n))
    return AepSweep(epsilon=epsilon, rows=tuple(rows), limit=limit)


def conversion_rate(source: QuasiclassicalState, target: QuasiclassicalState,
                    ctx: TheoryContext) -> float:
    """Optimal copies of target per copy of source, in the many-copy limit.

    D(r || g_R) / D(s || g_S); undefined when the target is equilibrium.
    """
    d_source = _equilibrium_divergence(source, ctx)
    d_target = _equilibrium_divergence(target, ctx)
    if d_target <= EQUILIBRIUM_ATOL:
        raise TargetIsEquilibrium("target state is equilibrium; the rate diverges")
    return d_source / d_target


def finite_n_gap(state: QuasiclassicalState, ctx: TheoryContext, epsilon: float,
                 n: int):
    """Total n-copy work yield and ``w_cost_bounds``: (gain_n, (lower_n, upper_n)).

    Totals are reported, not per-copy values, so the square-root-of-n gap
    between cost and gain stays visible to the caller.
    """
    _require_energy(ctx)
    _check_epsilon(epsilon, lo_open=True)
    classes = _SortedClasses([tensor_power_compressed(state, ctx, n)])
    gain = -classes.log_b(1.0 - epsilon) / ctx.beta + 0.0
    upper = (-classes.log_b(epsilon) - math.log((1.0 - epsilon) / epsilon)) / ctx.beta
    return gain, (classes.max_lower_objective(epsilon) / ctx.beta, upper)
