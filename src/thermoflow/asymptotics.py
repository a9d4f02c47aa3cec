"""Asymptotic rates, equipartition sweeps, and finite-copy work gaps.

Many-copy quantities never materialize the d^n product vectors: the n-fold
product is grouped into type classes (all permutations of one outcome count
share their probability ratio), and the greedy hypothesis test consumes whole
classes with at most one fractional class. Class totals are accumulated in log
space, by blocks of BLOCK classes (longer powers with short key runs take a SIMD
sort), so n in the thousands is routine for small d. One bisection finds the best delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter

import numpy as np

from .errors import TargetIsEquilibrium
from .oneshot import _check_epsilon, _equilibrium_divergence, _require_energy
from .theory import CompressedState, QuasiclassicalState, TheoryContext, tensor_power_compressed

EQUILIBRIUM_ATOL = 1e-12
BLOCK = 8192  # classes per g-mass prefix block; no table of at most BLOCK leaves the stable sort
SHORT_RUN = 64  # key runs (1 + fewer of descents, non-descents) below this mean: SIMD sort


@dataclass(frozen=True)
class AepSweep:
    """Per-copy hypothesis-testing entropies along a ladder of copy counts."""

    epsilon: float
    rows: tuple
    limit: float


class _BlockPrefix:
    """ln g mass of the first k + 1 sorted classes, as ``prefix[k]``: a block's running
    logaddexp, built on first read and seeded with the mass before the block (a logsumexp
    per whole block; terms floored 700 below its largest add < 8e-301 to a sum >= 1)."""

    def __init__(self, log_g_mass: np.ndarray):
        self.log_g_mass, self.blocks = log_g_mass, {}

    @cached_property
    def before(self) -> np.ndarray:
        whole = self.log_g_mass[:self.log_g_mass.size // BLOCK * BLOCK].reshape(-1, BLOCK)
        top = whole.max(axis=1)
        terms = whole - np.where(np.isfinite(top), top, 0.0)[:, None]  # all -inf: sums to -inf
        np.exp(np.maximum(terms, -700.0, out=terms), out=terms)  # exp: 20-200x slower below -707.7
        return np.logaddexp.accumulate(np.append(-np.inf, top + np.log(terms.sum(axis=1))))

    def __getitem__(self, k: int):
        j, i = divmod(k, BLOCK)
        if j not in self.blocks:
            block = self.log_g_mass[j * BLOCK:(j + 1) * BLOCK]
            if j:  # block 0 is the plain running accumulate
                block = np.append(np.logaddexp(self.before[j], block[0]), block[1:])
            self.blocks[j] = np.logaddexp.accumulate(block)
        return self.blocks[j][i]


class _SortedClasses:
    """Type classes sorted by evidence ratio, with prefix tables.

    Answers "optimal log Type II error at detection threshold `need`"
    in O(log n_classes) per query, and the lower cost bound in as many steps.
    Past BLOCK classes, short key runs take a SIMD sort (see BLOCK, SHORT_RUN)."""

    def __init__(self, power: list):
        """Sorts the power in the one-item list ``power``, emptying it so that each
        table nothing else holds is freed once it has been used."""
        log_mult, log_r, log_g = attrgetter("log_mult", "log_r", "log_g")(power.pop())
        key = log_g - log_r  # -ratio
        r_mass = log_r + log_mult  # the masses come unsorted, so the power is freed first
        del log_r
        log_g_mass = log_g + log_mult
        del log_g, log_mult
        np.exp(r_mass, out=r_mass)
        if key.size <= BLOCK or key.size >= SHORT_RUN * (1 + min(
                down := np.count_nonzero(key[1:] < key[:-1]), key.size - 1 - down)):
            order = np.argsort(key, kind="stable")  # timsort merges long runs fast
        else:  # numpy's SIMD argsort, then each run of equal keys back in index order
            order = np.argsort(key)
            key = key[order]
            start = np.append(True, key[1:] != key[:-1])  # a run of equal keys starts here
            if not start.all():  # sort (run id, index) pairs packed in one int64, in place
                packed = start.astype(np.int64)  # cumsum(start) would cast a copy
                np.left_shift(np.cumsum(packed, out=packed), 32, out=packed)
                packed |= order
                packed.sort()
                order = np.bitwise_and(packed, 0xFFFFFFFF, out=packed)  # the old order is freed
        del key
        self.r_mass = r_mass[order]
        del r_mass
        self.log_g_mass = log_g_mass[order]
        del log_g_mass, order
        self.cum_r = np.cumsum(self.r_mass)
        self.prefix_log_g = _BlockPrefix(self.log_g_mass)
        self.log_b_all = float(self.prefix_log_g[self.log_g_mass.size - 1])

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
    """Asymptotic per-copy work content of a state: (1/beta) D(r || g).

    That is the free energy <H>_r - T S(r) - sum_i p_i <X_i>_r + T ln Z
    (T = 1/beta) above equilibrium, read from ln r - ln g: a gauge shift
    moves <H>_r and T ln Z alike, and their difference would lose digits.
    """
    _require_energy(ctx)
    return _equilibrium_divergence(state, ctx) / ctx.beta


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
