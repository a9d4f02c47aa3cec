"""Independent computations the benchmark checks thermoflow's outputs against.

Nothing here imports thermoflow. A system is described by the raw
numbers the benchmark drew: a context (inverse temperature plus one
intensive value per operator beyond energy) and an operator table. From
those this module computes equilibrium states, random maps that fix
them, brute-force hypothesis tests over full product vectors and the
second-order many-copy expansion, so a check never compares thermoflow
with itself or with a stored copy of its earlier output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

# The thermoflow presets the workloads draw contexts from.
KINDS = ("helmholtz", "grand_potential", "gibbs")


@dataclass(frozen=True)
class Context:
    """A bath: beta plus (label, value) intensive pairs, as thermoflow presets build them."""

    kind: str
    beta: float
    intensive: tuple = ()

    def descriptor(self) -> dict:
        return {
            "representation": "energy",
            "beta": self.beta,
            "intensive": [{"label": l, "value": v} for l, v in self.intensive],
        }


@dataclass(frozen=True, eq=False)
class Table:
    """Operator spectra of one system; entry 0 is the energy."""

    labels: tuple
    spectra: np.ndarray  # (n_operators, dim)

    @property
    def dim(self) -> int:
        return self.spectra.shape[1]

    def shifted(self, energy_shift: float) -> "Table":
        spectra = self.spectra.copy()
        spectra[0] += energy_shift
        return Table(self.labels, spectra)


def exponents(table: Table, ctx: Context) -> np.ndarray:
    """-beta (H - sum_i p_i X_i) per eigenstate."""
    e = -ctx.beta * table.spectra[0]
    for (_, value), row in zip(ctx.intensive, table.spectra[1:]):
        e = e + ctx.beta * value * row
    return e


def softmax(e: np.ndarray) -> np.ndarray:
    w = np.exp(e - e.max())
    return w / w.sum()


def logsumexp(e: np.ndarray) -> float:
    m = float(e.max())
    return m + math.log(float(np.exp(e - m).sum()))


def gibbs(table: Table, ctx: Context) -> np.ndarray:
    return softmax(exponents(table, ctx))


def random_context(rng, kind: str) -> Context:
    beta = float(rng.uniform(0.5, 2.0))
    if kind == "helmholtz":
        return Context(kind, beta)
    if kind == "grand_potential":
        return Context(kind, beta, (("mu", float(rng.uniform(-0.5, 0.5))),))
    # thermoflow's gibbs preset stores the pressure p as the intensive value -p
    return Context(kind, beta, (("-p", -float(rng.uniform(0.1, 1.0))),))


def random_table(rng, ctx: Context, d: int) -> Table:
    """Random spectra, shifted so that the largest equilibrium weight is 1.

    The shift is a gauge choice: it keeps every partition function within
    [1, d], so products of two of them stay far from the range where
    thermoflow's absolute width tolerance breaks (see the fault cases).
    """
    rows = [rng.uniform(0.0, 3.0, d)]
    if ctx.kind == "grand_potential":
        rows.append(rng.integers(0, 4, d).astype(float))
    elif ctx.kind == "gibbs":
        rows.append(rng.uniform(0.5, 2.0, d))
    labels = ("H",) + tuple({"grand_potential": "N", "gibbs": "V"}[ctx.kind]
                            for _ in rows[1:])
    table = Table(labels, np.array(rows))
    return table.shifted(float(exponents(table, ctx).max()) / ctx.beta)


# Share of uniform mixed into every drawn probability vector, keeping each
# entry at least FLOOR / d. Near-zero probabilities (1e-7 and below) make
# thermoflow's simplex hit its iteration cap or return a witness outside
# its own tolerance on a few queries in a thousand, which would make the
# failed share depend on the seed.
FLOOR = 0.1


def random_probabilities(rng, d: int, away_from=None, min_tv=0.05) -> np.ndarray:
    """Dirichlet draw mixed with uniform, redrawn until it is min_tv from ``away_from``."""
    while True:
        p = rng.dirichlet(np.full(d, float(rng.uniform(0.3, 2.0))))
        p = (1.0 - FLOOR) * p + FLOOR / d
        if away_from is None or 0.5 * np.abs(p - away_from).sum() >= min_tv:
            return p


def _corner_coupling(rng, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """North-west corner coupling of two distributions, in random orders."""
    pi = np.zeros((rows.size, cols.size))
    left_r, left_c = rows.copy(), cols.copy()
    order_r, order_c = list(rng.permutation(rows.size)), list(rng.permutation(cols.size))
    i, j = order_r.pop(), order_c.pop()
    while True:
        mass = min(left_r[i], left_c[j])
        pi[i, j] += mass
        left_r[i] -= mass
        left_c[j] -= mass
        if left_r[i] <= left_c[j]:
            if not order_r:
                break
            i = order_r.pop()
        else:
            if not order_c:
                break
            j = order_c.pop()
    return pi


def fixing_map(rng, g_src: np.ndarray, g_tgt: np.ndarray, vertices: int = 3) -> np.ndarray:
    """Random column-stochastic M with M g_src = g_tgt, exact to rounding.

    M is pi with each column divided by its sum (g_src) for a coupling pi
    of (g_tgt, g_src): a random convex mixture of north-west corner
    couplings, each a vertex of the transport polytope, so pushed targets
    stay far from equilibrium.
    """
    weights = rng.dirichlet(np.ones(vertices))
    pi = sum(w * _corner_coupling(rng, g_tgt, g_src) for w in weights)
    return pi / pi.sum(axis=0)


def tv(a: np.ndarray, b: np.ndarray) -> float:
    return 0.5 * float(np.abs(a - b).sum())


def witness_errors(m: np.ndarray, r: np.ndarray, s: np.ndarray, g_src: np.ndarray,
                   g_tgt: np.ndarray) -> float:
    """Worst violation of M >= 0, unit column sums, M g_src = g_tgt and M r = s."""
    return max(
        float(-m.min()) if m.size else 0.0,
        float(np.abs(m.sum(axis=0) - 1.0).max()),
        float(np.abs(m @ g_src - g_tgt).max()),
        float(np.abs(m @ r - s).max()),
    )


def lorenz_points(r: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Breakpoints (x, y) of the rescaled Lorenz curve of r over weights w."""
    order = sorted(range(r.size), key=lambda i: -r[i] / w[i])
    x = np.concatenate(([0.0], np.cumsum(w[order])))
    y = np.concatenate(([0.0], np.cumsum(r[order])))
    return np.column_stack([x, y])


def greedy_log_b(r: np.ndarray, g: np.ndarray, need: float) -> float:
    """ln of the least Type II error at detection probability ``need``.

    Fractional knapsack over the full vectors: accept outcomes by
    decreasing r/g until ``need`` of r is covered. For product vectors
    this is the brute-force test the type-class compression must match.
    """
    ratio = np.where(g > 0, r / np.where(g > 0, g, 1.0), np.inf)
    order = np.argsort(-ratio, kind="stable")
    rs, gs = r[order], g[order]
    cum_r = np.cumsum(rs)
    k = int(np.searchsorted(cum_r, need, side="left"))
    if k >= r.size:
        return math.log(float(gs[rs > 0].sum()))
    before_r = float(cum_r[k - 1]) if k else 0.0
    before_g = float(gs[:k].sum())
    frac = min(max((need - before_r) / rs[k], 0.0), 1.0)
    return math.log(before_g + frac * gs[k])


def product(v: np.ndarray, n: int) -> np.ndarray:
    out = np.ones(1)
    for _ in range(n):
        out = np.kron(out, v)
    return out


def d_h_brute(r: np.ndarray, g: np.ndarray, n: int, epsilon: float) -> float:
    """D_H^epsilon(r^n || g^n) from the full d^n product vectors."""
    return -greedy_log_b(product(r, n), product(g, n), 1.0 - epsilon)


def relative_entropy(r: np.ndarray, g: np.ndarray) -> float:
    pos = r > 0
    return float((r[pos] * np.log(r[pos] / g[pos])).sum())


def second_order(r: np.ndarray, g: np.ndarray, n: int, epsilon: float) -> float:
    """n D + sqrt(n V) Phi^-1(epsilon), the expansion of D_H^epsilon(r^n || g^n).

    Strassen 1962; Tomamichel & Hayashi, arXiv:1208.1478. The remainder is
    O(log n).
    """
    pos = r > 0
    lr = np.log(r[pos] / g[pos])
    d = float((r[pos] * lr).sum())
    v = float((r[pos] * (lr - d) ** 2).sum())
    return n * d + math.sqrt(n * v) * NormalDist().inv_cdf(epsilon)


BRUTE_MAX = 20_000
EXACT_TOL = 1e-9
# |D_H - (n D + sqrt(n V) Phi^-1(eps))| <= SLACK_LOG * ln n + SLACK_CONST.
# Over 5000 seeded states at these sizes the remainder never exceeded
# ln n + 2.8; at d = 2 the log-likelihood ratio is a lattice variable and
# the remainder oscillates by a few units around (1/2) ln n.
SLACK_LOG = 1.0
SLACK_CONST = 5.0


def d_h_matches(value, r, g, n, epsilon) -> bool:
    """Is ``value`` D_H^epsilon(r^n || g^n)?"""
    if r.size ** n <= BRUTE_MAX:
        want = d_h_brute(r, g, n, epsilon)
        return abs(value - want) <= EXACT_TOL * max(1.0, abs(want))
    return (abs(value - second_order(r, g, n, epsilon))
            <= SLACK_LOG * math.log(n) + SLACK_CONST)
