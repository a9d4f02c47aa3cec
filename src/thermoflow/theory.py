"""Theory contexts, systems, quasiclassical states, and equilibrium ensembles.

Conventions used throughout: k_B = 1 and natural logarithms, so work comes
out in units of k_B T through the 1/beta prefactor. All spectra are
discrete and finite; continuous degrees of freedom must be discretized by
the caller. Everything here is immutable after construction and every
operation is a pure function, so concurrent use needs no locking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    IntensivesInEntropyTheory,
    LabelMismatch,
    MissingParameter,
    NonPositiveBeta,
    NormalizationError,
    TooLarge,
)

ENERGY = "energy"
ENTROPY = "entropy"

# |sum(r) - 1| accepted as-is after construction.
NORMALIZATION_ATOL = 1e-12
# Inputs off by at most this much are renormalized; worse ones are rejected.
RENORMALIZE_ATOL = 1e-9
# Probabilities above this count as support for the eigensubspace predicate
# (below double-precision resolution of accumulated products).
SUPPORT_ATOL = 1e-15
# Cap on the number of type classes a compressed tensor power may hold.
MAX_TYPE_CLASSES = 1_000_000


def _as_float_vector(values, name: str, size: int | None = None) -> np.ndarray:
    try:
        if isinstance(values, list) and bool in map(type, values):  # JSON true is no number
            raise TypeError
        arr = np.array(values, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a list of numbers") from None
    except OverflowError:  # a JSON integer past the largest double
        raise ValueError(f"{name} holds a number beyond double range") from None
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    if size is not None and arr.size != size:
        raise DimensionMismatch(f"{name} must have {size} entries, not {arr.size}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class TheoryContext:
    """One resource theory: a representation plus the bath's intensive values.

    In the energy representation the context carries the inverse
    temperature beta and the values p_i conjugate to the state operators
    beyond energy. The entropy representation models closed isolated
    systems: it has no bath at all, so beta (the zeroth intensive value)
    and the intensive list must both be absent, and its equilibrium
    ensemble is uniform.

    Note that no consistency of the intensive values among themselves is
    enforced: how many may be chosen independently is the modeler's
    responsibility.
    """

    representation: str
    beta: float | None = None
    intensive: tuple[tuple[str, float], ...] = ()

    def __post_init__(self):
        if self.representation not in (ENERGY, ENTROPY):
            raise ValueError(f"unknown representation {self.representation!r}")
        pairs = tuple((str(label), float(value)) for label, value in self.intensive)
        object.__setattr__(self, "intensive", pairs)
        if self.representation == ENTROPY:
            if self.beta is not None or pairs:
                raise IntensivesInEntropyTheory(
                    "the entropy theory admits neither beta nor intensive values"
                )
            coeffs = np.zeros(0)
        else:
            if self.beta is None or not math.isfinite(self.beta) or self.beta <= 0:
                raise NonPositiveBeta(f"beta must be finite and positive, got {self.beta}")
            object.__setattr__(self, "beta", float(self.beta))
            for label, value in pairs:
                if not math.isfinite(value):
                    raise ValueError(f"intensive value {label!r} must be finite")
            coeffs = np.concatenate(([self.beta], -self.beta * np.array([v for _, v in pairs])))
        coeffs.flags.writeable = False
        object.__setattr__(self, "_coeffs", coeffs)

    @property
    def n_state_operators(self) -> int:
        """Operators a system of this theory must carry (j+1, or 0)."""
        if self.representation == ENTROPY:
            return 0
        return 1 + len(self.intensive)

    def entropy_intensives(self) -> np.ndarray:
        """Derived coefficients (F_0, ..., F_j) = (beta, -beta p_1, ...).

        Empty in the entropy representation, where every equilibrium
        exponent is zero. Built once per context and read-only.
        """
        return self._coeffs


def make_context(representation: str, beta=None, intensive=()) -> TheoryContext:
    """Validated theory context.

    ``intensive`` is an ordered sequence of (label, value) pairs, one per
    state operator beyond energy.
    """
    return TheoryContext(representation, beta, tuple(intensive))


def preset(kind: str, **params) -> TheoryContext:
    """Named contexts whose free states are the familiar ensembles.

    kind            parameters
    --------------  ----------------------------------------------------
    entropy         none
    helmholtz       beta
    grand_potential beta, mu (number, sequence, or {label: value} mapping)
    gibbs           beta, pressure (enters as the intensive value -p)
    magnetic        beta, field (number or sequence of components)
    """
    def require(name):
        if name not in params or params[name] is None:
            raise MissingParameter(f"preset {kind!r} needs parameter {name!r}")
        return params[name]

    if kind == "entropy":
        return make_context(ENTROPY)
    if kind == "helmholtz":
        return make_context(ENERGY, require("beta"))
    # kind -> (parameter, label, sign of the intensive value)
    shapes = {"grand_potential": ("mu", "mu", 1.0), "gibbs": ("pressure", "-p", -1.0),
              "magnetic": ("field", "B", 1.0)}
    if kind not in shapes:
        raise ValueError(f"unknown preset kind {kind!r}")
    name, label, sign = shapes[kind]
    beta, value = require("beta"), require(name)
    if kind == "grand_potential" and isinstance(value, dict):
        pairs = [(f"{label}_{k}", float(v)) for k, v in value.items()]
    elif np.ndim(value) == 0:
        pairs = [(label, sign * float(value))]
    else:
        pairs = [(f"{label}_{i + 1}", sign * float(v)) for i, v in enumerate(value)]
    return make_context(ENERGY, beta, pairs)


def gravitational_chemical_potential(mu: float, mass: float, gravity: float,
                                     height: float) -> float:
    """Chemical potential with the gravitational term folded in.

    A particle of the given mass sitting at the given height in a uniform
    field contributes mass * gravity * height of potential energy, which
    acts exactly like a shift of the phase's chemical potential.
    """
    return float(mu) + float(mass) * float(gravity) * float(height)


@dataclass(frozen=True, eq=False)
class SystemSpec:
    """Jointly diagonal operator table of one system.

    ``operators[i] = (label, eigenvalues)`` where index alpha refers to
    the same shared eigenstate across every operator; in the energy
    representation entry 0 is the energy operator. ``nonstate_blocks``
    holds the behind-the-scenes operators that never enter equilibrium
    weights but constrain supports.
    """

    dim: int
    operators: tuple = ()
    nonstate_blocks: tuple = ()

    def __post_init__(self):
        if int(self.dim) < 1:
            raise ValueError("dim must be at least 1")
        object.__setattr__(self, "dim", int(self.dim))
        for name in ("operators", "nonstate_blocks"):
            checked = []
            for label, eig in getattr(self, name):
                arr = _as_float_vector(eig, f"eigenvalues of {label!r}", self.dim)
                checked.append((str(label), arr))
            object.__setattr__(self, name, tuple(checked))
        table = np.array([eig for _, eig in self.operators], dtype=float).reshape(-1, self.dim)
        table.flags.writeable = False
        object.__setattr__(self, "_table", table)

    @property
    def labels(self) -> tuple:
        return tuple(label for label, _ in self.operators)

    @property
    def nonstate_labels(self) -> tuple:
        return tuple(label for label, _ in self.nonstate_blocks)

    def operator_matrix(self) -> np.ndarray:
        """Eigenvalue table stacked as an (n_operators, dim) array (read-only)."""
        return self._table


@dataclass(frozen=True, eq=False)
class QuasiclassicalState:
    """A system together with the probability vector over its eigenstates."""

    spec: SystemSpec
    r: np.ndarray

    def __post_init__(self):
        arr = np.array(self.r, dtype=float)
        if arr.ndim != 1 or arr.size != self.spec.dim:
            raise DimensionMismatch(
                f"state vector has length {arr.size}, spec dimension is {self.spec.dim}"
            )
        if not (arr >= -NORMALIZATION_ATOL).all():  # false for NaN too
            raise NormalizationError("probabilities must be finite and nonnegative")
        np.maximum(arr, 0.0, out=arr)
        total = float(arr.sum())
        if abs(total - 1.0) > RENORMALIZE_ATOL:
            raise NormalizationError(f"probabilities sum to {total!r}, too far from 1")
        if abs(total - 1.0) > NORMALIZATION_ATOL:
            arr /= total
        arr.flags.writeable = False
        object.__setattr__(self, "r", arr)

    @property
    def dim(self) -> int:
        return self.spec.dim


def _check_operator_count(spec: SystemSpec, ctx: TheoryContext):
    expected = ctx.n_state_operators
    if len(spec.operators) != expected:
        raise DimensionMismatch(
            f"context expects {expected} state operators, spec has {len(spec.operators)}"
        )


def equilibrium_exponents(spec: SystemSpec, ctx: TheoryContext) -> np.ndarray:
    """Per-eigenstate exponent -(F_0 x_0 + ... + F_j x_j); zeros in entropy theory."""
    _check_operator_count(spec, ctx)
    coeffs = ctx.entropy_intensives()
    if coeffs.size == 0:
        return np.zeros(spec.dim)
    with np.errstate(over="ignore"):  # _equilibrium rejects exponents that overflow
        return -(coeffs @ spec.operator_matrix())


def _normalized_weights(e: np.ndarray) -> tuple[np.ndarray, float]:
    """Equilibrium probabilities and ln Z from exponents ``e`` shifted by their maximum."""
    m = float(e.max())
    if not math.isfinite(float(e.min()) - m):
        raise OverflowError(f"equilibrium exponents span [{float(e.min())!r}, {m!r}], "
                            "wider than double range")
    w = np.exp(e - m)
    total = w.sum()
    w /= total
    return w, m + math.log(total)


def _equilibrium(spec: SystemSpec, ctx: TheoryContext) -> tuple[np.ndarray, float]:
    return _normalized_weights(equilibrium_exponents(spec, ctx))


def _log_equilibrium(spec: SystemSpec, ctx: TheoryContext) -> np.ndarray:
    """ln g: np.log(g) where g is a normal double, exponent - ln Z where it underflows."""
    e = equilibrium_exponents(spec, ctx)
    g, log_z = _normalized_weights(e)
    normal = g >= np.finfo(float).tiny
    return np.where(normal, np.log(np.where(normal, g, 1.0)), e - log_z)


def log_partition_function(spec: SystemSpec, ctx: TheoryContext) -> float:
    """ln Z, computed with max-exponent shifting so extreme spectra stay finite."""
    return _equilibrium(spec, ctx)[1]


def partition_function(spec: SystemSpec, ctx: TheoryContext) -> float:
    """Z = sum of the equilibrium weights."""
    return math.exp(log_partition_function(spec, ctx))


def gibbs_state(spec: SystemSpec, ctx: TheoryContext) -> QuasiclassicalState:
    """The equilibrium (free) state of ``spec`` under ``ctx``.

    Entry alpha is exp(-(F_0 x_0 + ... + F_j x_j)) / Z; in the entropy
    representation this reduces to the uniform vector. The result is
    strictly positive whenever the eigenvalues are finite.
    """
    return QuasiclassicalState(spec, _equilibrium(spec, ctx)[0])


def compose_specs(a: SystemSpec, b: SystemSpec) -> SystemSpec:
    """Operator table of the joint system; eigenvalues add pairwise.

    The joint index runs row-major with the left factor major:
    (alpha, beta) -> alpha * b.dim + beta.
    """
    if a.labels != b.labels:
        raise LabelMismatch(f"state operators differ: {a.labels} vs {b.labels}")
    ops = tuple(
        (label, np.add.outer(ea, eb).ravel())
        for (label, ea), (_, eb) in zip(a.operators, b.operators)
    )
    # Non-state blocks: union of labels, a's first; a side that lacks one contributes zeros.
    table_a, table_b = dict(a.nonstate_blocks), dict(b.nonstate_blocks)
    blocks = tuple((label, np.add.outer(table_a.get(label, np.zeros(a.dim)),
                                        table_b.get(label, np.zeros(b.dim))).ravel())
                   for label in {**table_a, **table_b})
    return SystemSpec(a.dim * b.dim, ops, blocks)


def compose(a: QuasiclassicalState, b: QuasiclassicalState) -> QuasiclassicalState:
    """Joint state r_a (x) r_b on the composed spec."""
    spec = compose_specs(a.spec, b.spec)
    return QuasiclassicalState(spec, np.outer(a.r, b.r).ravel())


@dataclass(frozen=True, eq=False)
class CompressedState:
    """Type-class compression of the n-fold product of a state.

    Three float64 tables, one entry per composition k of n over the s outcomes
    where r > 0, in ascending lexicographic order: log multinomial(n; k), and
    log prod r^k and log prod g^k added left to right; log_r is finite. A
    class's total r mass is exp(log_mult + log_r), which stays well inside
    double range even when the factors do not.
    """

    n: int
    log_mult: np.ndarray
    log_r: np.ndarray
    log_g: np.ndarray

    @property
    def n_classes(self) -> int:
        return self.log_mult.size


def _type_classes(n: int, a: np.ndarray, b: np.ndarray):
    """ln multinomial(n; k), k.a and k.b for every composition k of n into
    d parts, in ascending lexicographic order of k (the many-copy test's
    stable argsort breaks ties between equal ratios in this order). No row k
    is built: each level adds ln k_i!, k_i a_i and k_i b_i left to right, as a
    Python loop over i would."""
    if a.size == 1:  # one class of multiplicity 1; skip the (n + 1)-entry table
        return np.zeros(1), np.array([n * a[0]]), np.array([n * b[0]])
    logfact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, n + 1)))))
    k = np.arange(n + 1)  # the first level: k_1 = 0..n
    log_den, sum_a, sum_b, rest = logfact.copy(), k * a[0], k * b[0], n - k
    for i in range(1, a.size - 1):
        counts = rest + 1
        k = np.arange(counts.sum())
        k -= np.repeat(np.cumsum(counts) - counts, counts)
        log_den = np.repeat(log_den, counts)
        log_den += logfact[k]
        sum_a = np.repeat(sum_a, counts)
        sum_a += k * a[i]
        sum_b = np.repeat(sum_b, counts)
        sum_b += k * b[i]
        rest = np.repeat(rest, counts)
        rest -= k
    del k
    log_den += logfact[rest]
    sum_a += rest * a[-1]
    sum_b += rest * b[-1]
    return np.subtract(logfact[n], log_den, out=log_den), sum_a, sum_b


def tensor_power_compressed(state: QuasiclassicalState, ctx: TheoryContext,
                            n: int) -> CompressedState:
    """n-fold product of ``state`` grouped by type class.

    Only the s levels where r > 0 enter: a class that counts any other level
    has r mass 0. The class count is binomial(n + s - 1, s - 1); anything
    above one million classes raises TooLarge rather than exhausting memory.
    The tables are folded from ln r, ln g and log factorials
    (``_type_classes``), so total r and g masses are conserved to well within 1e-9.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    live = state.r > 0.0
    s = int(np.count_nonzero(live))
    count = math.comb(n + s - 1, s - 1)
    if count > MAX_TYPE_CLASSES:
        raise TooLarge(f"n = {n} copies of the s = {s} levels where r > 0: "
                       f"{count} type classes exceed the cap of {MAX_TYPE_CLASSES}")
    log_g = _log_equilibrium(state.spec, ctx)[live]
    # A class ln g below -1.8e308 is a g mass that rounds to 0, and -inf is that rounding.
    with np.errstate(over="ignore"):
        return CompressedState(n, *_type_classes(n, np.log(state.r[live]), log_g))


def support_in_one_eigensubspace(r: np.ndarray, eigenvalue_lists) -> bool:
    """Whether supp(r) sees a single eigenvalue of each list (true if none)."""
    support = r > SUPPORT_ATOL
    for eig in eigenvalue_lists:
        values = eig[support]
        if values.size and not np.all(values == values[0]):
            return False
    return True

