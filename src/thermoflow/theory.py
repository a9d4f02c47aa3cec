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
    EntropyRepresentation,
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
        arr = np.array(values, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a list of numbers") from None
    except OverflowError:  # a JSON integer past the largest double
        raise ValueError(f"{name} holds a number beyond double range") from None
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if not np.all(np.isfinite(arr)):
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
    def temperature(self) -> float:
        """T = 1/beta (k_B = 1). Undefined in the entropy representation."""
        if self.beta is None:
            raise EntropyRepresentation("the entropy theory has no temperature")
        return 1.0 / self.beta

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
        if not np.all(arr >= -NORMALIZATION_ATOL):  # false for NaN too
            raise NormalizationError("probabilities must be finite and nonnegative")
        arr = np.clip(arr, 0.0, None)
        total = arr.sum()
        if abs(total - 1.0) > RENORMALIZE_ATOL:
            raise NormalizationError(f"probabilities sum to {float(total)!r}, too far from 1")
        if abs(total - 1.0) > NORMALIZATION_ATOL:
            arr = arr / total
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


def _equilibrium(spec: SystemSpec, ctx: TheoryContext) -> tuple[np.ndarray, float]:
    """Equilibrium probabilities and ln Z from exponents shifted by their maximum."""
    e = equilibrium_exponents(spec, ctx)
    m = float(e.max())
    if not math.isfinite(float(e.min()) - m):
        raise OverflowError(f"equilibrium exponents span [{float(e.min())!r}, {m!r}], "
                            "wider than double range")
    w = np.exp(e - m)
    total = w.sum()
    return w / total, m + math.log(total)


def _log_equilibrium(spec: SystemSpec, ctx: TheoryContext, g: np.ndarray) -> np.ndarray:
    """ln g: np.log(g) where g is a normal double, exponent - ln Z where it underflows."""
    normal = g >= np.finfo(float).tiny
    exact = equilibrium_exponents(spec, ctx) - log_partition_function(spec, ctx)
    return np.where(normal, np.log(np.where(normal, g, 1.0)), exact)


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


def _combine_blocks(blocks_a, blocks_b, dim_a, dim_b):
    # Union of labels; a side that lacks an operator contributes zeros.
    labels = [label for label, _ in blocks_a]
    labels += [label for label, _ in blocks_b if label not in labels]
    table_a = dict(blocks_a)
    table_b = dict(blocks_b)
    out = []
    for label in labels:
        left = table_a.get(label, np.zeros(dim_a))
        right = table_b.get(label, np.zeros(dim_b))
        out.append((label, np.add.outer(left, right).ravel()))
    return tuple(out)


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
    blocks = _combine_blocks(a.nonstate_blocks, b.nonstate_blocks, a.dim, b.dim)
    return SystemSpec(a.dim * b.dim, ops, blocks)


def compose(a: QuasiclassicalState, b: QuasiclassicalState) -> QuasiclassicalState:
    """Joint state r_a (x) r_b on the composed spec."""
    spec = compose_specs(a.spec, b.spec)
    return QuasiclassicalState(spec, np.outer(a.r, b.r).ravel())


@dataclass(frozen=True, eq=False)
class CompressedState:
    """Type-class compression of the n-fold product of a state.

    One row per composition vector k of n over the d outcomes, holding
    log multinomial(n; k), log prod r^k and log prod g^k (minus infinity
    where r has a zero in the class). ``r_mass`` and ``g_mass`` are the
    per-class totals multiplicity * value, which stay well inside double
    range even when the individual factors do not.
    """

    n: int
    log_mult: np.ndarray
    log_r: np.ndarray
    log_g: np.ndarray

    @property
    def n_classes(self) -> int:
        return self.log_mult.size

    @property
    def r_mass(self) -> np.ndarray:
        return np.exp(self.log_mult + self.log_r)

    @property
    def g_mass(self) -> np.ndarray:
        return np.exp(self.log_mult + self.log_g)


def _type_classes(n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Every composition k of n into d parts as a row of a float64 matrix,
    in ascending lexicographic order (the many-copy test's stable argsort
    breaks ties between equal ratios in this order), and log
    multinomial(n; k) per row, its ln k_i! added left to right as numpy's
    row sum does below 8 columns. A column keeps its own level's length
    until it is written, so one full-length column exists at a time."""
    if d == 1:  # one class of multiplicity 1; skip the (n + 1)-entry table
        return np.full((1, 1), float(n)), np.zeros(1)
    logfact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, n + 1)))))
    values, repeats = [], []
    rest, log_denominator = np.array([n]), np.zeros(1)
    for _ in range(d - 1):
        counts = rest + 1
        value = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        values.append(value)
        repeats.append(counts)
        log_denominator = np.repeat(log_denominator, counts) + logfact[value]
        rest = np.repeat(rest, counts) - value
    log_mult = logfact[n] - (log_denominator + logfact[rest])
    k = np.empty((rest.size, d))
    for i, column in enumerate(values + [rest]):
        for counts in repeats[i + 1:]:
            column = np.repeat(column, counts)
        k[:, i] = column
    return k, log_mult


def tensor_power_compressed(state: QuasiclassicalState, ctx: TheoryContext,
                            n: int) -> CompressedState:
    """n-fold product of ``state`` grouped by type class.

    The class count is binomial(n + d - 1, d - 1); anything above one
    million classes raises TooLarge rather than exhausting memory. log prod
    r^k and log prod g^k read one float64 count matrix; multinomial logs
    come from a cumulative log-factorial table, so total r and g masses are
    conserved to well within 1e-9.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    d = state.dim
    count = math.comb(n + d - 1, d - 1)
    if count > MAX_TYPE_CLASSES:
        raise TooLarge(f"{count} type classes exceed the cap of {MAX_TYPE_CLASSES}")
    k, log_mult = _type_classes(n, d)
    dead = state.r <= 0.0
    log_r = k @ np.log(np.where(dead, 1.0, state.r))
    if dead.any():
        # 0^0 = 1, but a class that uses a zero-probability outcome has none
        log_r[k[:, dead].any(axis=1)] = -np.inf
    return CompressedState(
        n=n,
        log_mult=log_mult,
        log_r=log_r,
        log_g=k @ _log_equilibrium(state.spec, ctx, _equilibrium(state.spec, ctx)[0]),
    )


def support_in_one_eigensubspace(r: np.ndarray, eigenvalue_lists) -> bool:
    """Whether supp(r) sees a single eigenvalue of each list (true if none)."""
    support = r > SUPPORT_ATOL
    for eig in eigenvalue_lists:
        values = eig[support]
        if values.size and not np.all(values == values[0]):
            return False
    return True


def validate_fixed_eigensubspace(state: QuasiclassicalState) -> bool:
    """Whether the support sits in one shared eigensubspace of every
    non-state operator. Vacuously true when there are none."""
    return support_in_one_eigensubspace(
        state.r, (eig for _, eig in state.spec.nonstate_blocks))
