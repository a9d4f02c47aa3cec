"""JSON descriptors for contexts and states.

One descriptor carries the context (representation, beta, intensive
values) alongside the system (operators, optional non-state blocks) and
the probability vector, so a single file round-trips through the loader:

    {
      "representation": "energy" | "entropy",
      "beta": number,                     # energy representation only
      "intensive": [{"label": s, "value": x}, ...],
      "operators": [{"label": s, "eigenvalues": [...]}, ...],
      "r": [...],
      "nonstate": [{"label": s, "eigenvalues": [...]}, ...]   # optional
    }

Floats are emitted with shortest exact repr, so a decimal round trip
reproduces the doubles bit for bit. Loaders check every field's type and
shape, and their error messages begin "<path>: '<field>'".
"""

from __future__ import annotations

import json
import math

from .errors import ThermoflowError
from .theory import (
    ENERGY,
    QuasiclassicalState,
    SystemSpec,
    TheoryContext,
    _as_float_vector,
    make_context,
)


def context_to_dict(ctx: TheoryContext) -> dict:
    out = {"representation": ctx.representation}
    if ctx.representation == ENERGY:
        out["beta"] = ctx.beta
    out["intensive"] = [{"label": l, "value": v} for l, v in ctx.intensive]
    return out


def _where(source) -> str:
    return "" if source is None else f"{source}: "


def _built(where: str, build, *args):
    """build(*args), with ``where`` put in front of any error message it raises."""
    try:
        return build(*args)
    except (ThermoflowError, ValueError) as exc:  # a JSONDecodeError comes out a ValueError
        kind = type(exc) if isinstance(exc, ThermoflowError) else ValueError
        raise kind(f"{where}{exc}") from None


def _number(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, not {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:  # a JSON integer past the largest double
        raise ValueError(f"{name} is beyond double range") from None


def _objects(data: dict, field: str, keys: tuple, where: str) -> list:
    """The list under ``field`` (empty when absent) of objects that hold ``keys``."""
    entries = data.get(field, [])
    if not isinstance(entries, list) or not all(
            isinstance(entry, dict) and set(keys) <= entry.keys() for entry in entries):
        raise ValueError(f"{where}{field!r} must be a list of objects with {' and '.join(keys)}")
    return entries


def context_from_dict(data: dict, source=None) -> TheoryContext:
    """Context of one descriptor; error messages start with ``source`` (a path) if given."""
    where = _where(source)
    if not isinstance(data, dict) or "representation" not in data:
        raise ValueError(f"{where}context descriptor must be a JSON object with 'representation'")
    beta = None if data.get("beta") is None else _number(data["beta"], f"{where}'beta'")
    intensive = [(entry["label"], _number(entry["value"], f"{where}'intensive' {entry['label']!r}"))
                 for entry in _objects(data, "intensive", ("label", "value"), where)]
    return _built(where, make_context, data["representation"], beta, intensive)


def _blocks_to_json(blocks) -> list:
    return [
        {"label": label, "eigenvalues": [float(v) for v in eig]}
        for label, eig in blocks
    ]


def _spectra(data: dict, field: str, dim: int, where: str) -> tuple:
    """(label, eigenvalues) pairs under ``field``, each finite, 1-D and ``dim`` long."""
    return tuple((entry["label"], _as_float_vector(
        entry["eigenvalues"], f"{where}{field!r} eigenvalues of {entry['label']!r}", dim))
        for entry in _objects(data, field, ("label", "eigenvalues"), where))


def _descriptor(data: dict, source=None):
    """(context, spec, r) of one descriptor, r checked only as a finite vector."""
    ctx, where = context_from_dict(data, source), _where(source)
    if "r" not in data:
        raise ValueError(f"{where}state descriptor lacks 'r'")
    r = _as_float_vector(data["r"], f"{where}'r'")
    blocks = (_spectra(data, field, r.size, where) for field in ("operators", "nonstate"))
    return ctx, _built(f"{where}'r': ", SystemSpec, r.size, *blocks), r


def state_to_dict(state: QuasiclassicalState, ctx: TheoryContext) -> dict:
    out = context_to_dict(ctx)
    out["operators"] = _blocks_to_json(state.spec.operators)
    out["r"] = [float(v) for v in state.r]
    if state.spec.nonstate_blocks:
        out["nonstate"] = _blocks_to_json(state.spec.nonstate_blocks)
    return out


def state_from_dict(data: dict, source=None):
    """(context, state) from one descriptor."""
    ctx, spec, r = _descriptor(data, source)
    return ctx, _built(f"{_where(source)}'r': ", QuasiclassicalState, spec, r)


def _read(path):
    with open(path, "r", encoding="utf-8") as handle:
        return _built(f"{path}: not valid JSON: ", json.load, handle)


def read_descriptor(path):
    """(context, spec, r) parsed from a descriptor file, r not yet normalized."""
    return _descriptor(_read(path), path)


def load_state(path):
    """(context, state) parsed from a descriptor file."""
    return state_from_dict(_read(path), path)


def load_context(path) -> TheoryContext:
    return context_from_dict(_read(path), path)


def _non_finite(value, path: str):
    """"'<path>' is <value>" for the first inf or nan within ``value``, else None."""
    if isinstance(value, float):
        return None if math.isfinite(value) else f"{path!r} is {value}"
    if isinstance(value, dict):
        items = ((f"{path}.{key}" if path else key, item) for key, item in value.items())
    elif isinstance(value, (list, tuple)):
        items = ((f"{path}[{i}]", item) for i, item in enumerate(value))
    else:
        return None
    return next(filter(None, (_non_finite(item, where) for where, item in items)), None)


def dumps(payload: dict) -> str:
    """Strict JSON text, two-space indent, insertion key order; an inf or nan names its field."""
    try:
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"
    except ValueError:
        raise ValueError(f"{_non_finite(payload, '')}; strict JSON has no inf or nan") from None
