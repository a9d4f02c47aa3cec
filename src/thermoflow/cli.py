"""Command-line front end.

Subcommands: gibbs, lorenz, convert, work, rate, aep, validate. Inputs
are JSON state descriptors; the context comes from --ctx, from inline
flags (--beta, --mu, --intensive label=value), or from the state file
itself, in that order of precedence. Exit codes: 0 success or
convertible, 1 not convertible (or a failed validation), 2 any error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import asymptotics, convert, lorenz, oneshot, stateio, theory
from .errors import ThermoflowError


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _write(args, text: str):
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _inline_context(args):
    pairs = []
    if getattr(args, "mu", None) is not None:
        pairs.append(("mu", args.mu))
    for raw in getattr(args, "intensive", None) or ():
        label, _, value = raw.partition("=")
        if not _:
            raise ValueError(f"--intensive expects label=value, got {raw!r}")
        pairs.append((label, float(value)))
    if getattr(args, "beta", None) is None:
        if pairs:
            raise ValueError("inline intensive values need --beta as well")
        return None
    return theory.make_context(theory.ENERGY, args.beta, pairs)


def _resolve_context(args, embedded):
    """Context file beats inline flags beats the state file's own fields."""
    inline = _inline_context(args)
    if getattr(args, "ctx", None):
        if inline is not None:
            print("warning: --ctx file overrides inline context flags",
                  file=sys.stderr)
        return stateio.load_context(args.ctx)
    if inline is not None:
        return inline
    if not embedded:
        raise ValueError("no context: give --ctx, inline flags, or a state file")
    first = embedded[0]
    for other in embedded[1:]:
        if stateio.context_to_dict(other) != stateio.context_to_dict(first):
            raise ValueError("state files carry different contexts; pass --ctx")
    return first


def _load_states(args, *paths):
    loaded = [stateio.load_state(p) for p in paths]
    ctx = _resolve_context(args, [c for c, _ in loaded])
    return ctx, [s for _, s in loaded]


def _cmd_gibbs(args) -> int:
    ctx, (state,) = _load_states(args, args.state)
    free = theory.gibbs_state(state.spec, ctx)
    payload = stateio.state_to_dict(free, ctx)
    payload["partition_function"] = theory.partition_function(state.spec, ctx)
    payload["log_partition_function"] = theory.log_partition_function(state.spec, ctx)
    _write(args, stateio.dumps(payload))
    return 0


def _cmd_lorenz(args) -> int:
    ctx, (state,) = _load_states(args, args.state)
    curve = lorenz.build_curve(state, ctx)
    try:
        width = curve.width
    except OverflowError:
        width = 0.0
    if width == 0.0:
        raise ValueError(f"{args.state}: partition function exp({curve.log_width!r}) "
                         "is outside double range")
    if args.format == "json":
        payload = {"points": [[float(x), float(y)] for x, y in curve.points],
                   "width": width}
        _write(args, stateio.dumps(payload))
    else:
        lines = ["x,y"]
        lines += [f"{_fmt(x)},{_fmt(y)}" for x, y in curve.points]
        _write(args, "\n".join(lines) + "\n")
    return 0


def _cmd_convert(args) -> int:
    ctx, (source, target) = _load_states(args, args.source, args.target)
    query = convert.ConversionQuery(source, target, ctx)
    verdict = convert.can_convert(query)
    if args.witness:
        witness = convert.feasibility_oracle(query)
        if (witness is not None) != verdict:
            print("error: curve verdict and witness oracle disagree", file=sys.stderr)
            return 2
        if witness is not None:
            rows, cols = witness.shape
            payload = {
                "rows": rows,
                "cols": cols,
                "entries": [float(v) for v in witness.entries.ravel()],
            }
            with open(args.witness, "w", encoding="utf-8") as handle:
                handle.write(stateio.dumps(payload))
    print("convertible" if verdict else "not convertible")
    return 0 if verdict else 1


def _cmd_work(args) -> int:
    ctx, (state,) = _load_states(args, args.state)
    report = oneshot.work_report(state, ctx, args.epsilon)
    payload = {
        "epsilon": report.epsilon,
        "w_gain": report.w_gain,
        "w_cost_lower": report.w_cost_lower,
        "w_cost_upper": report.w_cost_upper,
    }
    _write(args, stateio.dumps(payload))
    return 0


def _cmd_rate(args) -> int:
    ctx, (source, target) = _load_states(args, args.source, args.target)
    value = asymptotics.conversion_rate(source, target, ctx)
    _write(args, _fmt(value) + "\n")
    return 0


def _cmd_aep(args) -> int:
    ctx, (state,) = _load_states(args, args.state)
    n_list = [int(part) for part in args.n.split(",") if part]
    sweep = asymptotics.aep_sweep(state, ctx, args.epsilon, n_list)
    if args.format == "json":
        payload = {"epsilon": sweep.epsilon, "limit": sweep.limit,
                   "rows": [[n, pc] for n, pc in sweep.rows]}
        _write(args, stateio.dumps(payload))
    else:
        lines = ["n,per_copy_dh,limit"]
        lines += [f"{n},{_fmt(pc)},{_fmt(sweep.limit)}" for n, pc in sweep.rows]
        _write(args, "\n".join(lines) + "\n")
    return 0


def _spectra(path, data, field):
    """(label, eigenvalues) pairs under ``field``, each finite and one-dimensional."""
    entries = data.get(field, [])
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ValueError(f"{path}: {field!r} must be a list of objects")
    return tuple(
        (entry["label"], theory._as_float_vector(
            entry["eigenvalues"], f"{path}: {field!r} eigenvalues of {entry['label']!r}"))
        for entry in entries)


def _cmd_validate(args) -> int:
    with open(args.state, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    ctx = stateio.context_from_dict(data)
    if "r" not in data:
        raise ValueError("state descriptor lacks 'r'")
    r = theory._as_float_vector(data["r"], f"{args.state}: 'r'")
    spec = theory.SystemSpec(r.size, _spectra(args.state, data, "operators"),
                             _spectra(args.state, data, "nonstate"))
    theory._check_operator_count(spec, ctx)
    total = float(r.sum())
    nonnegative = bool(np.all(r >= -theory.NORMALIZATION_ATOL))
    normalized = abs(total - 1.0) <= theory.RENORMALIZE_ATOL
    fixed = theory.support_in_one_eigensubspace(r, (eig for _, eig in spec.nonstate_blocks))
    payload = {
        "sum_r": total,
        "nonnegative": nonnegative,
        "normalized": normalized,
        "fixed_eigensubspace": fixed,
    }
    _write(args, stateio.dumps(payload))
    return 0 if (nonnegative and normalized and fixed) else 1


def _add_context_flags(parser):
    parser.add_argument("--ctx", help="context descriptor file")
    parser.add_argument("--beta", type=float, help="inverse temperature")
    parser.add_argument("--mu", type=float, help="chemical potential shortcut")
    parser.add_argument("--intensive", action="append", metavar="LABEL=VALUE",
                        help="extra intensive value (repeatable)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermoflow",
        description="Resource-theoretic thermodynamics for quasiclassical states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gibbs", help="equilibrium state and partition function")
    p.add_argument("state")
    p.add_argument("--out")
    _add_context_flags(p)
    p.set_defaults(func=_cmd_gibbs)

    p = sub.add_parser("lorenz", help="rescaled Lorenz curve breakpoints")
    p.add_argument("state")
    p.add_argument("--out")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_context_flags(p)
    p.set_defaults(func=_cmd_lorenz)

    p = sub.add_parser("convert", help="decide source -> target convertibility")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--witness", help="write a stochastic witness matrix here")
    _add_context_flags(p)
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("work", help="work yield and cost bounds")
    p.add_argument("state")
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--out")
    _add_context_flags(p)
    p.set_defaults(func=_cmd_work)

    p = sub.add_parser("rate", help="asymptotic conversion rate")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--out")
    _add_context_flags(p)
    p.set_defaults(func=_cmd_rate)

    p = sub.add_parser("aep", help="per-copy entropy sweep over tensor powers")
    p.add_argument("state")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--n", required=True, help="comma-separated copy counts")
    p.add_argument("--out")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_context_flags(p)
    p.set_defaults(func=_cmd_aep)

    p = sub.add_parser("validate", help="normalization and eigensubspace report")
    p.add_argument("state")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ThermoflowError, ValueError, KeyError, IndexError, TypeError,
            OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
