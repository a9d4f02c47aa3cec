"""Command-line front end.

Subcommands: gibbs, lorenz, convert, work, rate, aep, validate. Inputs
are JSON state descriptors; the context comes from --ctx, from inline
flags (--beta, --mu, --intensive label=value), or from the state file
itself, in that order of precedence. Each command returns its output
text and exit code: 0 success or convertible, 1 not convertible (or a
failed validation). ``main`` alone writes the text, to --out or to
stdout, and turns any error into one ``error:`` line and exit code 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

import numpy as np

from . import asymptotics, convert, lorenz, oneshot, stateio, theory
from .errors import ThermoflowError


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _csv(header: str, rows) -> str:
    """``header`` and then one line per row of formatted cells."""
    return "".join(line + "\n" for line in [header, *map(",".join, rows)])


def _outside_double_range(path: str, log_z: float) -> ValueError:
    return ValueError(f"{path}: partition function exp({log_z!r}) is outside double range")


def _inline_context(args):
    pairs = []
    if args.mu is not None:
        pairs.append(("mu", args.mu))
    for raw in args.intensive or ():
        label, _, value = raw.partition("=")
        if not _:
            raise ValueError(f"--intensive expects label=value, got {raw!r}")
        pairs.append((label, float(value)))
    if args.beta is None:
        if pairs:
            raise ValueError("inline intensive values need --beta as well")
        return None
    return theory.make_context(theory.ENERGY, args.beta, pairs)


def _resolve_context(args, embedded):
    """Context file beats inline flags beats the state file's own fields."""
    inline = _inline_context(args)
    if args.ctx:
        if inline is not None:
            print("warning: --ctx file overrides inline context flags",
                  file=sys.stderr)
        return stateio.load_context(args.ctx)
    if inline is not None:
        return inline
    if any(other != embedded[0] for other in embedded[1:]):
        raise ValueError("state files carry different contexts; pass --ctx")
    return embedded[0]


def _load_states(args, *paths):
    loaded = [stateio.load_state(p) for p in paths]
    ctx = _resolve_context(args, [c for c, _ in loaded])
    return ctx, [s for _, s in loaded]


def _cmd_gibbs(args) -> tuple[str, int]:
    ctx, (state,) = _load_states(args, args.state)
    g, log_z = theory._equilibrium(state.spec, ctx)
    payload = stateio.state_to_dict(theory.QuasiclassicalState(state.spec, g), ctx)
    try:
        payload["partition_function"] = math.exp(log_z)
    except OverflowError:
        raise _outside_double_range(args.state, log_z) from None
    payload["log_partition_function"] = log_z
    return stateio.dumps(payload), 0


def _cmd_lorenz(args) -> tuple[str, int]:
    ctx, (state,) = _load_states(args, args.state)
    curve = lorenz.build_curve(state, ctx)
    try:
        width = curve.width
    except OverflowError:
        width = 0.0
    if width == 0.0:  # the points are Z u, so an underflowing Z is refused too
        raise _outside_double_range(args.state, curve.log_width)
    if args.format == "json":
        payload = {"points": [[float(x), float(y)] for x, y in curve.points],
                   "width": width}
        return stateio.dumps(payload), 0
    return _csv("x,y", ((_fmt(x), _fmt(y)) for x, y in curve.points)), 0


def _cmd_convert(args) -> tuple[str, int]:
    ctx, (source, target) = _load_states(args, args.source, args.target)
    query = convert.ConversionQuery(source, target, ctx)
    verdict = convert.can_convert(query)
    if args.witness:
        witness = convert.feasibility_oracle(query)
        if (witness is not None) != verdict:
            raise ArithmeticError("curve verdict and witness oracle disagree")
        if witness is not None:
            rows, cols = witness.shape
            payload = {
                "rows": rows,
                "cols": cols,
                "entries": [float(v) for v in witness.entries.ravel()],
            }
            with open(args.witness, "w", encoding="utf-8") as handle:
                handle.write(stateio.dumps(payload))
    return ("convertible\n", 0) if verdict else ("not convertible\n", 1)


def _cmd_work(args) -> tuple[str, int]:
    ctx, (state,) = _load_states(args, args.state)
    report = oneshot.work_report(state, ctx, args.epsilon)
    return stateio.dumps(dataclasses.asdict(report)), 0


def _cmd_rate(args) -> tuple[str, int]:
    ctx, (source, target) = _load_states(args, args.source, args.target)
    return _fmt(asymptotics.conversion_rate(source, target, ctx)) + "\n", 0


def _cmd_aep(args) -> tuple[str, int]:
    ctx, (state,) = _load_states(args, args.state)
    n_list = [int(part) for part in args.n.split(",") if part]
    sweep = asymptotics.aep_sweep(state, ctx, args.epsilon, n_list)
    if args.format == "json":
        payload = {"epsilon": sweep.epsilon, "limit": sweep.limit,
                   "rows": [[n, pc] for n, pc in sweep.rows]}
        return stateio.dumps(payload), 0
    return _csv("n,per_copy_dh,limit",
                ((str(n), _fmt(pc), _fmt(sweep.limit)) for n, pc in sweep.rows)), 0


def _cmd_validate(args) -> tuple[str, int]:
    ctx, spec, r = stateio.read_descriptor(args.state)
    theory._check_operator_count(spec, ctx)
    total = float(r.sum())
    checks = {
        "nonnegative": bool(np.all(r >= -theory.NORMALIZATION_ATOL)),
        "normalized": abs(total - 1.0) <= theory.RENORMALIZE_ATOL,
        "fixed_eigensubspace": theory.support_in_one_eigensubspace(
            r, (eig for _, eig in spec.nonstate_blocks)),
    }
    return stateio.dumps({"sum_r": total, **checks}), 0 if all(checks.values()) else 1


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
    args = build_parser().parse_args(argv)
    try:
        text, code = args.func(args)
        if getattr(args, "out", None):  # convert has no --out
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
    except (ThermoflowError, ValueError, KeyError, IndexError, TypeError,
            OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
