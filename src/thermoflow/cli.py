"""Command-line front end.

Subcommands: gibbs, lorenz, convert, work, rate, aep, validate, one
``_COMMANDS`` entry each. Inputs are JSON state descriptors; the context
comes from --ctx, from inline flags (--beta, --mu, --intensive
label=value), or from the state files, in that order of precedence.
``main`` loads the state files and resolves the context once; the kernel
only computes its text and exit code: 0 success or convertible, 1 not
convertible (or a failed validation). ``main`` alone writes the text, to
--out or to stdout, and turns any error into one ``error:`` line and
exit code 2. ``validate`` reads the raw descriptor, so it takes no context.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import asymptotics, convert, lorenz, oneshot, stateio, theory
from .errors import ThermoflowError, TooLarge


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


def _copy_count(n_arg: str, part: str) -> int:
    """One entry of ``--n``: an integer of at least 1."""
    try:
        if int(part) >= 1:
            return int(part)
    except ValueError:
        pass
    raise ValueError(f"--n {n_arg!r}: {part!r} is not a copy count of at least 1")


def _cmd_gibbs(args, ctx, state) -> tuple[str, int]:
    g, log_z = theory._equilibrium(state.spec, ctx)
    payload = stateio.state_to_dict(theory.QuasiclassicalState(state.spec, g), ctx)
    try:
        payload["partition_function"] = math.exp(log_z)
    except OverflowError:
        raise _outside_double_range(args.state, log_z) from None
    payload["log_partition_function"] = log_z
    return stateio.dumps(payload), 0


def _cmd_lorenz(args, ctx, state) -> tuple[str, int]:
    curve = lorenz.build_curve(state, ctx)
    try:
        width = curve.width
    except OverflowError:
        width = 0.0
    if width == 0.0:  # the points are Z u, so an underflowing Z is refused too
        raise _outside_double_range(args.state, curve.log_width)
    if args.format == "json":
        payload = {"points": [[float(x), float(y)] for x, y in curve.points], "width": width}
        return stateio.dumps(payload), 0
    return _csv("x,y", ((_fmt(x), _fmt(y)) for x, y in curve.points)), 0


def _cmd_convert(args, ctx, source, target) -> tuple[str, int]:
    query = convert.ConversionQuery(source, target, ctx)
    verdict = convert.can_convert(query)
    if args.witness:
        witness = convert.feasibility_oracle(query)
        if (witness is not None) != verdict:
            raise ArithmeticError("curve verdict and witness oracle disagree")
        if witness is not None:
            rows, cols = witness.shape
            payload = {"rows": rows, "cols": cols,
                       "entries": [float(v) for v in witness.entries.ravel()]}
            with open(args.witness, "w", encoding="utf-8") as handle:
                handle.write(stateio.dumps(payload))
    return ("convertible\n", 0) if verdict else ("not convertible\n", 1)


def _cmd_work(args, ctx, state) -> tuple[str, int]:
    """Yield, plus the cost bounds, which need epsilon > 0 (null at epsilon = 0)."""
    eps = args.epsilon
    gain = oneshot.w_gain(state, ctx, eps)
    lower, upper = oneshot.w_cost_bounds(state, ctx, eps) if eps > 0.0 else (None, None)
    return stateio.dumps({"epsilon": eps, "w_gain": gain,
                          "w_cost_lower": lower, "w_cost_upper": upper}), 0


def _cmd_rate(args, ctx, source, target) -> tuple[str, int]:
    return _fmt(asymptotics.conversion_rate(source, target, ctx)) + "\n", 0


def _cmd_aep(args, ctx, state) -> tuple[str, int]:
    n_list = [_copy_count(args.n, part) for part in args.n.split(",") if part]
    if not n_list:
        raise ValueError(f"--n {args.n!r} lists no copy count")
    try:
        sweep = asymptotics.aep_sweep(state, ctx, args.epsilon, n_list)
    except TooLarge as exc:
        raise TooLarge(f"--n {args.n!r}: {exc}") from None
    if args.format == "json":
        payload = {"epsilon": sweep.epsilon, "limit": sweep.limit,
                   "rows": [[n, pc] for n, pc in sweep.rows]}
        return stateio.dumps(payload), 0
    return _csv("n,per_copy_dh,limit",
                ((str(n), _fmt(pc), _fmt(sweep.limit)) for n, pc in sweep.rows)), 0


def _cmd_validate(args, _ctx) -> tuple[str, int]:
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


_OUT = ("--out", {})
_FORMAT = ("--format", {"choices": ("csv", "json"), "default": "csv"})
_CONTEXT_FLAGS = (
    ("--ctx", {"help": "context descriptor file"}),
    ("--beta", {"type": float, "help": "inverse temperature"}),
    ("--mu", {"type": float, "help": "chemical potential shortcut"}),
    ("--intensive", {"action": "append", "metavar": "LABEL=VALUE",
                     "help": "extra intensive value (repeatable)"}),
)

# name: (kernel, help, state-file positionals, further arguments in order)
_COMMANDS = {
    "gibbs": (_cmd_gibbs, "equilibrium state and partition function", ("state",), (_OUT,)),
    "lorenz": (_cmd_lorenz, "rescaled Lorenz curve breakpoints", ("state",), (_OUT, _FORMAT)),
    "convert": (_cmd_convert, "decide source -> target convertibility", ("source", "target"),
                (("--witness", {"help": "write a stochastic witness matrix here"}),)),
    "work": (_cmd_work, "work yield and cost bounds", ("state",),
             (("--epsilon", {"type": float, "default": 0.0}), _OUT)),
    "rate": (_cmd_rate, "asymptotic conversion rate", ("source", "target"), (_OUT,)),
    "aep": (_cmd_aep, "per-copy entropy sweep over tensor powers", ("state",),
            (("--epsilon", {"type": float, "required": True}),
             ("--n", {"required": True, "help": "comma-separated copy counts"}), _OUT, _FORMAT)),
    "validate": (_cmd_validate, "normalization and eigensubspace report", (),
                 (("state", {}), _OUT)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermoflow",
        description="Resource-theoretic thermodynamics for quasiclassical states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, files, extra) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in (*((f, {}) for f in files), *extra,
                             *(_CONTEXT_FLAGS if files else ())):
            p.add_argument(flag, **kwargs)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    kernel, _, files, _ = _COMMANDS[args.command]
    try:
        loaded = [stateio.load_state(getattr(args, f)) for f in files]
        ctx = _resolve_context(args, [c for c, _ in loaded]) if files else None
        text, code = kernel(args, ctx, *(s for _, s in loaded))
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
