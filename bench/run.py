"""Run one thermoflow benchmark workload and print its metrics as JSON.

    python3 bench/run.py --workload single-shot --seed 1 --seconds 20 --trace 0

Run from the repository root (or any copy of it holding ``src/`` and
``bench/``). The workload runs as a closed loop with one operation in
flight, repeating whole rounds of the same seeded operations until
``--seconds`` of timed work, at least 100 operations and at least 5
rounds are done. Every output is checked against an independent
computation; a wrong answer or an exception counts as a failed
operation. The last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones. With ``--trace
1`` thermoflow's public functions are wrapped in spans and the metrics
are per-layer self times and counts; every workload runs traced (the
named one for ``--seconds``, the others for one round) so that every
layer is measured, and ``attempted``/``failed`` are the named one's.
Results go to bench/results/, spans of each workload's first traced
round to bench/results/trace-<workload>-seed<seed>.json.
"""

import time

START = time.perf_counter()

import os  # noqa: E402

# One BLAS/OpenMP thread here and in every CLI child: OpenBLAS otherwise
# starts a thread pool per process, which costs start-up time and CPU.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
MIN_OPS = 100
MIN_ROUNDS = 5
SETUP_PROBES = 6
INTERPRETER_PROBES = 10


@dataclasses.dataclass
class Measurement:
    durations_ns: list
    busy_s: float
    rounds: int
    failed: int
    unexpected: int

    @property
    def attempted(self) -> int:
        return len(self.durations_ns)

    def ops_per_s(self, q: float) -> float:
        """Completed operations per second at the round time the cases' q-quantiles add up to."""
        completed_per_round = (self.attempted - self.failed) / self.rounds
        return completed_per_round / (sum(self.case_times_ms(q)) / 1e3)

    def case_times_ms(self, q: float) -> list:
        """Each case's q-quantile duration over the rounds (see Workload.case_quantile)."""
        n = len(self.durations_ns) // self.rounds
        return [_quantile(self.durations_ns[i::n], q) / 1e6 for i in range(n)]


def _quantile(values, q: float) -> float:
    """Linear interpolation between closest ranks; q = 0.5 gives the median."""
    ordered = sorted(values)
    k = (len(ordered) - 1) * q
    i = int(k)
    if i + 1 >= len(ordered):
        return ordered[-1]
    return ordered[i] + (k - i) * (ordered[i + 1] - ordered[i])


def passes(case, out) -> bool:
    if isinstance(out, Exception):
        return False
    try:
        return bool(case.check(out))
    except Exception:  # a malformed output fails its check
        return False


def measure(cases, seconds: float, min_ops: int, min_rounds: int) -> Measurement:
    """Whole rounds of ``cases`` until ``seconds`` of work, ``min_ops``
    operations and ``min_rounds`` rounds are done.

    Garbage is collected before each round; checks run between rounds,
    outside the timed work.
    """
    m = Measurement([], 0.0, 0, 0, 0)
    while m.rounds < min_rounds or m.busy_s < seconds or m.attempted < min_ops:
        gc.collect()
        outputs = []
        round_start = time.perf_counter()
        for case in cases:
            t = time.perf_counter_ns()
            try:
                out = case.run()
            except Exception as exc:  # the program's failure is the result
                out = exc
            m.durations_ns.append(time.perf_counter_ns() - t)
            outputs.append(out)
        m.busy_s += time.perf_counter() - round_start
        m.rounds += 1
        for case, out in zip(cases, outputs):
            if not passes(case, out):
                m.failed += 1
                m.unexpected += case.fault is None
    return m


def run_once(cases):
    for case in cases:
        try:
            case.run()
        except Exception:
            pass


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def setup_probe(args) -> float:
    """Set-up time of a fresh process: import, input construction, warm-up."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
            "--setup-probe"]
    done = subprocess.run(argv, capture_output=True, text=True, check=True, cwd=ROOT)
    return float(done.stdout.strip().splitlines()[-1])


def end_to_end(args, wl) -> tuple:
    result = measure(wl.cases, args.seconds, MIN_OPS, MIN_ROUNDS)
    if wl.peak_rss_mb is not None:
        rss_mb = wl.peak_rss_mb()
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups = [args.setup_s] + [setup_probe(args) for _ in range(SETUP_PROBES)]
    times = result.case_times_ms(wl.case_quantile)
    metrics = {
        "ops_per_s": (result.ops_per_s(wl.case_quantile), "1/s"),
        "op_p50_ms": (statistics.median(times), "ms"),
        "op_p90_ms": (statistics.quantiles(times, n=10)[-1], "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    print(f"{args.workload}: {result.attempted} operations in {result.rounds} rounds, "
          f"{result.busy_s:.2f} s timed", file=sys.stderr)
    return result, metrics


def _probe_wall_ms(code: str) -> float:
    times = []
    for _ in range(INTERPRETER_PROBES):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=child_env(), check=True)
        times.append((time.perf_counter() - t) * 1e3)
    return statistics.median(times)


def per_layer(args, named_wl, workdir) -> tuple:
    import tracing
    import workloads

    tracer = tracing.Tracer()
    tracing.install(tracer)
    rounds, named, unexpected = {}, None, 0
    for name in workloads.NAMES:
        wl = named_wl if name == args.workload else workloads.build(name, args.seed, workdir)
        tracer.begin_workload(None, 0)
        run_once(wl.warmup)
        cases = [dataclasses.replace(c, run=tracer.root(c.kind, c.run))
                 for c in wl.traced_cases]
        tracer.begin_workload(name, len(cases))
        is_named = name == args.workload
        if is_named:
            result = measure(cases, args.seconds, MIN_OPS, MIN_ROUNDS)
        else:
            result = measure(cases, 0.0, 0, 1)
        rounds[name] = result.rounds
        unexpected += result.unexpected
        if is_named:
            named = result
            print(f"traced {name}: {result.ops_per_s(wl.case_quantile):.6g} ops/s over "
                  f"{result.attempted} operations", file=sys.stderr)

    def mean(workload, span, unit, parent=...):
        scale = {"us": 1e3, "ms": 1e6}[unit]
        return tracer.self_ns(workload, span, parent) / tracer.calls(workload, span, parent) / scale

    ss, lp, mc = "single-shot", "lp-oracle", "many-copy"
    companion = ("many-copy", "asymptotics.compressed_d_h_epsilon", "op:finite_n_gap")
    interpreter = _probe_wall_ms("pass")
    metrics = {
        "theory.gibbs_state_us": (mean(ss, "theory.gibbs_state", "us"), "us"),
        "theory.compose_us": (mean(ss, "theory.compose", "us"), "us"),
        "theory.tensor_power_ms": (mean(mc, "theory.tensor_power_compressed", "ms"), "ms"),
        "theory.type_classes": (
            (tracer.count(mc, "theory.tensor_power_compressed", "classes")
             - tracer.count(mc, "theory.tensor_power_compressed", "classes", "op:finite_n_gap"))
            / rounds[mc], "count"),
        "lorenz.build_curve_us": (mean(ss, "lorenz.build_curve", "us"), "us"),
        "lorenz.compare_us": (mean(ss, "lorenz.compare", "us"), "us"),
        "lorenz.breakpoints": (tracer.count(ss, "lorenz.build_curve", "breakpoints")
                               / tracer.calls(ss, "lorenz.build_curve"), "count"),
        "convert.can_convert_us": (mean(ss, "convert.can_convert", "us"), "us"),
        "convert.oracle_ms": (mean(lp, "convert.feasibility_oracle", "ms"), "ms"),
        "convert.smallest_epsilon_ms": (mean(lp, "convert.smallest_epsilon", "ms"), "ms"),
        "simplex.solve_ms": (mean(lp, "simplex.solve_standard_lp", "ms"), "ms"),
        "simplex.calls": (tracer.calls(lp, "simplex.solve_standard_lp") / rounds[lp], "count"),
        "simplex.rows": (tracer.count(lp, "simplex.solve_standard_lp", "rows")
                         / tracer.calls(lp, "simplex.solve_standard_lp"), "count"),
        "simplex.cols": (tracer.count(lp, "simplex.solve_standard_lp", "cols")
                         / tracer.calls(lp, "simplex.solve_standard_lp"), "count"),
        "oneshot.w_gain_us": (mean(ss, "oneshot.w_gain", "us"), "us"),
        "oneshot.w_cost_bounds_us": (mean(ss, "oneshot.w_cost_bounds", "us"), "us"),
        "asymptotics.sorted_test_ms": (mean(mc, "asymptotics.compressed_d_h_epsilon", "ms"), "ms"),
        "asymptotics.delta_grid_ms": (
            (tracer.self_ns(mc, "asymptotics.finite_n_gap") - tracer.self_ns(*companion))
            / tracer.calls(mc, "asymptotics.finite_n_gap") / 1e6, "ms"),
        "asymptotics.finite_n_gap_ms": (mean(mc, "asymptotics.finite_n_gap", "ms"), "ms"),
        "asymptotics.aep_sweep_ms": (mean(mc, "asymptotics.aep_sweep", "ms"), "ms"),
        "stateio.load_state_us": (mean("cli", "stateio.load_state", "us"), "us"),
        "stateio.dumps_us": (mean("cli", "stateio.dumps", "us"), "us"),
        "cli.interpreter_ms": (interpreter, "ms"),
        "cli.import_ms": (_probe_wall_ms("import thermoflow.cli") - interpreter, "ms"),
        "cli.main_ms": (mean("cli", "cli.main", "ms"), "ms"),
    }
    counts = tracer.span_counts()
    for workload in workloads.NAMES:
        print(f"{workload}: simplex calls {counts.get(workload, {}).get('simplex.solve_standard_lp', 0)}, "
              f"rounds {rounds[workload]}", file=sys.stderr)
    RESULTS.mkdir(exist_ok=True)
    tracer.write(RESULTS / f"trace-{args.workload}-seed{args.seed}.json")
    return named, unexpected, metrics


def parse_args(argv=None):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print the set-up time and exit (used by the runner)")
    return parser.parse_args(argv)


def main() -> int:
    args = parse_args()
    if not (SRC / "thermoflow" / "__init__.py").is_file():
        print(f"error: thermoflow sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = BENCH / "_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()


def _run(args, workdir) -> int:
    import workloads

    wl = workloads.build(args.workload, args.seed, workdir)
    if args.trace:
        result, unexpected, metrics = per_layer(args, wl, workdir)
    else:
        run_once(wl.warmup)
        args.setup_s = time.perf_counter() - START
        if args.setup_probe:
            print(repr(args.setup_s))
            return 0
        result, metrics = end_to_end(args, wl)
        unexpected = result.unexpected
    report = {
        "correct": unexpected == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    line = json.dumps(report)
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
