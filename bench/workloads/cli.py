"""cli: one ``python -m thermoflow`` subprocess per operation.

A round makes 11 calls that cover all seven subcommands on small seeded
state files (dimensions 3 to 5): gibbs, lorenz, convert (one reachable
target, one unreachable, one cross-table with --witness), work, rate, aep,
validate (one passing, one failing) and the fault case (c): gibbs on a
spectrum shifted by -800, which exits 1 with an OverflowError traceback
where the CLI contract asks for exit code 2 and no traceback.

Interpreter start, imports, argparse and JSON input/output dominate each
call. Checks compare exit codes, recompute the gibbs output with a
softmax and a logsumexp, the curve with a sort, the work values with a
greedy test, verify the witness file, and require each call's stdout to
be byte-identical in every round. This module does not import thermoflow
unless the traced run asks for the in-process variants.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np

import reference as ref
from workloads import Case, Workload

EPSILON = 0.05
AEP_N = (8, 64, 256)
TOL = 1e-12
LOOSE_TOL = 1e-9
SRC = Path(__file__).resolve().parents[2] / "src"


def _write_state(path: Path, ctx: ref.Context, table: ref.Table, r, nonstate=None) -> str:
    payload = ctx.descriptor()
    payload["operators"] = [{"label": l, "eigenvalues": [float(v) for v in row]}
                            for l, row in zip(table.labels, table.spectra)]
    payload["r"] = [float(v) for v in r]
    if nonstate is not None:
        payload["nonstate"] = [{"label": "V_bath", "eigenvalues": [float(v) for v in nonstate]}]
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return str(path)


def _close(got: float, want: float, tol: float = LOOSE_TOL) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


def _subprocess_run(argv, witness):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-m", "thermoflow", *argv],
                          capture_output=True, env=env, check=False)
    return (done.returncode, done.stdout, done.stderr,
            Path(witness).read_bytes() if witness and done.returncode == 0 else None)


def _in_process_run(argv, witness):
    from thermoflow import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return (code, out.getvalue().encode(), err.getvalue().encode(),
            Path(witness).read_bytes() if witness and code == 0 else None)


def _case(kind, argv, judge, witness=None, fault=None):
    """Subprocess and in-process variants of one call.

    ``judge(exit_code, stdout_text, witness_bytes) -> bool`` checks the output.
    """
    first = {}

    def check(out):
        code, stdout, stderr, witness_bytes = out
        if b"Traceback" in stderr:
            return False
        # every round must print the same bytes
        if first.setdefault("stdout", stdout) != stdout:
            return False
        return judge(code, stdout.decode(), witness_bytes)

    return (Case(kind, lambda: _subprocess_run(argv, witness), check, fault),
            Case(kind, lambda: _in_process_run(argv, witness), check, fault))


def _gibbs_judge(table, ctx):
    e = ref.exponents(table, ctx)

    def judge(code, stdout, _):
        if code != 0:
            return False
        data = json.loads(stdout)
        log_z = ref.logsumexp(e)
        return (np.allclose(data["r"], ref.softmax(e), rtol=0, atol=TOL)
                and _close(data["log_partition_function"], log_z, TOL)
                and _close(data["partition_function"], math.exp(log_z), TOL))

    return judge


def build(seed: int, workdir) -> Workload:
    rng = np.random.default_rng([seed, 4])
    work = Path(workdir)
    pairs = []

    def new(kind, d):
        ctx = ref.random_context(rng, kind)
        return ctx, ref.random_table(rng, ctx, d)

    # gibbs and lorenz on one state
    ctx, table = new("grand_potential", 4)
    r = ref.random_probabilities(rng, 4)
    a = _write_state(work / "a.json", ctx, table, r)
    pairs.append(_case("gibbs", ["gibbs", a], _gibbs_judge(table, ctx)))
    w = np.exp(ref.exponents(table, ctx))

    def lorenz_judge(code, stdout, _):
        lines = stdout.splitlines()
        got = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        return (code == 0 and lines[0] == "x,y"
                and np.allclose(got, ref.lorenz_points(r, w), rtol=TOL, atol=TOL))

    pairs.append(_case("lorenz", ["lorenz", a], lorenz_judge))

    # convert: reachable, unreachable, cross-table with a witness
    g = ref.gibbs(table, ctx)
    b = _write_state(work / "b.json", ctx, table, ref.fixing_map(rng, g, g) @ r)
    pairs.append(_case("convert", ["convert", a, b],
                       lambda code, out, _: code == 0 and out == "convertible\n"))
    ctx2, table2 = new("gibbs", 3)
    g2 = ref.gibbs(table2, ctx2)
    eq = _write_state(work / "eq.json", ctx2, table2, g2)
    far = _write_state(work / "far.json", ctx2, table2,
                       ref.random_probabilities(rng, 3, away_from=g2))
    pairs.append(_case("convert", ["convert", eq, far],
                       lambda code, out, _: code == 1 and out == "not convertible\n"))
    ctx3, src = new("helmholtz", 3)
    tgt = ref.random_table(rng, ctx3, 4)
    g_src, g_tgt = ref.gibbs(src, ctx3), ref.gibbs(tgt, ctx3)
    r3 = ref.random_probabilities(rng, 3)
    s3 = ref.fixing_map(rng, g_src, g_tgt) @ r3
    c_src = _write_state(work / "cross_src.json", ctx3, src, r3)
    c_tgt = _write_state(work / "cross_tgt.json", ctx3, tgt, s3)
    witness_path = str(work / "witness.json")
    composed = (np.kron(r3, g_tgt), np.kron(g_src, s3), np.kron(g_src, g_tgt),
                np.kron(g_src, g_tgt))

    def witness_judge(code, out, witness_bytes):
        if code != 0 or out != "convertible\n":
            return False
        data = json.loads(witness_bytes)
        m = np.array(data["entries"]).reshape(data["rows"], data["cols"])
        return ref.witness_errors(m, *composed) <= 1e-8

    pairs.append(_case("convert --witness",
                       ["convert", c_src, c_tgt, "--witness", witness_path],
                       witness_judge, witness=witness_path))

    # work on the first state
    beta = ctx.beta

    def work_judge(code, out, _):
        data = json.loads(out)
        gain = -ref.greedy_log_b(r, g, 1.0 - EPSILON) / beta
        upper = (-ref.greedy_log_b(r, g, EPSILON) - math.log((1 - EPSILON) / EPSILON)) / beta
        return (code == 0 and data["epsilon"] == EPSILON and _close(data["w_gain"], gain)
                and _close(data["w_cost_upper"], upper)
                and data["w_cost_lower"] <= data["w_cost_upper"])

    pairs.append(_case("work", ["work", a, "--epsilon", str(EPSILON)], work_judge))

    # rate from the first state to an unrelated one on another table
    table4 = ref.random_table(rng, ctx, 3)
    g4 = ref.gibbs(table4, ctx)
    s4 = ref.random_probabilities(rng, 3, away_from=g4)
    rate_tgt = _write_state(work / "rate_tgt.json", ctx, table4, s4)
    rate = ref.relative_entropy(r, g) / ref.relative_entropy(s4, g4)
    pairs.append(_case("rate", ["rate", a, rate_tgt],
                       lambda code, out, _: code == 0 and _close(float(out), rate)))

    # aep sweep at d = 3
    ctx5, table5 = new("helmholtz", 3)
    g5 = ref.gibbs(table5, ctx5)
    r5 = ref.random_probabilities(rng, 3, away_from=g5)
    aep_state = _write_state(work / "aep.json", ctx5, table5, r5)

    def aep_judge(code, out, _):
        lines = out.splitlines()
        rows = [line.split(",") for line in lines[1:]]
        limit = ref.relative_entropy(r5, g5)
        return (code == 0 and lines[0] == "n,per_copy_dh,limit"
                and [int(n) for n, _, _ in rows] == list(AEP_N)
                and all(_close(float(lim), limit) for _, _, lim in rows)
                and all(ref.d_h_matches(int(n) * float(pc), r5, g5, int(n), EPSILON)
                        for n, pc, _ in rows))

    pairs.append(_case("aep", ["aep", aep_state, "--epsilon", str(EPSILON),
                               "--n", ",".join(map(str, AEP_N))], aep_judge))

    # validate: support inside one eigensubspace of a non-state block, then across two
    ctx6, table6 = new("helmholtz", 5)
    block = np.array([1.0, 1.0, 1.0, 2.0, 2.0])
    inside = np.concatenate([ref.random_probabilities(rng, 3), [0.0, 0.0]])
    across = ref.random_probabilities(rng, 5)
    for name, p, fixed in (("inside", inside, True), ("across", across, False)):
        path = _write_state(work / f"validate_{name}.json", ctx6, table6, p, nonstate=block)

        def validate_judge(code, out, _, fixed=fixed):
            data = json.loads(out)
            return (code == (0 if fixed else 1) and data["nonnegative"] is True
                    and data["normalized"] is True and data["fixed_eigensubspace"] is fixed)

        pairs.append(_case("validate", ["validate", path], validate_judge))

    # fault (c): gibbs on a spectrum shifted by -800 must exit 2, without a traceback
    ctx7 = ref.Context("helmholtz", 1.0)
    table7 = ref.Table(("H",), np.array([[0.0, 1.0, 2.0]])).shifted(-800.0)
    shifted = _write_state(work / "shifted.json", ctx7, table7, [0.5, 0.3, 0.2])
    pairs.append(_case("gibbs", ["gibbs", shifted],
                       lambda code, out, _: code == 2, fault="c"))

    cases = [timed for timed, _ in pairs]
    return Workload(
        cases=cases,
        warmup=cases[:2],
        traced_cases=[in_process for _, in_process in pairs],
        peak_rss_mb=lambda: resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    )
