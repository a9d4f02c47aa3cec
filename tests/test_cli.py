import json
import math
import subprocess
import sys

import numpy as np
import pytest

import thermoflow as tf
from thermoflow import cli, convert


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "thermoflow", *args],
        capture_output=True, text=True, cwd=cwd,
    )


def write_json(path, payload):
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def entropy_ctx(tmp_path):
    return write_json(tmp_path / "entropy.json",
                      {"representation": "entropy", "intensive": []})


@pytest.fixture
def pure2(tmp_path):
    return write_json(tmp_path / "pure2.json", {
        "representation": "entropy", "intensive": [],
        "operators": [], "r": [1.0, 0.0],
    })


@pytest.fixture
def hot_state(tmp_path):
    return write_json(tmp_path / "hot.json", {
        "representation": "energy", "beta": 1.0, "intensive": [],
        "operators": [{"label": "H", "eigenvalues": [0.0, math.log(2)]}],
        "r": [1.0, 0.0],
    })


def test_lorenz_pure_bit_csv(pure2, entropy_ctx):
    result = run_cli("lorenz", pure2, "--ctx", entropy_ctx)
    assert result.returncode == 0
    assert result.stdout == "x,y\n0,0\n1,1\n2,1\n"


def test_gibbs_output_round_trips(tmp_path, hot_state):
    result = run_cli("gibbs", hot_state)
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["partition_function"] == pytest.approx(1.5, abs=1e-12)
    np.testing.assert_allclose(payload["r"], [2 / 3, 1 / 3], atol=1e-12)
    # the emitted descriptor re-ingests as a valid state file
    gibbs_file = write_json(tmp_path / "gibbs.json", payload)
    again = run_cli("gibbs", gibbs_file)
    assert again.returncode == 0
    assert json.loads(again.stdout)["r"] == payload["r"]


def test_convert_exit_codes(tmp_path, hot_state):
    gibbs_file = write_json(tmp_path / "g.json", json.loads(run_cli("gibbs", hot_state).stdout))
    forward = run_cli("convert", hot_state, gibbs_file)
    assert forward.returncode == 0
    assert forward.stdout.strip() == "convertible"
    backward = run_cli("convert", gibbs_file, hot_state)
    assert backward.returncode == 1
    assert backward.stdout.strip() == "not convertible"


def test_convert_witness_dump(tmp_path, hot_state):
    gibbs_file = write_json(tmp_path / "g.json", json.loads(run_cli("gibbs", hot_state).stdout))
    witness_file = tmp_path / "witness.json"
    result = run_cli("convert", hot_state, gibbs_file, "--witness", str(witness_file))
    assert result.returncode == 0
    payload = json.loads(witness_file.read_text())
    m = np.array(payload["entries"]).reshape(payload["rows"], payload["cols"])
    np.testing.assert_allclose(m.sum(axis=0), np.ones(payload["cols"]), atol=1e-9)
    assert m.min() >= -1e-9


def test_work_on_equilibrium_input(tmp_path, hot_state):
    gibbs_file = write_json(tmp_path / "g.json", json.loads(run_cli("gibbs", hot_state).stdout))
    result = run_cli("work", gibbs_file, "--epsilon", "0")
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["w_gain"] == 0.0
    assert report["w_cost_lower"] is None and report["w_cost_upper"] is None


def test_work_report_fields(hot_state):
    result = run_cli("work", hot_state, "--epsilon", "0.1")
    report = json.loads(result.stdout)
    assert report["epsilon"] == 0.1
    assert report["w_cost_lower"] <= report["w_cost_upper"]
    assert report["w_gain"] >= math.log(1.5) - 1e-12


def test_rate_scalar(tmp_path, entropy_ctx, pure2):
    pure4 = write_json(tmp_path / "pure4.json", {
        "representation": "entropy", "intensive": [],
        "operators": [], "r": [1.0, 0.0, 0.0, 0.0],
    })
    result = run_cli("rate", pure2, pure4, "--ctx", entropy_ctx)
    assert result.returncode == 0
    assert result.stdout == "0.5\n"


def test_aep_csv(hot_state):
    result = run_cli("aep", hot_state, "--epsilon", "0.1", "--n", "1,4,16")
    assert result.returncode == 0
    lines = result.stdout.strip().split("\n")
    assert lines[0] == "n,per_copy_dh,limit"
    assert len(lines) == 4
    assert lines[1].split(",")[0] == "1"


def test_byte_identical_reruns(tmp_path, hot_state, pure2, entropy_ctx):
    for args in (("gibbs", hot_state), ("lorenz", pure2, "--ctx", entropy_ctx),
                 ("work", hot_state, "--epsilon", "0.25"),
                 ("aep", hot_state, "--epsilon", "0.1", "--n", "1,2,4")):
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout


def test_malformed_json_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    path = str(bad)
    for command in (("gibbs", path), ("lorenz", path), ("convert", path, path),
                    ("work", path, "--epsilon", "0"), ("rate", path, path),
                    ("aep", path, "--epsilon", "0.1", "--n", "5"), ("validate", path)):
        result = run_cli(*command)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == (f"error: {path}: not valid JSON: Expecting property name "
                                 "enclosed in double quotes: line 1 column 2 (char 1)\n")


def test_overflowing_partition_function_exits_2(tmp_path):
    shifted = write_json(tmp_path / "shifted.json", {
        "representation": "energy", "beta": 1.0, "intensive": [],
        "operators": [{"label": "H", "eigenvalues": [-800.0, -799.0, -798.0]}],
        "r": [0.7, 0.2, 0.1],
    })
    result = run_cli("gibbs", shifted)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith(f"error: {shifted}: partition function exp(800.4")
    assert result.stderr.endswith(" is outside double range\n")
    assert "Traceback" not in result.stderr
    # an underflowing Z is still printed: only lorenz, whose points are Z u, refuses it
    raised = helmholtz_state(tmp_path, "raised.json", [800.0, 801.0, 802.0], [0.7, 0.2, 0.1])
    result = run_cli("gibbs", raised)
    assert (result.returncode, result.stderr) == (0, "")
    assert json.loads(result.stdout)["partition_function"] == 0.0


def helmholtz_state(tmp_path, name, energies, r):
    return write_json(tmp_path / name, {
        "representation": "energy", "beta": 1.0, "intensive": [],
        "operators": [{"label": "H", "eigenvalues": energies}], "r": r,
    })


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_lorenz_outside_double_range_exits_2(tmp_path, fmt):
    for energies in ([-800.0, -799.0, -798.0], [800.0, 801.0, 802.0]):
        path = helmholtz_state(tmp_path, "far.json", energies, [0.7, 0.2, 0.1])
        result = run_cli("lorenz", path, "--format", fmt)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith(f"error: {path}: partition function")
        assert "Warning" not in result.stderr and "Traceback" not in result.stderr


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_lorenz_with_an_unreachable_level_is_quiet(tmp_path, fmt):
    # exp(-800) underflows to an equilibrium probability of exactly 0
    path = helmholtz_state(tmp_path, "gap.json", [0.0, 800.0], [0.6, 0.4])
    result = run_cli("lorenz", path, "--format", fmt)
    assert result.returncode == 0
    assert result.stderr == ""
    if fmt == "csv":
        assert result.stdout == "x,y\n0,0\n0,0.40000000000000002\n1,1\n"
    else:
        assert json.loads(result.stdout) == {"points": [[0.0, 0.0], [0.0, 0.4], [1.0, 1.0]],
                                             "width": 1.0}


def strict_json(text):
    def reject(name):
        raise AssertionError(f"{name} is not JSON")
    return json.loads(text, parse_constant=reject)


def test_subnormal_equilibrium_probability_leaves_stderr_empty(tmp_path):
    # exp(-740) is subnormal, so r/g overflows to inf inside the curve sort
    path = helmholtz_state(tmp_path, "gap740.json", [0.0, 740.0], [0.6, 0.4])
    for args in (("lorenz", path), ("work", path, "--epsilon", "0.05"),
                 ("convert", path, path)):
        result = run_cli(*args)
        assert result.returncode == 0
        assert result.stderr == ""


def test_rate_and_aep_across_a_gap_that_underflows_g(tmp_path):
    path = helmholtz_state(tmp_path, "gap.json", [0.0, 800.0], [0.6, 0.4])
    result = run_cli("rate", path, path)
    assert (result.returncode, result.stdout, result.stderr) == (0, "1\n", "")
    result = run_cli("aep", path, "--epsilon", "0.1", "--n", "3,10", "--format", "json")
    assert result.returncode == 0
    payload = strict_json(result.stdout)
    assert payload["limit"] == pytest.approx(319.327, abs=1e-3)
    assert [n for n, _ in payload["rows"]] == [3, 10]
    assert all(math.isfinite(value) for _, value in payload["rows"])


def test_exponent_span_beyond_double_range_exits_2(tmp_path):
    # e - max(e) overflows: -1e308 - 1e308 is not a double
    path = helmholtz_state(tmp_path, "span.json", [0.0, 1e308, -1e308], [0.5, 0.3, 0.2])
    for args in (("gibbs", path), ("lorenz", path), ("work", path, "--epsilon", "0.1"),
                 ("rate", path, path), ("aep", path, "--epsilon", "0.1", "--n", "2,4")):
        result = run_cli(*args)
        assert result.returncode == 2, args
        assert result.stdout == ""
        assert result.stderr.startswith("error: equilibrium exponents span")
        assert result.stderr.count("\n") == 1
        assert "Warning" not in result.stderr and "Traceback" not in result.stderr


def test_exponents_that_overflow_exit_2_without_a_warning(tmp_path):
    # beta * H is not a double, alone and beside a second operator
    helmholtz = write_json(tmp_path / "far.json", {
        "representation": "energy", "beta": 2.0, "intensive": [],
        "operators": [{"label": "H", "eigenvalues": [1e308, 1e308]}], "r": [0.5, 0.5],
    })
    grand = write_json(tmp_path / "grand.json", {
        "representation": "energy", "beta": 2.0,
        "intensive": [{"label": "N", "value": 1.0}],
        "operators": [{"label": "H", "eigenvalues": [1e308, 0.0]},
                      {"label": "N", "eigenvalues": [1e308, 0.0]}], "r": [0.5, 0.5],
    })
    for path in (helmholtz, grand):
        result = run_cli("gibbs", path)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: equilibrium exponents span")
        assert result.stderr.count("\n") == 1
        assert "Warning" not in result.stderr and "Traceback" not in result.stderr


BEYOND_DOUBLE_RANGE = {
    "beta": ("'beta'", {"beta": 10 ** 400}),
    "intensive value": ("'intensive'", {"intensive": [{"label": "N", "value": -10 ** 400}]}),
    "eigenvalue": ("'operators'", {"operators": [{"label": "H", "eigenvalues": [0, 10 ** 400]}]}),
    "probability": ("'r'", {"r": [10 ** 400, 0]}),
}


@pytest.mark.parametrize("case", sorted(BEYOND_DOUBLE_RANGE))
def test_integers_beyond_double_range_name_the_file_and_the_field(tmp_path, case):
    field, update = BEYOND_DOUBLE_RANGE[case]
    payload = {"representation": "energy", "beta": 1.0, "intensive": [],
               "operators": [{"label": "H", "eigenvalues": [0.0, 1.0]}], "r": [0.7, 0.3]}
    payload.update(update)
    path = write_json(tmp_path / "huge.json", payload)
    for command in ("gibbs", "validate"):
        result = run_cli(command, path)
        assert result.returncode == 2, (command, result.stdout)
        assert result.stdout == ""
        assert result.stderr.startswith(f"error: {path}: {field}"), result.stderr
        assert "beyond double range" in result.stderr
        assert result.stderr.count("\n") == 1
        assert "Traceback" not in result.stderr


def test_nan_probabilities_exit_2(tmp_path):
    path = tmp_path / "nan.json"
    path.write_text(
        '{"representation": "energy", "beta": 1.0, "intensive": [],'
        ' "operators": [{"label": "H", "eigenvalues": [0.0, 1.0, 2.0]}],'
        ' "r": [NaN, 0.5, 0.5]}', encoding="utf-8")
    result = run_cli("work", str(path), "--epsilon", "0.1")
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error:")
    assert "Traceback" not in result.stderr


def test_missing_file_exits_2(tmp_path):
    result = run_cli("gibbs", str(tmp_path / "nope.json"))
    assert result.returncode == 2


def test_validate_reports(tmp_path):
    good = write_json(tmp_path / "good.json", {
        "representation": "entropy", "intensive": [], "operators": [],
        "r": [1.0, 0.0],
        "nonstate": [{"label": "N", "eigenvalues": [5.0, 7.0]}],
    })
    result = run_cli("validate", good)
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["normalized"] and report["fixed_eigensubspace"]

    split = write_json(tmp_path / "split.json", {
        "representation": "entropy", "intensive": [], "operators": [],
        "r": [0.5, 0.5],
        "nonstate": [{"label": "N", "eigenvalues": [5.0, 7.0]}],
    })
    result = run_cli("validate", split)
    assert result.returncode == 1
    assert not json.loads(result.stdout)["fixed_eigensubspace"]

    lopsided = write_json(tmp_path / "lopsided.json", {
        "representation": "entropy", "intensive": [], "operators": [],
        "r": [0.5, 0.4],
    })
    result = run_cli("validate", lopsided)
    assert result.returncode == 1
    assert not json.loads(result.stdout)["normalized"]


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
def test_validate_non_finite_input_exits_2(tmp_path, bad):
    for name, r, eigenvalues, field in (
        ("r", f"[{bad}, 0.5, 0.5]", "[1.0, 1.0, 2.0]", "'r'"),
        ("nonstate", "[0.5, 0.5, 0.0]", f"[1.0, {bad}, 2.0]", "'N'"),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(
            '{"representation": "entropy", "intensive": [], "operators": [],'
            f' "r": {r}, "nonstate": [{{"label": "N", "eigenvalues": {eigenvalues}}}]}}',
            encoding="utf-8")
        result = run_cli("validate", str(path))
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error:")
        assert field in result.stderr
        assert "Traceback" not in result.stderr


def test_validate_rejects_nested_vectors(tmp_path):
    for field, r, eigenvalues in (("'r'", [[0.5, 0.5]], [1.0, 2.0]),
                                  ("'nonstate'", [0.5, 0.5], [[1.0, 2.0]])):
        path = write_json(tmp_path / "nested.json", {
            "representation": "entropy", "intensive": [], "operators": [], "r": r,
            "nonstate": [{"label": "N", "eigenvalues": eigenvalues}],
        })
        result = run_cli("validate", path)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith(f"error: {path}: {field}")
        assert "one-dimensional" in result.stderr


BROKEN_DESCRIPTORS = {
    "beta is a string": {"beta": "x"},
    "unknown representation": {"representation": "foo"},
    "NaN eigenvalue": {"operators": [{"label": "H", "eigenvalues": [0.0, math.nan]}]},
    "infinite eigenvalue": {"operators": [{"label": "H", "eigenvalues": [0.0, math.inf]}]},
    "operators is a string": {"operators": "H"},
    "operator without a label": {"operators": [{"eigenvalues": [0.0, 1.0]}]},
    "too few eigenvalues": {"operators": [{"label": "H", "eigenvalues": [0.0]}]},
    "nested eigenvalues": {"operators": [{"label": "H", "eigenvalues": [[0.0, 1.0]]}]},
    "missing energy operator": {"operators": []},
    "short nonstate list": {"nonstate": [{"label": "N", "eigenvalues": [1.0, 2.0, 3.0]}]},
}


@pytest.mark.parametrize("case", sorted(BROKEN_DESCRIPTORS))
def test_validate_rejects_what_gibbs_rejects(tmp_path, case):
    payload = {"representation": "energy", "beta": 1.0, "intensive": [],
               "operators": [{"label": "H", "eigenvalues": [0.0, 1.0]}], "r": [0.7, 0.3]}
    payload.update(BROKEN_DESCRIPTORS[case])
    path = write_json(tmp_path / "broken.json", payload)
    for command in ("gibbs", "validate"):
        result = run_cli(command, path)
        assert result.returncode == 2, (command, result.stdout)
        assert result.stdout == ""
        assert result.stderr.startswith("error:")
        assert "Traceback" not in result.stderr


def test_validate_still_reports_an_unnormalized_energy_state(tmp_path):
    path = helmholtz_state(tmp_path, "low.json", [0.0, 1.0], [0.5, 0.4])
    result = run_cli("validate", path)
    assert result.returncode == 1
    assert result.stderr == ""
    assert json.loads(result.stdout) == {"sum_r": 0.9, "nonnegative": True,
                                         "normalized": False, "fixed_eigensubspace": True}


def test_inline_context_flags(tmp_path):
    state = write_json(tmp_path / "bare.json", {
        "representation": "energy", "beta": 2.0, "intensive": [],
        "operators": [{"label": "H", "eigenvalues": [0.0, 1.0]}],
        "r": [0.9, 0.1],
    })
    # inline --beta overrides the embedded beta
    inline = run_cli("gibbs", state, "--beta", "1.0")
    assert inline.returncode == 0
    embedded = run_cli("gibbs", state)
    assert json.loads(inline.stdout)["beta"] == 1.0
    assert json.loads(embedded.stdout)["beta"] == 2.0
    assert inline.stdout != embedded.stdout


def test_inline_mu_flag(tmp_path):
    state = write_json(tmp_path / "grand.json", {
        "representation": "energy", "beta": 1.0,
        "intensive": [{"label": "mu", "value": 0.0}],
        "operators": [{"label": "H", "eigenvalues": [0.0, 1.0]},
                      {"label": "N", "eigenvalues": [0.0, 1.0]}],
        "r": [0.5, 0.5],
    })
    result = run_cli("gibbs", state, "--beta", "1.0", "--mu", "0.5")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["intensive"] == [{"label": "mu", "value": 0.5}]


def test_lorenz_json_format(pure2, entropy_ctx):
    result = run_cli("lorenz", pure2, "--ctx", entropy_ctx, "--format", "json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["width"] == 2.0
    assert payload["points"] == [[0.0, 0.0], [1.0, 1.0], [2.0, 1.0]]


def test_ctx_file_beats_inline_flags_with_warning(tmp_path, hot_state):
    ctx_file = write_json(tmp_path / "beta3.json", {
        "representation": "energy", "beta": 3.0, "intensive": [],
    })
    result = run_cli("gibbs", hot_state, "--ctx", ctx_file, "--beta", "1.0")
    assert result.returncode == 0
    assert json.loads(result.stdout)["beta"] == 3.0
    assert "overrides" in result.stderr


def test_conflicting_embedded_contexts_need_ctx(tmp_path, hot_state):
    other = write_json(tmp_path / "other.json", {
        "representation": "energy", "beta": 2.5, "intensive": [],
        "operators": [{"label": "H", "eigenvalues": [0.0, math.log(2)]}],
        "r": [0.5, 0.5],
    })
    result = run_cli("convert", hot_state, other)
    assert result.returncode == 2
    fixed = run_cli("convert", hot_state, other, "--beta", "1.0")
    assert fixed.returncode in (0, 1)


MISTYPED_FIELDS = {
    "beta is a string": ("'beta'", {"beta": "x"}),
    "beta is a boolean": ("'beta'", {"beta": True}),
    "intensive is a string": ("'intensive'", {"intensive": "mu"}),
    "intensive value is a string": ("'intensive'", {"intensive": [{"label": "mu", "value": "1"}]}),
    "operators is a string": ("'operators'", {"operators": "H"}),
    "operator without a label": ("'operators'", {"operators": [{"eigenvalues": [0.0, 1.0]}]}),
    "eigenvalues are strings": ("'operators'",
                                {"operators": [{"label": "H", "eigenvalues": ["a", "b"]}]}),
    "too few eigenvalues": ("'operators'", {"operators": [{"label": "H", "eigenvalues": [0.0]}]}),
    "nonstate is an object": ("'nonstate'", {"nonstate": {"label": "N"}}),
    "r is a string": ("'r'", {"r": "x"}),
}


@pytest.mark.parametrize("case", sorted(MISTYPED_FIELDS))
def test_load_errors_name_the_file_and_the_field(tmp_path, case):
    field, update = MISTYPED_FIELDS[case]
    payload = {"representation": "energy", "beta": 1.0, "intensive": [],
               "operators": [{"label": "H", "eigenvalues": [0.0, 1.0]}], "r": [0.7, 0.3]}
    payload.update(update)
    path = write_json(tmp_path / "mistyped.json", payload)
    for command in ("gibbs", "validate"):
        result = run_cli(command, path)
        assert result.returncode == 2, (command, result.stdout)
        assert result.stdout == ""
        assert result.stderr.startswith(f"error: {path}: {field}")
        assert result.stderr.count("\n") == 1
        assert "Traceback" not in result.stderr


def test_load_errors_name_the_file_in_convert_and_ctx(tmp_path, hot_state):
    bad = write_json(tmp_path / "bad.json", {
        "representation": "energy", "beta": 1.0, "intensive": [],
        "operators": "H", "r": [0.5, 0.5],
    })
    ctx = write_json(tmp_path / "ctx.json", {
        "representation": "energy", "beta": "hot", "intensive": [],
    })
    cold = write_json(tmp_path / "cold.json", {
        "representation": "energy", "beta": -1.0, "intensive": [],
    })
    for args, prefix in ((("convert", hot_state, bad), f"error: {bad}: 'operators'"),
                         (("work", hot_state, "--ctx", ctx), f"error: {ctx}: 'beta'"),
                         (("gibbs", hot_state, "--ctx", cold), f"error: {cold}: beta")):
        result = run_cli(*args)
        assert result.returncode == 2
        assert result.stderr.startswith(prefix), result.stderr
        assert result.stderr.count("\n") == 1 and "Traceback" not in result.stderr


def run_main(capsys, *args):
    """(exit code, stdout, stderr) of one in-process ``cli.main`` call."""
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    ("gibbs", "{hot}"),
    ("lorenz", "{hot}"),
    ("lorenz", "{hot}", "--format", "json"),
    ("work", "{hot}", "--epsilon", "0.1"),
    ("rate", "{hot}", "{hot}"),
    ("aep", "{hot}", "--epsilon", "0.1", "--n", "1,4"),
    ("aep", "{hot}", "--epsilon", "0.1", "--n", "1,4", "--format", "json"),
    ("validate", "{hot}"),
    ("validate", "{low}"),
], ids=" ".join)
def test_out_file_holds_exactly_what_the_command_prints(tmp_path, capsys, hot_state, argv):
    low = helmholtz_state(tmp_path, "low.json", [0.0, 1.0], [0.5, 0.4])
    argv = [arg.format(hot=hot_state, low=low) for arg in argv]
    code, printed, err = run_main(capsys, *argv)
    assert printed and err == ""
    out = tmp_path / "out.txt"
    assert run_main(capsys, *argv, "--out", str(out)) == (code, "", "")
    assert out.read_bytes() == printed.encode()


@pytest.mark.parametrize("n_arg", [",", "", ",,"])
def test_aep_without_a_copy_count_exits_2(hot_state, capsys, tmp_path, n_arg):
    out = tmp_path / "out.csv"
    for extra in ((), ("--out", str(out))):
        code, printed, err = run_main(capsys, "aep", hot_state, "--epsilon", "0.1",
                                      "--n", n_arg, *extra)
        assert (code, printed) == (2, "")
        assert err == f"error: --n {n_arg!r} lists no copy count\n"
    assert not out.exists()


def test_witness_disagreement_is_one_error_line(tmp_path, capsys, monkeypatch, hot_state):
    _, printed, _ = run_main(capsys, "gibbs", hot_state)
    free = tmp_path / "g.json"
    free.write_text(printed, encoding="utf-8")
    assert run_main(capsys, "convert", hot_state, str(free)) == (0, "convertible\n", "")
    monkeypatch.setattr(convert, "feasibility_oracle", lambda query: None)
    witness = tmp_path / "m.json"
    assert run_main(capsys, "convert", hot_state, str(free), "--witness", str(witness)) == (
        2, "", "error: curve verdict and witness oracle disagree\n")
    assert not witness.exists()


def test_work_names_the_field_that_is_not_finite(tmp_path, capsys):
    # the same gap as below: w_gain comes out inf, and the refusal names it
    path = helmholtz_state(tmp_path, "gap.json", [0.0, 800.0], [0.0, 1.0])
    code, printed, err = run_main(capsys, "work", path, "--epsilon", "0")
    assert (code, printed) == (2, "")
    assert err == "error: 'w_gain' is inf; strict JSON has no inf or nan\n"


def test_work_never_prints_invalid_json(tmp_path, capsys):
    # g of the occupied level underflows to 0, so the computed yield is inf
    # (the exact value is 800), which JSON cannot spell
    path = helmholtz_state(tmp_path, "gap.json", [0.0, 800.0], [0.0, 1.0])
    code, printed, err = run_main(capsys, "work", path, "--epsilon", "0")
    assert (code, printed) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1
