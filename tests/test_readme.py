"""The README's library tour and CLI block run as written."""

import json
import pathlib
import re

from thermoflow import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_tour_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    text = README.read_text()
    shell = "".join(re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S))
    (example,) = re.findall(r"^```json\n(.*?)^```", text, re.M | re.S)
    for name in ("state.json", "a.json", "b.json"):
        (tmp_path / name).write_text(example, encoding="utf-8")
    fields = json.loads(example)
    context = {key: fields[key] for key in ("representation", "beta", "intensive")}
    (tmp_path / "ctx.json").write_text(json.dumps(context), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    lines = [line.split("#")[0].split() for line in shell.splitlines()
             if line.startswith("thermoflow ")]
    assert len(lines) == 8
    for argv in lines:
        # the example state converts to itself and passes validation, so every
        # line documents exit code 0
        assert cli.main(argv[1:]) == 0, argv
        printed, err = capsys.readouterr()
        assert printed and err == "", argv
    assert json.loads((tmp_path / "m.json").read_text())["rows"] == 3
