"""The study scripts import the public API; loading each one catches a removed name."""

import json
import runpy
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


def test_scripts_are_found():
    assert SCRIPTS


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_loads(path):
    # every script keeps its work under a __main__ guard, so this runs only
    # its imports and definitions
    namespace = runpy.run_path(str(path), run_name="smoke")
    assert callable(namespace["main"])


def test_report_drift_reports_numeric_drift_and_fails_on_other_changes(tmp_path, capsys):
    main = runpy.run_path(str(SCRIPTS[0].parent / "report_drift.py"), run_name="smoke")["main"]
    report = {"command": "gauss", "result": {"value": 2.0, "weights": [0.25, 0.75], "status": "ok"}}
    for side, value, status in (("a", 2.0, "ok"), ("b", 2.0 + 2.0**-48, "ok"), ("c", 2.0, "failed")):
        (tmp_path / side / "run").mkdir(parents=True)
        body = {**report, "result": {**report["result"], "value": value, "status": status}}
        (tmp_path / side / "run" / "gauss-report.json").write_text(json.dumps(body))
    assert main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    out = capsys.readouterr().out
    assert "1 report pairs; 1 key paths with numeric drift" in out
    # |a - b| = 2**-48 = 3.553e-15, relative 1.776e-15
    assert " 3.553e-15  1.776e-15    1.776e-15       1  .result.value" in out
    assert "weights" not in out
    assert main([str(tmp_path / "a"), str(tmp_path / "c")]) == 1
    assert "non-numeric: run/gauss-report.json: .result.status: 'ok' against 'failed'" in capsys.readouterr().out
