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
    csv_rows = {"a": "0,1.0,leaks\n1,nan,leaks\n", "b": f"0,{1.0 + 2.0**-52!r},leaks\n1,nan,leaks\n",
                "c": "0,1.0,leaks\n1,nan,leaks\n2,1.0,leaks\n"}
    for side, value, status in (("a", 2.0, "ok"), ("b", 2.0 + 2.0**-48, "ok"), ("c", 2.0, "failed")):
        (tmp_path / side / "run").mkdir(parents=True)
        body = {**report, "result": {**report["result"], "value": value, "status": status}}
        (tmp_path / side / "run" / "gauss-report.json").write_text(json.dumps(body))
        (tmp_path / side / "run" / "chain-report.csv").write_text("stage,value,verdict\n" + csv_rows[side])
    assert main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    out = capsys.readouterr().out
    assert "2 report pairs; 2 key paths with numeric drift" in out
    # |a - b| = 2**-48 = 3.553e-15, relative 1.776e-15
    assert " 3.553e-15  1.776e-15    1.776e-15       1  .result.value" in out
    # a CSV cell: |a - b| = 2**-52 = 2.220e-16; the NaN cells match
    assert " 2.220e-16  2.220e-16    2.220e-16       1  chain-report.csv.value" in out
    assert "weights" not in out and "non-numeric" not in out
    assert main([str(tmp_path / "a"), str(tmp_path / "c")]) == 1
    out = capsys.readouterr().out
    assert "non-numeric: run/gauss-report.json: .result.status: 'ok' against 'failed'" in out
    assert "non-numeric: run/chain-report.csv: 2 rows against 3" in out
