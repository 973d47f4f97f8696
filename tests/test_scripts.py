"""The study scripts import the public API; loading each one catches a removed name."""

import json
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

from finpot.core import KernelMatrix
from finpot.fixtures import random_spd_kernel
from finpot.instances import Ball, InstanceSpec, RieszKernel, Sphere, assemble

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


def _script(name):
    return runpy.run_path(str(SCRIPTS[0].parent / name), run_name="smoke")


def test_scripts_are_found():
    assert SCRIPTS


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_loads(path):
    # every script keeps its work under a __main__ guard, so this runs only
    # its imports and definitions
    namespace = runpy.run_path(str(path), run_name="smoke")
    assert callable(namespace["main"])


def test_report_drift_reports_numeric_drift_and_fails_on_other_changes(tmp_path, capsys):
    main = _script("report_drift.py")["main"]
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


# the tiny presets: 120 sphere nodes for warm-solve, 8 nodes per shell for shell-scan
@pytest.mark.parametrize(
    "workload, kinds",
    [
        ("warm-solve", lambda kind: kind.rsplit("-", 1)[1] in {"whole", "cap"}),
        # a scan's kind names its stage count
        ("shell-scan", lambda kind: kind in {"chain", "scan-3", "scan-4", "scan-5"}),
    ],
)
def test_memory_probe_reports_each_request_kind(capsys, workload, kinds):
    main = _script("memory_probe.py")["main"]
    assert main(["--workload", workload, "--seed", "3", "--requests", "10", "--size", "tiny"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"{workload} seed 3, first 10 requests"
    assert out[1].startswith("ru_maxrss ") and out[1].endswith(" MB")
    rows = [line.split() for line in out[3:-1]]
    assert sum(int(row[1]) for row in rows) == 10
    assert all(kinds(row[0]) for row in rows)
    assert all(float(row[2]) > 0.0 for row in rows)  # the median op time, in ms
    assert out[-1].startswith("largest op peak ")


# ---------------------------------------------------------------------------
# maximum-principle probe of the ugaheri survey
# ---------------------------------------------------------------------------


def test_ugaheri_diagonal_kernel_is_one():
    ugaheri_estimate = _script("ugaheri_survey.py")["ugaheri_estimate"]
    K = KernelMatrix(np.diag([1.0, 2.0, 3.0, 4.0]))
    assert ugaheri_estimate(K, trials=20, seed=1) == 1.0


def test_ugaheri_newtonian_sphere_within_frostman_slack():
    # recorded: the inverse-distance sphere matrix probed at 1.0 exactly over
    # 100 random subsets; 2% is the documented slack for the discretization
    ugaheri_estimate = _script("ugaheri_survey.py")["ugaheri_estimate"]
    inst = assemble(InstanceSpec(3, RieszKernel(1.0), Sphere(1.0, 120)))
    assert ugaheri_estimate(inst.kernel, trials=100, seed=3) <= 1.02


def test_ugaheri_order_above_two_recorded_band():
    # recorded 1.0665 at this seed; the theoretical ceiling for order 2.5 in
    # dimension 3 is 2 ** 0.5, asserted with slack and never asserted tight
    ugaheri_estimate = _script("ugaheri_survey.py")["ugaheri_estimate"]
    inst = assemble(InstanceSpec(3, RieszKernel(2.5), Ball(1.0, 150)))
    assert 1.0 <= ugaheri_estimate(inst.kernel, trials=100, seed=3) <= 2**0.5 * 1.05


def test_ugaheri_determinism_and_validation():
    ugaheri_estimate = _script("ugaheri_survey.py")["ugaheri_estimate"]
    K = random_spd_kernel(6, 10)
    assert ugaheri_estimate(K, trials=30, seed=7) == ugaheri_estimate(K, trials=30, seed=7)
    with pytest.raises(ValueError):
        ugaheri_estimate(K, trials=0)


def test_ugaheri_survey_runs_end_to_end(monkeypatch, capsys):
    main = _script("ugaheri_survey.py")["main"]
    monkeypatch.setattr(sys, "argv", ["ugaheri_survey.py", "--trials", "2", "--m", "12"])
    main()
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["alpha", "geometry", "h_hat", "ceiling"]
    # 7 Riesz orders, each on a sphere and a ball
    assert len(rows) == 14
    assert all(float(row.split()[2]) >= 1.0 for row in rows)
