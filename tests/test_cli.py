import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import break_cone_solver, break_gauss_solution, break_simplex_solver
from finpot.cli import (
    EXIT_CONFIG,
    EXIT_INVARIANT,
    EXIT_OK,
    config_hash,
    main,
    validate_report,
)

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "finpot" / "fixtures"


def load_fixture(name: str) -> dict:
    return json.loads((FIXTURES / name).read_text())


def write_config(tmp_path: Path, name: str, cfg: dict) -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def raw_config(fixture: str) -> dict:
    fx = load_fixture(fixture)
    return {
        "schema": "finpot-config/1",
        "kernel": fx["kernel"],
        "omega": fx["omega"],
        "support": fx["support"],
    }


def sphere_instance(count=48, charge_mass=1.0):
    return {
        "dimension": 3,
        "kernel": {"type": "riesz", "alpha": 2.0},
        "geometry": {"type": "sphere", "radius": 1.0, "count": count, "center": [0, 0, 0]},
        "regularization": {"type": "nn-half"},
        "charge": [{"point": [2.0, 0.0, 0.0], "mass": charge_mass}],
    }


def shell_family_config():
    fam = []
    for shells in (2, 3):
        fam.append(
            {
                "dimension": 3,
                "kernel": {"type": "riesz", "alpha": 2.0},
                "geometry": {"type": "shell_union", "q": 2.0, "counts": [32] * shells},
                "regularization": {"type": "nn-half"},
                "charge": [{"point": [0.3, 0.0, 0.0], "mass": 1.0}],
            }
        )
    return {"schema": "finpot-config/1", "family": fam, "scalings": [1.0]}


def read_report(outdir: Path, command: str) -> dict:
    report = json.loads((outdir / f"{command}-report.json").read_text())
    validate_report(report)
    return report


# ---------------------------------------------------------------------------
# happy paths
# ---------------------------------------------------------------------------


def test_balayage_negative_fixture_zero_measure(tmp_path):
    cfg = write_config(tmp_path, "c.json", raw_config("negative_omega.json"))
    out = tmp_path / "out"
    assert main(["balayage", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    report = read_report(out, "balayage")
    weights = report["result"]["measure"]["weights"]
    assert max(abs(w) for w in weights) == 0.0
    assert report["result"]["value"] == 0.0
    assert (out / "balayage-report.meta.json").exists()


def test_gauss_mass_one_fixture_sets_identification_flag(tmp_path):
    cfg = write_config(tmp_path, "c.json", raw_config("mass_one.json"))
    out = tmp_path / "out"
    assert main(["gauss", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    report = read_report(out, "gauss")
    assert report["result"]["lambda_equals_balayage"] is True
    assert report["result"]["balayage_mass"] == pytest.approx(1.0, abs=1e-8)


def test_capacity_instance_config(tmp_path):
    cfg = write_config(
        tmp_path,
        "c.json",
        {"schema": "finpot-config/1", "instance": sphere_instance(60)},
    )
    out = tmp_path / "out"
    assert main(["capacity", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    report = read_report(out, "capacity")
    assert report["result"]["capacity"] == pytest.approx(1.0, abs=0.12)


def test_converge_commands_emit_csv(tmp_path):
    cfg = write_config(
        tmp_path,
        "c.json",
        {"schema": "finpot-config/1", "instance": sphere_instance(40), "stages": 4},
    )
    for command in ("converge-up", "converge-down"):
        out = tmp_path / command
        assert main([command, "--config", str(cfg), "--out", str(out), "--summary"]) == EXIT_OK
        report = read_report(out, command)
        assert min(report["result"]["fund_slack"]) >= -1e-8
        csv_text = (out / f"{command}-report.csv").read_text()
        assert csv_text.splitlines()[0].startswith("stage,")


def test_thinness_command(tmp_path):
    inst = {
        "dimension": 3,
        "kernel": {"type": "riesz", "alpha": 2.0},
        "geometry": {"type": "shell_union", "q": 2.0, "counts": [32, 32, 32, 32, 32], "shrink": 0.5},
        "regularization": {"type": "nn-half"},
        "charge": [],
    }
    cfg = write_config(tmp_path, "c.json", {"schema": "finpot-config/1", "instance": inst})
    out = tmp_path / "out"
    assert main(["thinness", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    report = read_report(out, "thinness")
    assert report["result"]["verdict"] == "ApparentlyThin"
    assert (out / "thinness-report.csv").exists()


def test_solvability_single_and_family(tmp_path):
    cfg = write_config(
        tmp_path,
        "single.json",
        {"schema": "finpot-config/1", "instance": sphere_instance(40), "capacity_finite": True},
    )
    out = tmp_path / "single"
    assert main(["solvability", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    report = read_report(out, "solvability")
    assert report["result"]["status"] == "solvable"

    cfg2 = write_config(tmp_path, "family.json", shell_family_config())
    out2 = tmp_path / "family"
    assert main(["solvability", "--config", str(cfg2), "--out", str(out2)]) == EXIT_OK
    report2 = read_report(out2, "solvability")
    assert report2["result"]["rows"][0]["verdict"] == "stabilizes"
    assert (out2 / "solvability-report.csv").exists()


def test_gauss_identification_agrees_with_solvability_check(tmp_path):
    # swept mass 1 + 5e-8: outside tol of unit mass, so the minimizer is not the sweep
    cfg = raw_config("mass_one.json")
    cfg["omega_scale"] = 1.0 + 5e-8
    path = write_config(tmp_path, "c.json", cfg)
    out = tmp_path / "out"
    assert main(["gauss", "--config", str(path), "--out", str(out)]) == EXIT_OK
    assert main(["solvability", "--config", str(path), "--out", str(out)]) == EXIT_OK
    from_gauss = read_report(out, "gauss")["result"]["lambda_equals_balayage"]
    from_check = read_report(out, "solvability")["result"]["lambda_equals_balayage"]
    assert from_gauss is from_check is False


def test_verify_bundled_fixtures(tmp_path):
    out = tmp_path / "out"
    assert main(["verify", "--out", str(out)]) == EXIT_OK
    report = read_report(out, "verify")
    assert report["result"]["passed"] is True
    assert all(c["passed"] for c in report["result"]["checks"])


# ---------------------------------------------------------------------------
# determinism and provenance
# ---------------------------------------------------------------------------


def test_reports_are_byte_identical_across_runs(tmp_path):
    cfg = write_config(tmp_path, "c.json", raw_config("mixed_small.json"))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["balayage", "--config", str(cfg), "--out", str(out1)]) == EXIT_OK
    assert main(["balayage", "--config", str(cfg), "--out", str(out2)]) == EXIT_OK
    r1 = (out1 / "balayage-report.json").read_bytes()
    r2 = (out2 / "balayage-report.json").read_bytes()
    assert r1 == r2


def test_config_hash_ignores_output_location(tmp_path):
    cfg = raw_config("mixed_small.json")
    a = config_hash({**cfg, "out": "x"})
    b = config_hash({**cfg, "out": "y", "_summary": True})
    assert a == b
    assert config_hash({**cfg, "tol": 1e-9}) != a


def test_tol_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path, "c.json", raw_config("mixed_small.json"))
    out = tmp_path / "out"
    assert main(
        ["balayage", "--config", str(cfg), "--out", str(out), "--tol", "1e-6"]
    ) == EXIT_OK


# ---------------------------------------------------------------------------
# failure modes and exit codes
# ---------------------------------------------------------------------------


def test_malformed_config_exits_4(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["balayage", "--config", str(bad)]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_missing_config_exits_4(tmp_path):
    assert main(["balayage", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG
    assert main(["balayage"]) == EXIT_CONFIG  # config is required outside verify


def test_two_instance_sources_exit_4(tmp_path):
    cfg = raw_config("mixed_small.json")
    cfg["instance"] = sphere_instance(20)
    path = write_config(tmp_path, "c.json", cfg)
    assert main(["balayage", "--config", str(path)]) == EXIT_CONFIG


def test_non_pd_kernel_exits_4(tmp_path):
    cfg = {
        "schema": "finpot-config/1",
        "kernel": {"m": 2, "entries": [[1.0, 2.0], [2.0, 1.0]]},
        "omega": {"m": 2, "weights": [1.0, 0.0]},
    }
    path = write_config(tmp_path, "c.json", cfg)
    assert main(["balayage", "--config", str(path)]) == EXIT_CONFIG


def test_bad_support_exits_4(tmp_path):
    cfg = raw_config("mixed_small.json")
    cfg["support"] = [0, 99]
    path = write_config(tmp_path, "c.json", cfg)
    assert main(["balayage", "--config", str(path)]) == EXIT_CONFIG


def test_non_integer_thread_count_exits_4(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("BALAYAGE_THREADS", "abc")
    path = write_config(tmp_path, "family.json", shell_family_config())
    assert main(["solvability", "--config", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and "BALAYAGE_THREADS" in err


def test_verify_missing_fixture_dir_exits_4(tmp_path):
    cfg = write_config(
        tmp_path, "c.json", {"schema": "finpot-config/1", "fixtures_dir": str(tmp_path / "none")}
    )
    assert main(["verify", "--config", str(cfg)]) == EXIT_CONFIG


def test_verify_corrupted_fixture_exits_2(tmp_path, capsys):
    fxdir = tmp_path / "fx"
    fxdir.mkdir()
    for name in ("negative_omega.json", "mixed_small.json"):
        shutil.copy(FIXTURES / name, fxdir / name)
    (fxdir / "broken.json").write_text("{]")
    cfg = write_config(
        tmp_path, "c.json", {"schema": "finpot-config/1", "fixtures_dir": str(fxdir)}
    )
    out = tmp_path / "out"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == EXIT_INVARIANT
    err = capsys.readouterr().err
    assert "broken.json" in err


@pytest.mark.parametrize(
    "command, breaker",
    [
        ("balayage", break_cone_solver),
        ("gauss", break_simplex_solver),
        ("capacity", break_gauss_solution),
    ],
)
def test_failed_certification_exits_2(tmp_path, monkeypatch, capsys, command, breaker):
    path = write_config(tmp_path, "c.json", {"schema": "finpot-config/1", "instance": sphere_instance()})
    breaker(monkeypatch)
    assert main([command, "--config", str(path), "--out", str(tmp_path)]) == EXIT_INVARIANT
    assert "invariant violated" in capsys.readouterr().err


def test_verify_tampered_fixture_exits_2(tmp_path):
    # corrupt the data rather than the JSON: a flipped entry sign breaks the
    # kernel contract and must surface as a failed check, not a config error
    fxdir = tmp_path / "fx"
    fxdir.mkdir()
    fx = load_fixture("riesz_sphere.json")
    fx["kernel"]["entries"][0][1] *= -1.0
    fx["kernel"]["entries"][1][0] *= -1.0
    (fxdir / "tampered.json").write_text(json.dumps(fx))
    cfg = write_config(
        tmp_path, "c.json", {"schema": "finpot-config/1", "fixtures_dir": str(fxdir)}
    )
    out = tmp_path / "out"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == EXIT_INVARIANT


def test_console_script_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "finpot", "verify", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "all passed" in result.stdout
