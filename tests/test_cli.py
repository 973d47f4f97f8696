import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import finpot.instances
from finpot import core
from conftest import break_cone_solver, break_gauss_solution, break_simplex_solver
from finpot.cli import (
    EXIT_CONFIG,
    EXIT_INVARIANT,
    EXIT_OK,
    config_hash,
    main,
    validate_report,
)
from finpot.fixtures import mixed_instance

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


@pytest.mark.parametrize("path", ["lapack", "numpy"])
def test_every_sidecar_names_the_linalg_path_and_no_report_does(tmp_path, monkeypatch, path):
    # the path of the SPD factorizations is run metadata: hosts may differ in
    # it while their reports agree
    if path == "numpy":
        monkeypatch.setattr(core, "_LAPACK", None)
    elif core._LAPACK is None:
        pytest.skip("numpy's LAPACK is not scipy-openblas")
    chain = {"schema": "finpot-config/1", "instance": sphere_instance(40), "stages": 3}
    shells = {**sphere_instance(), "geometry": {"type": "shell_union", "q": 2.0, "counts": [16] * 3}}
    configs = {command: raw_config("mixed_small.json") for command in ("balayage", "gauss", "capacity", "solvability")}
    configs.update({
        "converge-up": chain,
        "converge-down": chain,
        "thinness": {"schema": "finpot-config/1", "instance": shells},
        "verify": {"schema": "finpot-config/1"},
    })
    for command, config in configs.items():
        out = tmp_path / command
        cfg = write_config(tmp_path, f"{command}.json", config)
        assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_OK, command
        meta = json.loads((out / f"{command}-report.meta.json").read_text())
        assert meta["linalg"] == path
        assert "linalg" not in (out / f"{command}-report.json").read_text()


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
        assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_OK
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


# the checks of every bundled fixture, in the order verify runs them
_VERIFY_CHECKS = (
    "fixture-readable", "balayage-characterization", "gauss-equilibrium", "value-ordering",
    "cone-oracle", "simplex-oracle", "strong-cauchy-chain",
)


def test_verify_bundled_fixtures(tmp_path):
    out = tmp_path / "out"
    assert main(["verify", "--out", str(out)]) == EXIT_OK
    report = read_report(out, "verify")
    assert report["result"]["passed"] is True
    assert all(c["passed"] for c in report["result"]["checks"])
    small = ("atom_in_target.json", "mass_one.json", "mixed_small.json", "negative_omega.json")
    # riesz_sphere has too many nodes for the oracles, and the one known h constant
    sphere = [c for c in _VERIFY_CHECKS if not c.endswith("-oracle")] + ["mass-bound"]
    expected = [(f, c) for f in small for c in _VERIFY_CHECKS] + [("riesz_sphere.json", c) for c in sphere]
    assert [(c["fixture"], c["check"]) for c in report["result"]["checks"]] == expected


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


def test_center_of_another_dimension_exits_4(tmp_path, capsys):
    instance = sphere_instance(20)
    instance["geometry"]["center"] = [0.5, 0.0]
    path = write_config(tmp_path, "c.json", {"schema": "finpot-config/1", "instance": instance})
    assert main(["capacity", "--config", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "center [0.5, 0.0] does not have 3 coordinates" in capsys.readouterr().err


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


def test_instance_too_large_to_allocate_exits_4(tmp_path, monkeypatch, capsys):
    # a million nodes need a 7.3 TiB distance matrix; the failure is raised in
    # its place, since an allocation that fits in virtual memory but not in
    # RAM is killed by the system rather than raised
    def refuse(points):
        raise MemoryError(f"Unable to allocate a {len(points)} x {len(points)} distance matrix")

    monkeypatch.setattr(finpot.instances, "_pairwise_distances", refuse)
    path = write_config(tmp_path, "c.json", {"schema": "finpot-config/1", "instance": sphere_instance(10**6)})
    assert main(["capacity", "--config", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "config error: Unable to allocate a 1000001 x 1000001" in capsys.readouterr().err


def test_bad_support_exits_4(tmp_path):
    cfg = raw_config("mixed_small.json")
    cfg["support"] = [0, 99]
    path = write_config(tmp_path, "c.json", cfg)
    assert main(["balayage", "--config", str(path)]) == EXIT_CONFIG


def test_thread_count_variable_is_ignored(tmp_path, monkeypatch):
    path = write_config(tmp_path, "family.json", shell_family_config())
    plain, with_env = tmp_path / "plain", tmp_path / "env"
    assert main(["solvability", "--config", str(path), "--out", str(plain)]) == EXIT_OK
    monkeypatch.setenv("BALAYAGE_THREADS", "abc")
    assert main(["solvability", "--config", str(path), "--out", str(with_env)]) == EXIT_OK
    for name in ("solvability-report.json", "solvability-report.csv"):
        assert (with_env / name).read_bytes() == (plain / name).read_bytes()


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_non_finite_tol_flag_exits_4(tmp_path, capsys, tol):
    path = write_config(tmp_path, "c.json", raw_config("mixed_small.json"))
    argv = ["balayage", "--config", str(path), "--out", str(tmp_path), "--tol", tol]
    assert main(argv) == EXIT_CONFIG
    assert "--tol must be finite" in capsys.readouterr().err


def _instance_config():
    return {"schema": "finpot-config/1", "instance": sphere_instance(20)}


def _three_node_config():
    return {
        "schema": "finpot-config/1",
        "kernel": {"m": 3, "entries": [[1.0, 0.1, 0.1], [0.1, 1.0, 0.1], [0.1, 0.1, 1.0]]},
        "omega": {"m": 3, "weights": [1.0, 0.0, 0.0]},
    }


def _geometry_config(**geometry):
    instance = sphere_instance(20)
    return {"schema": "finpot-config/1", "instance": {**instance, "geometry": {**instance["geometry"], **geometry}}}


def _edited(cfg, key, **values):
    return {**cfg, key: {**cfg[key], **values}}


def _instance_edit(**values):
    return _edited(_instance_config(), "instance", **values)


def _heavy_family():
    cfg = shell_family_config()
    cfg["family"][0]["charge"][0]["mass"] = 4.0
    return cfg


def _shell_config(**geometry):
    return _instance_edit(geometry={"type": "shell_union", "q": 2.0, "counts": [8, 8], **geometry})


@pytest.mark.parametrize(
    "command, cfg, key",
    [
        ("balayage", {**raw_config("mixed_small.json"), "tol": "abc"}, "tol"),
        ("balayage", {**raw_config("mixed_small.json"), "tol": 0}, "tol"),
        ("balayage", {**raw_config("mixed_small.json"), "tol": -1}, "tol"),
        ("balayage", {**_instance_config(), "omega_scale": "abc"}, "omega_scale"),
        ("balayage", {**_instance_config(), "omega_scale": float("nan")}, "omega_scale"),
        ("converge-up", {**raw_config("mixed_small.json"), "stages": "abc"}, "stages"),
        ("solvability", {**shell_family_config(), "scalings": ["x"]}, "scaling"),
        ("solvability", {**shell_family_config(), "scalings": 5}, "scalings"),
        ("solvability", {**shell_family_config(), "scalings": [float("nan")]}, "scaling"),
        ("balayage", {**raw_config("mixed_small.json"), "h": "abc"}, "h must be a number"),
        ("balayage", {**raw_config("mixed_small.json"), "h": 0.5}, "h must be at least 1"),
        ("solvability", {**shell_family_config(), "family": []}, "family must be"),
        ("verify", {"schema": "finpot-config/1", "fixtures_dir": 5}, "fixtures_dir must be"),
        ("converge-up", {**_three_node_config(), "chain": [[0], [0, 7]]}, "exceed the kernel size 3"),
        ("converge-up", {**_three_node_config(), "chain": [[0], [0, 1.0]]}, "chain stage must be"),
        ("converge-up", {**_three_node_config(), "chain": []}, "chain must be"),
        ("balayage", {**_three_node_config(), "support": [0.5]}, "support must be"),
        ("balayage", {**_three_node_config(), "support": [True]}, "support must be"),
        ("solvability", {**_three_node_config(), "capacity_finite": "no"}, "capacity_finite must be"),
        ("balayage", _geometry_config(radius=-1.0), "radius must be positive"),
        ("balayage", _geometry_config(radius=0.0), "radius must be positive"),
        ("balayage", _geometry_config(count=0), "count must be at least 1"),
        ("balayage", _geometry_config(type="ball", radius=-2.0), "radius must be positive"),
        ("balayage", {**raw_config("mixed_small.json"), "tol": True}, "tol must be a number"),
        ("balayage", {**raw_config("mixed_small.json"), "tol": "1e-8"}, "tol must be a number"),
        ("balayage", {**raw_config("mixed_small.json"), "tol": 10**400}, "tol must be finite"),
        ("balayage", {**raw_config("mixed_small.json"), "h": True}, "h must be a number"),
        ("balayage", {**_instance_config(), "omega_scale": True}, "omega_scale must be a number"),
        ("balayage", {**_instance_edit(charge=[{"point": [2.0, 0.0, 0.0], "mass": 4.0}]), "omega_scale": 1e308},
         "overflows"),
        ("converge-up", {**_three_node_config(), "stages": True}, "stages must be an integer"),
        ("converge-up", {**_three_node_config(), "stages": "2"}, "stages must be an integer"),
        ("converge-up", {**_three_node_config(), "stages": 2.0}, "stages must be an integer"),
        ("balayage", _edited(_three_node_config(), "kernel", m=3.5), "m must be an integer"),
        ("balayage", _edited(_three_node_config(), "omega", weights=[True, False, False]), "weights must be"),
        ("balayage", _geometry_config(count=20.7), "count must be an integer"),
        ("balayage", _geometry_config(count=True), "count must be an integer"),
        ("balayage", _instance_edit(kernel={"type": "riesz", "alpha": True}), "alpha must be a number"),
        ("balayage", _instance_edit(dimension=3.9), "dimension must be an integer"),
        ("balayage", _shell_config(counts=[8, 8.9]), "counts must be an integer"),
        ("balayage", _shell_config(shrink=True), "shrink must be a number"),
        ("balayage", _shell_config(q=1e300), "invalid instance spec"),
        ("balayage", _instance_edit(charge=[{"point": [2.0, 0.0, 0.0], "mass": True}]), "mass must be a number"),
        ("solvability", {**_heavy_family(), "scalings": [1e308, 1.0]}, "overflows"),
    ],
    ids=["tol-abc", "tol-0", "tol-neg", "omega_scale-abc", "omega_scale-nan",
         "stages-abc", "scalings-x", "scalings-5", "scalings-nan", "h-abc", "h-half",
         "family-empty", "fixtures_dir-5", "chain-out-of-range", "chain-float", "chain-empty",
         "support-float", "support-bool", "capacity_finite-string", "sphere-radius-negative",
         "sphere-radius-zero", "sphere-count-zero", "ball-radius-negative", "tol-true", "tol-string",
         "tol-huge-int", "h-true", "omega_scale-true", "omega_scale-overflow", "stages-true",
         "stages-string", "stages-float", "kernel-m-float", "omega-weights-bool", "sphere-count-float",
         "sphere-count-true", "alpha-true", "dimension-float", "shell-counts-float", "shell-shrink-true",
         "shell-q-overflow", "charge-mass-true", "scalings-overflow"],
)
def test_malformed_config_number_exits_4(tmp_path, capsys, command, cfg, key):
    path = write_config(tmp_path, "c.json", cfg)
    assert main([command, "--config", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error") and key in err


@pytest.mark.parametrize("rows, shape", [("1,0.2\n", "1 x 2"), ("1\n0.2\n", "2 x 1"), ("1,0,0\n0,1,0\n", "2 x 3")])
def test_a_non_square_kernel_csv_exits_4_naming_its_shape(tmp_path, capsys, rows, shape):
    (tmp_path / "k.csv").write_text(rows)
    cfg = {"schema": "finpot-config/1", "kernel": {"csv": str(tmp_path / "k.csv")},
           "omega": {"m": 2, "weights": [1.0, 0.0]}}
    path = write_config(tmp_path, "c.json", cfg)
    assert main(["balayage", "--config", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: invalid kernel: kernel CSV must be a square matrix, got {shape}\n"


@pytest.mark.parametrize("out", [5, None])
def test_config_out_must_be_a_string(tmp_path, capsys, out):
    path = write_config(tmp_path, "c.json", {**raw_config("mixed_small.json"), "out": out})
    assert main(["balayage", "--config", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: out must be a string")


def test_tol_flag_that_is_not_a_number_exits_4(tmp_path, capsys):
    path = write_config(tmp_path, "c.json", raw_config("mixed_small.json"))
    assert main(["balayage", "--config", str(path), "--out", str(tmp_path), "--tol", "abc"]) == EXIT_CONFIG
    assert "config error: --tol must be a number" in capsys.readouterr().err


def test_tol_flag_keeps_the_config_hash(tmp_path):
    # --tol 1e-6 hashes as a config whose "tol" is the float 1e-6
    cfg = raw_config("mixed_small.json")
    path = write_config(tmp_path, "c.json", cfg)
    out = tmp_path / "out"
    assert main(["balayage", "--config", str(path), "--out", str(out), "--tol", "1e-6"]) == EXIT_OK
    assert read_report(out, "balayage")["config_sha256"] == config_hash({**cfg, "tol": 1e-6})


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bogus"], "invalid choice"),
        (["balayage", "--bogus"], "unrecognized arguments"),
        ([], "the following arguments are required"),
        (["converge-up", "--summary"], "unrecognized arguments"),
    ],
    ids=["unknown-command", "unknown-flag", "missing-command", "summary-flag"],
)
def test_usage_errors_exit_4(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("usage: finpot") and message in err


def test_the_parser_is_built_once(capsys):
    from finpot.cli import _build_parser

    parser = _build_parser()
    for argv in (["bogus"], ["balayage", "--bogus"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_CONFIG
    assert _build_parser() is parser
    assert "usage: finpot" in capsys.readouterr().err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["balayage", "--help"])
    assert exc.value.code == EXIT_OK
    assert "--config" in capsys.readouterr().out


def test_usage_error_exit_code_of_the_process():
    result = subprocess.run([sys.executable, "-m", "finpot", "bogus"], capture_output=True, text=True)
    assert result.returncode == EXIT_CONFIG
    assert "invalid choice" in result.stderr and "Traceback" not in result.stderr


def test_more_stages_than_nodes_give_one_stage_per_node(tmp_path):
    reports = []
    for stages in (3, 10**12):
        path = write_config(tmp_path, "c.json", {**_three_node_config(), "stages": stages})
        out = tmp_path / str(stages)
        start = time.perf_counter()
        assert main(["converge-up", "--config", str(path), "--out", str(out)]) == EXIT_OK
        assert time.perf_counter() - start < 30.0
        reports.append(read_report(out, "converge-up")["result"])
    assert reports[0] == reports[1]
    assert len(reports[0]["stage_values"]) == 3


def test_fixture_that_is_not_an_object_fails_verify(tmp_path, capsys):
    fxdir = tmp_path / "fx"
    fxdir.mkdir()
    (fxdir / "list.json").write_text("[1, 2]")
    cfg = write_config(tmp_path, "c.json", {"schema": "finpot-config/1", "fixtures_dir": str(fxdir)})
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_INVARIANT
    assert "list.json:fixture-readable" in capsys.readouterr().err


def test_fixture_with_non_finite_tol_fails_verify(tmp_path, capsys):
    fxdir = tmp_path / "fx"
    fxdir.mkdir()
    fx = load_fixture("mixed_small.json")
    fx["tol"] = float("nan")
    (fxdir / "nan_tol.json").write_text(json.dumps(fx))
    cfg = write_config(tmp_path, "c.json", {"schema": "finpot-config/1", "fixtures_dir": str(fxdir)})
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_INVARIANT
    assert "nan_tol.json:fixture-readable" in capsys.readouterr().err


def test_fixture_with_malformed_h_fails_verify(tmp_path, capsys):
    fxdir = tmp_path / "fx"
    fxdir.mkdir()
    fx = load_fixture("riesz_sphere.json")
    fx["h"] = "abc"
    (fxdir / "bad_h.json").write_text(json.dumps(fx))
    cfg = write_config(tmp_path, "c.json", {"schema": "finpot-config/1", "fixtures_dir": str(fxdir)})
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_INVARIANT
    err = capsys.readouterr().err
    assert "bad_h.json:fixture-readable" in err and "h must be a number" in err


def _overflowing_configs():
    """(command, config) pairs whose charge potential overflows; None is a verify fixture run."""
    raw = {"schema": "finpot-config/1", "kernel": {"m": 2, "entries": [[2.0, 1.0], [1.0, 2.0]]},
           "omega": {"m": 2, "weights": [1e308, 1e308]}, "support": [0]}
    sphere = sphere_instance(12)
    sphere["charge"] = [{"point": [0.1, 0.0, 0.0], "mass": 1e308}, {"point": [0.0, 0.1, 0.0], "mass": 1e308}]
    scan = {**shell_family_config(), "scalings": [1e8]}
    for instance in scan["family"]:
        instance["geometry"]["counts"] = [16] * len(instance["geometry"]["counts"])
        instance["charge"] = [{"point": [0.9, 0.0, 0.0], "mass": 1e300}, {"point": [-0.9, 0.0, 0.0], "mass": 1e300}]
    return [(command, raw) for command in ("balayage", "gauss", "solvability", "converge-down")] + [
        ("balayage", {"schema": "finpot-config/1", "instance": sphere}), ("solvability", scan), ("verify", None)
    ]


@pytest.mark.parametrize(
    "command, cfg", _overflowing_configs(),
    ids=["raw-balayage", "raw-gauss", "raw-solvability", "raw-converge-down", "sphere", "scan", "verify"],
)
def test_a_charge_whose_potential_overflows_is_a_config_error(tmp_path, capsys, command, cfg):
    # max diag K * max|scale| * sum|omega| overflows; the potential would too
    if cfg is None:
        fxdir = tmp_path / "fx"
        fxdir.mkdir()
        fx = load_fixture("mixed_small.json")
        fx["omega"]["weights"] = [1e308] * len(fx["omega"]["weights"])
        (fxdir / "huge.json").write_text(json.dumps(fx))
        cfg = {"schema": "finpot-config/1", "fixtures_dir": str(fxdir)}
    path = write_config(tmp_path, "c.json", cfg)
    code = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    if command == "verify":
        assert code == EXIT_INVARIANT and "huge.json:fixture-readable" in err
    else:
        assert code == EXIT_CONFIG and err.startswith("config error")
    assert "overflows" in err


def _tamed_configs():
    """(command, config) pairs over the charges above whose scaled potential is finite."""
    configs = dict(zip(["raw", "gauss", "solvability", "down", "sphere", "scan"], _overflowing_configs()))
    raw, scan = configs["raw"][1], {**configs["scan"][1], "scalings": [1e-308]}
    for instance in scan["family"]:
        for atom in instance["charge"]:
            atom["mass"] = 1e308
    return [("balayage", {**raw, "omega_scale": 1e-300}), ("balayage", {**raw, "omega_scale": 0.0}),
            ("solvability", scan), ("capacity", raw)]


@pytest.mark.parametrize("command, cfg", _tamed_configs(), ids=["scale-tiny", "scale-zero", "scan-tiny", "capacity"])
def test_a_huge_charge_whose_scaled_potential_is_finite_still_runs(tmp_path, command, cfg):
    # the charge is scaled before it is summed; capacity ignores the charge
    path = write_config(tmp_path, "c.json", cfg)
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_OK


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


def test_verify_reports_a_failed_gauss_solve(tmp_path, capsys):
    # at tol 3e-15 the simplex solver misses its residual bound on atom_in_target
    out = tmp_path / "out"
    assert main(["verify", "--tol", "3e-15", "--out", str(out)]) == EXIT_INVARIANT
    assert "verify: FAIL atom_in_target.json:gauss-equilibrium" in capsys.readouterr().err
    checks = read_report(out, "verify")["result"]["checks"]
    recorded = [c["check"] for c in checks if c["fixture"] == "atom_in_target.json"]
    # no Gauss answer, so nothing to order against the sweep or to judge by the simplex oracle
    assert recorded == ["fixture-readable", "balayage-characterization", "gauss-equilibrium",
                        "cone-oracle", "strong-cauchy-chain"]


def test_verify_reports_a_failed_chain_solve(tmp_path, capsys):
    # at tol 5e-16 the sweep and the Gauss solve pass, but a warm chain stage exceeds its iterations
    kernel, omega, support = mixed_instance(3, 10)
    fxdir = tmp_path / "fx"
    fxdir.mkdir()
    fixture = {"schema": "finpot-fixture/1", "kernel": kernel.to_json(), "omega": omega.to_json(),
               "support": list(support.indices), "tol": 5e-16}
    (fxdir / "chain.json").write_text(json.dumps(fixture))
    cfg = write_config(tmp_path, "c.json", {"schema": "finpot-config/1", "fixtures_dir": str(fxdir)})
    out = tmp_path / "out"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == EXIT_INVARIANT
    assert "verify: FAIL chain.json:strong-cauchy-chain" in capsys.readouterr().err
    checks = read_report(out, "verify")["result"]["checks"]
    assert [(c["check"], c["passed"]) for c in checks] == [
        (name, name != "strong-cauchy-chain") for name in _VERIFY_CHECKS
    ]


def test_scan_cell_failure_exits_2(tmp_path, monkeypatch, capsys):
    import finpot.experiments
    from finpot.balayage import CharacterizationViolated

    def solve(*args, **kwargs):
        raise CharacterizationViolated("gate fired", {"support_equality": 1.0})

    monkeypatch.setattr(finpot.experiments, "solve_gauss", solve)
    path = write_config(tmp_path, "family.json", shell_family_config())
    assert main(["solvability", "--config", str(path), "--out", str(tmp_path)]) == EXIT_INVARIANT
    assert "invariant violated: gate fired" in capsys.readouterr().err


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
