"""Every report shape against the committed goldens under ``tests/golden/``.

Each of the five fixtures runs under ``balayage``, ``gauss``, ``capacity``,
``solvability``, ``converge-up`` and ``converge-down``, and under
``solvability`` once more with ``capacity_finite: false`` (in
``<fixture>/capacity-infinite/``).  One shell-union scan runs with zero,
positive and negative scalings, and ``thinness`` runs on a shrinking and a
full shell union.  The reports and their CSVs must match the goldens in
every key, string, column and length, and in every number to within
``1e-12 * max(1, |x|)``, so that another CPU's rounding still passes.
``verify`` is left out: its detail strings format floats.

Regenerate the goldens (only for a change that means to alter a report) with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import json
import runpy
from pathlib import Path

from finpot.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
FIXTURES = ROOT / "src" / "finpot" / "fixtures"
COMMANDS = ("balayage", "gauss", "capacity", "solvability", "converge-up", "converge-down")
# the CSVs beside the reports: converge-up and converge-down of each fixture,
# the scan table and two thinness series
CSV_REPORTS = 5 + 5 + 1 + 2


def _shell_union(counts: list, shrink=None, charge=()) -> dict:
    return {
        "dimension": 3,
        "kernel": {"type": "riesz", "alpha": 2.0},
        "geometry": {"type": "shell_union", "q": 2.0, "counts": counts, "shrink": shrink},
        "regularization": {"type": "nn-half"},
        "charge": list(charge),
    }


def runs():
    """Every golden report as (directory, command, config)."""
    for path in sorted(FIXTURES.glob("*.json")):
        fixture = json.loads(path.read_text())
        config = {key: value for key, value in fixture.items() if key != "name"}
        config["schema"] = "finpot-config/1"
        for command in COMMANDS:
            yield path.stem, command, config
        yield f"{path.stem}/capacity-infinite", "solvability", {**config, "capacity_finite": False}
    charge = [{"point": [0.3, 0.0, 0.0], "mass": 1.0}]
    family = [_shell_union([16] * shells, charge=charge) for shells in (2, 3, 4)]
    yield "shell-scan", "solvability", {"schema": "finpot-config/1", "family": family,
                                        "scalings": [0, 0.5, 1, -1, 3]}
    for name, shrink in (("thinness-shrinking", 0.5), ("thinness-full", None)):
        yield name, "thinness", {"schema": "finpot-config/1", "instance": _shell_union([16] * 5, shrink)}


def write_reports(out: Path) -> None:
    """Run every golden config, each into ``out/<directory>/``, keeping only the reports and CSVs."""
    config_path = out / "config.json"
    for directory, command, config in runs():
        target = out / directory
        target.mkdir(parents=True, exist_ok=True)
        config_path.write_text(json.dumps(config))
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "--config", str(config_path), "--out", str(target)])
        assert code == EXIT_OK, f"{directory} {command}: exit {code}"
        for extra in target.iterdir():  # the metadata sidecars and the node clouds
            if extra.is_file() and not extra.name.endswith(("-report.json", "-report.csv")):
                extra.unlink()
    config_path.unlink()


def test_fixture_reports_match_the_goldens(tmp_path):
    write_reports(tmp_path)
    compare = runpy.run_path(str(ROOT / "scripts" / "report_drift.py"), run_name="golden")["compare"]
    pairs, drift, other = compare(GOLDEN, tmp_path)
    assert pairs == len(list(runs())) + CSV_REPORTS
    assert other == []
    worst = {path: scaled for path, (_, _, scaled, _) in drift.items() if scaled > 1e-12}
    assert worst == {}


if __name__ == "__main__":
    write_reports(GOLDEN)
