"""The bundled fixtures' reports against the committed goldens under ``tests/golden/``.

Each of the five fixtures runs under ``balayage``, ``gauss``, ``capacity``,
``solvability`` and ``converge-up``.  The reports must match the goldens in
every key, string and list length, and in every number to within
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
COMMANDS = ("balayage", "gauss", "capacity", "solvability", "converge-up")


def write_reports(out: Path) -> None:
    """Run every fixture under every command, each into ``out/<fixture>/``."""
    for path in sorted(FIXTURES.glob("*.json")):
        fixture = json.loads(path.read_text())
        config = {key: value for key, value in fixture.items() if key != "name"}
        config["schema"] = "finpot-config/1"
        target = out / path.stem
        target.mkdir(parents=True, exist_ok=True)
        config_path = out / "config.json"
        config_path.write_text(json.dumps(config))
        for command in COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main([command, "--config", str(config_path), "--out", str(target)])
            assert code == EXIT_OK, f"{path.stem} {command}: exit {code}"
        for extra in target.iterdir():  # the metadata sidecars and the CSVs
            if not extra.name.endswith("-report.json"):
                extra.unlink()
        config_path.unlink()


def test_fixture_reports_match_the_goldens(tmp_path):
    write_reports(tmp_path)
    compare = runpy.run_path(str(ROOT / "scripts" / "report_drift.py"), run_name="golden")["compare"]
    pairs, drift, other = compare(GOLDEN, tmp_path)
    assert pairs == 5 * len(COMMANDS)
    assert other == []
    worst = {path: scaled for path, (_, _, scaled, _) in drift.items() if scaled > 1e-12}
    assert worst == {}


if __name__ == "__main__":
    write_reports(GOLDEN)
