#!/usr/bin/env python3
"""Numeric drift between the reports of two output directories.

Pairs every ``*-report.json`` and ``*-report.csv`` under directory A with
the file at the same relative path under B and walks the two JSON trees
together.  A CSV is read as its rows, each cell that ``float()`` accepts a
number, under the key path ``<csv name>.<column>``.  For each key path with
a differing number (list positions fold into ``[]``) it prints the largest
absolute difference, the largest relative difference
``|a - b| / max(|a|, |b|)`` and the largest ``|a - b| / max(1, |a|)``.  Any
other difference (a missing report or key, a list length, a string, a
boolean, null against a number, a CSV header or row count) is printed too,
and makes the exit status 1.

Usage: python scripts/report_drift.py A B
"""

from __future__ import annotations

import argparse
import csv
import json
import math
from pathlib import Path


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _walk(a, b, path: str, drift: dict, other: list) -> None:
    if _is_number(a) and _is_number(b) and math.isfinite(a) and math.isfinite(b):
        if a != b:
            d = abs(a - b)
            rel = d / max(abs(a), abs(b))
            scaled = d / max(1.0, abs(a))
            old = drift.get(path, (0.0, 0.0, 0.0, 0))
            drift[path] = (max(old[0], d), max(old[1], rel), max(old[2], scaled), old[3] + 1)
    elif isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            if key not in a or key not in b:
                other.append(f"{path}.{key}: only in {'A' if key in a else 'B'}")
            else:
                _walk(a[key], b[key], f"{path}.{key}", drift, other)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            other.append(f"{path}: {len(a)} items against {len(b)}")
        else:
            for x, y in zip(a, b):
                _walk(x, y, f"{path}[]", drift, other)
    elif type(a) is not type(b) or a != b and not (_is_number(a) and math.isnan(a) and math.isnan(b)):
        other.append(f"{path}: {a!r} against {b!r}")


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _read_csv(path: Path) -> tuple[list, list]:
    """The header and the rows of a CSV report, numeric cells parsed."""
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        rows = [{key: _cell(value) for key, value in row.items()} for row in reader]
        return list(reader.fieldnames or []), rows


def _walk_csv(a_path: Path, b_path: Path, drift: dict, found: list) -> None:
    (a_header, a_rows), (b_header, b_rows) = _read_csv(a_path), _read_csv(b_path)
    if a_header != b_header:
        found.append(f"header {a_header} against {b_header}")
    elif len(a_rows) != len(b_rows):
        found.append(f"{len(a_rows)} rows against {len(b_rows)}")
    else:
        for a, b in zip(a_rows, b_rows):
            _walk(a, b, a_path.name, drift, found)


def _reports(root: Path) -> set:
    return {p.relative_to(root) for pattern in ("*-report.json", "*-report.csv") for p in root.rglob(pattern)}


def compare(a_dir: Path, b_dir: Path) -> tuple[int, dict, list]:
    """Walk every report pair; return (pairs, numeric drift by key path, other differences).

    The drift of a key path is ``(max abs, max rel, max |a - b| / max(1, |a|),
    differing leaves)`` over every report.
    """
    drift: dict = {}
    other: list = []
    a_names, b_names = _reports(a_dir), _reports(b_dir)
    other += [f"{name}: only in {'A' if name in a_names else 'B'}" for name in sorted(a_names ^ b_names)]
    pairs = sorted(a_names & b_names)
    for name in pairs:
        found: list = []
        if name.suffix == ".csv":
            _walk_csv(a_dir / name, b_dir / name, drift, found)
        else:
            _walk(json.loads((a_dir / name).read_text()), json.loads((b_dir / name).read_text()), "", drift, found)
        other += [f"{name}: {line}" for line in found]
    return len(pairs), drift, other


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    pairs, drift, other = compare(args.a, args.b)
    print(f"{pairs} report pairs; {len(drift)} key paths with numeric drift")
    if drift:
        print(f"{'max abs':>10} {'max rel':>10} {'max/(1,|a|)':>12} {'leaves':>7}  key path")
        for key, (d, rel, scaled, n) in sorted(drift.items(), key=lambda kv: -kv[1][2]):
            print(f"{d:10.3e} {rel:10.3e} {scaled:12.3e} {n:7d}  {key}")
        print(f"largest |a - b| / max(1, |a|): {max(v[2] for v in drift.values()):.3e}")
    for line in other:
        print(f"non-numeric: {line}")
    return 1 if other else 0


if __name__ == "__main__":
    raise SystemExit(main())
