"""The command-line contract under malformed configs.

A valid config of each command is mutated at one or two places: wrong types,
booleans and strings where numbers belong, NaN and infinities, fractional and
out-of-range indices, empty and nested lists, and missing keys.  Whatever the
mutation, the command must end in a documented exit code (0, 2, 3 or 4) and
never in an uncaught exception.  Node counts in the mutated configs stay at or
below 64, so no run assembles a large kernel.
"""

import contextlib
import copy
import io
import json
import math
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from finpot.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "finpot" / "fixtures"

MAX_COUNT = 64

THREE_NODES = {
    "kernel": {"m": 3, "entries": [[1.0, 0.1, 0.1], [0.1, 1.0, 0.1], [0.1, 0.1, 1.0]]},
    "omega": {"m": 3, "weights": [1.0, 0.0, -0.5]},
}


def _sphere(count: int) -> dict:
    return {
        "dimension": 3,
        "kernel": {"type": "riesz", "alpha": 2.0},
        "geometry": {"type": "sphere", "radius": 1.0, "count": count, "center": [0.0, 0.0, 0.0]},
        "regularization": {"type": "nn-half"},
        "charge": [{"point": [2.0, 0.0, 0.0], "mass": 1.0}, {"point": [0.0, 0.0, 1.3], "mass": -0.5}],
    }


def _shells(counts: list, shrink=None) -> dict:
    return {
        "dimension": 3,
        "kernel": {"type": "riesz", "alpha": 2.0},
        "geometry": {"type": "shell_union", "q": 2.0, "counts": counts, "shrink": shrink},
        "regularization": {"type": "fixed", "length": 0.05},
        "charge": [{"point": [0.3, 0.0, 0.0], "mass": 1.0}],
    }


# one valid document per command; "verify" also mutates the fixture it reads
BASES = {
    "balayage": {"config": {**THREE_NODES, "support": [0, 1], "h": 1.0, "omega_scale": 1.0, "tol": 1e-8}},
    "gauss": {"config": {"instance": _sphere(12), "omega_scale": 2.0}},
    "capacity": {"config": {**THREE_NODES, "support": "all"}},
    # with "family" dropped, the same config is a single check on the sphere
    "solvability": {"config": {"family": [_shells([8]), _shells([8, 8])], "scalings": [0.5, 1.0],
                               "instance": _sphere(10), "capacity_finite": True}},
    "converge-up": {"config": {**THREE_NODES, "chain": [[0], [0, 1], [0, 1, 2]]}},
    "converge-down": {"config": {"instance": _sphere(10), "stages": 3}},
    "thinness": {"config": {"instance": _shells([8, 8, 8], shrink=0.5)}},
    "verify": {
        "config": {"tol": 1e-8, "fixtures_dir": "<fixtures>"},
        "fixture": json.loads((FIXTURES / "negative_omega.json").read_text()),
    },
}

BAD_VALUES = [
    True, False, None, "abc", "2", "all", [], [[]], [1, [2]], {},
    math.nan, math.inf, -math.inf, 1e300, -1, 0, 2, 0.5, 2.5, 7, 99,
]


def _paths(doc, prefix=()):
    """Every key path into ``doc`` that names a value, nested ones included."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


# mutations that drop a key, or wrap its value in a list
_DROP, _WRAP = object(), object()


def _mutate(doc, path, value):
    *parent, last = path
    for key in parent:
        doc = doc[key]
    if value is _DROP and isinstance(doc, dict):
        del doc[last]
    elif value is _WRAP:
        doc[last] = [doc[last]]
    elif value is not _DROP:
        doc[last] = copy.deepcopy(value)  # a later mutation must not reach into the pool


@st.composite
def mutated(draw, command):
    doc = json.loads(json.dumps(BASES[command]))
    for _ in range(draw(st.integers(1, 2))):
        paths = sorted(_paths(doc), key=repr)
        if not paths:  # the first mutation dropped the whole config
            break
        path = draw(st.sampled_from(paths))
        pool = BAD_VALUES + [_DROP, _WRAP]
        if any(key in ("count", "counts") for key in path):
            pool = [v for v in pool if not (type(v) is int and v > MAX_COUNT)]
        _mutate(doc, path, draw(st.sampled_from(pool)))
    return doc


def _run(command: str, doc: dict, tmp: Path) -> tuple[int, str]:
    argv = [command, "--out", str(tmp / "out")]
    config = doc.get("config")
    if command == "verify":
        fixtures = tmp / "fixtures"
        fixtures.mkdir(exist_ok=True)
        (fixtures / "case.json").write_text(json.dumps(doc.get("fixture")))
        if isinstance(config, dict) and config.get("fixtures_dir") == "<fixtures>":
            config["fixtures_dir"] = str(fixtures)
    path = tmp / "config.json"
    path.write_text(json.dumps({"schema": "finpot-config/1", **config} if isinstance(config, dict) else config))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv + ["--config", str(path)])
    return code, err.getvalue()


@pytest.mark.parametrize("command", sorted(BASES))
def test_unmutated_base_config_succeeds(command, tmp_path):
    code, err = _run(command, json.loads(json.dumps(BASES[command])), tmp_path)
    assert code == 0, err


@pytest.mark.parametrize("command", sorted(BASES))
@given(data=st.data())
@settings(max_examples=30, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_mutated_config_ends_in_a_documented_exit_code(command, tmp_path, data):
    doc = data.draw(mutated(command))
    code, err = _run(command, doc, tmp_path)
    assert code in (0, 2, 3, 4), err
    assert "Traceback" not in err


def test_an_overflowing_charge_exits_3_without_a_warning(tmp_path):
    # the gauss base with a 1e300 atom: the sweep's residuals overflow to inf,
    # which fails the solver's tol gate, and forming them warns of nothing
    doc = json.loads(json.dumps(BASES["gauss"]))
    doc["config"]["instance"]["charge"][0]["mass"] = 1e300
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, err = _run("gauss", doc, tmp_path)
    assert code == 3, err
    assert "cone solver residuals inf exceed" in err
