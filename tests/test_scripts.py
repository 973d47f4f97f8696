"""The study scripts import the public API; loading each one catches a removed name."""

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
