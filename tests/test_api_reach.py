"""Every public name of the library is used by the library itself or by a script.

A function that only tests call is not part of what finpot computes.  The
scan is syntactic: a definition is reached when its name occurs as a name,
an attribute or an import in some module of ``src/finpot/`` (the re-exports
of ``__init__`` do not count) or in ``scripts/``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "finpot"
NOT_SCANNED = {"__init__.py", "__main__.py", "fixtures.py"}
# the reference that the tests compare every solve's value against, bit for bit
ALLOWED = {"gauss_functional"}


def _public_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name
            if isinstance(node, ast.ClassDef):
                yield from (
                    f"{node.name}.{m.name}" for m in node.body
                    if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")
                )


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]


def test_every_public_definition_is_reached_outside_the_tests():
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"] + list((ROOT / "scripts").glob("*.py"))
    trees = {p: ast.parse(p.read_text()) for p in sources}
    reached = {name for tree in trees.values() for name in _references(tree)}
    unreached = [
        f"{p.stem}.{name}"
        for p, tree in sorted(trees.items())
        if p.parent == PACKAGE and p.name not in NOT_SCANNED
        for name in _public_definitions(tree)
        if name.rpartition(".")[2] not in reached | ALLOWED
    ]
    assert not unreached
