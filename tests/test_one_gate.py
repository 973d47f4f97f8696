"""Every certification passes or fails through one gate, and every factorization through one section.

The scan is syntactic, over ``src/finpot/``: ``CharacterizationViolated`` is
constructed in exactly one function, and a literal 10 times ``tol`` (the
gate) is written only in ``balayage.gate``, so no check restates the gate
with its own arithmetic.  Outside ``qp``, each QP solver is named only by
the module that certifies its answers, so no reported answer skips the gate.
Every ``np.linalg`` solve, factorization or inverse, and every LAPACK call,
is made in ``core``'s factorization section, save the exhaustive oracles of
``qp`` (the independent reference) and the eigenvector witness of a failed
certificate.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "finpot"


def _owners(predicate):
    """``module.function`` of the innermost function around each node matching ``predicate``."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        def visit(node, owner):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = f"{path.stem}.{node.name}"
            if predicate(node):
                found.append(owner)
            for child in ast.iter_child_nodes(node):
                visit(child, owner)

        visit(ast.parse(path.read_text()), f"{path.stem}.<module>")
    return found


def _constructs_violation(node):
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == "CharacterizationViolated"


def _is_ten(node):
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) in (int, float) and node.value == 10


def _is_tol(node):
    return isinstance(node, ast.Name) and node.id == "tol"


def _is_ten_times_tol(node):
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult) and (
        (_is_ten(node.left) and _is_tol(node.right)) or (_is_tol(node.left) and _is_ten(node.right))
    )


def test_characterization_violated_is_constructed_in_one_function():
    assert _owners(_constructs_violation) == ["balayage.require_within_gate"]


def test_ten_times_tol_is_written_only_in_gate():
    assert _owners(_is_ten_times_tol) == ["balayage.gate"]


def _name_of(node):
    """The name a node uses: a name, an attribute or an import."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name.rpartition(".")[2]
    return None


def test_each_qp_solver_is_named_only_where_its_answer_is_certified():
    for solver, certifier in (("solve_cone_qp", "balayage"), ("solve_simplex_qp", "gauss")):
        modules = {owner.partition(".")[0] for owner in _owners(lambda node: _name_of(node) == solver)}
        assert modules - {"qp", "__init__"} == {certifier}, solver


def _dotted(node):
    """``a.b.c`` for a chain of attributes on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def _factorizes(node):
    """A call of an ``np.linalg`` routine other than a norm (or its error), or an import of one by name."""
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").endswith("linalg") and any(a.name != "_umath_linalg" for a in node.names)
    if not isinstance(node, ast.Call):
        return False
    name = _dotted(node.func) or ""
    module, _, routine = name.rpartition(".")
    return module in ("np.linalg", "numpy.linalg") and routine not in ("norm", "LinAlgError")


def test_every_factorization_runs_in_the_factorization_section():
    owners = set(_owners(_factorizes))
    assert owners == {
        "core._spd_solve", "core._inverse_cholesky",  # the section
        "core._not_pd",  # the witness of a failed certificate: eigh
        "qp.brute_force_cone", "qp._bordered_simplex_solve",  # the oracles
    }
    lapack = set(_owners(lambda node: _name_of(node) in ("_LAPACK", "_lapack")))
    assert lapack <= {
        "core.<module>", "core._lapack", "core._spd_solve", "core._spd_inverse",
        "core._spd_inverse_factor", "core._lapack_agrees", "core._linalg_path",
    }
