"""The SPD factorization section of ``core``, on LAPACK and on numpy alone.

numpy's scipy-openblas wheels bring LAPACK's Cholesky routines, which
``core`` binds at import after a self-check; any other build runs numpy's
own routines.  The two paths must give the same certificates, oracle answers
and large solves to within 1e-12 relative, so each test here forces the
numpy path with ``monkeypatch`` and compares.
"""

import numpy as np
import pytest

from finpot import core
from finpot.balayage import pseudo_balayage
from finpot.core import SupportSet, check_energy_principle
from finpot.gauss import solve_gauss
from finpot.instances import Ball, ChargeAtom, InstanceSpec, LogKernel, RieszKernel, ShellUnion, Sphere, assemble
from finpot.qp import ConeQpProblem, SimplexQpProblem, brute_force_cone, brute_force_simplex
from test_qp import GEOMETRIC_SPECS, _cap, _support

LAPACK = core._LAPACK
needs_lapack = pytest.mark.skipif(LAPACK is None, reason="numpy's LAPACK is not scipy-openblas")
PATHS = [pytest.param("lapack", marks=needs_lapack), "numpy"]


def _use(monkeypatch, path: str) -> None:
    monkeypatch.setattr(core, "_LAPACK", LAPACK if path == "lapack" else None)


def _relative(a, ref) -> float:
    return float(np.max(np.abs(np.asarray(a) - ref)) / np.max(np.abs(ref)))


def test_lapack_path_is_active_on_scipy_openblas():
    # a broken binding falls back silently, so on the build that ships the
    # routines their absence is a failure
    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]["name"]
    except (TypeError, KeyError):  # numpy before 1.25 has no dict form
        pytest.skip("numpy does not report its LAPACK")
    if name != "scipy-openblas":
        pytest.skip(f"numpy's LAPACK is {name}")
    assert core._LAPACK is not None and core._linalg_path() == "lapack"
    assert core._lapack_agrees()


def _spd(k: int) -> np.ndarray:
    """A well-conditioned SPD matrix: eigenvalues in [1, about 5]."""
    B = np.random.default_rng(k).standard_normal((k, k + 3))
    return B @ B.T / k + np.eye(k)


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("k", [1, 5, core._CHOLESKY_MIN - 1, core._CHOLESKY_MIN, 200])
def test_primitives_solve_and_invert(monkeypatch, path, k):
    _use(monkeypatch, path)
    A = _spd(k)
    B = np.random.default_rng(0).standard_normal((k, 2))
    ref = np.linalg.solve(A, B)
    # two columns, one column, and a column-major copy as a column gather gives it
    assert _relative(core._spd_solve(np.array(A), B), ref) <= 1e-12
    assert _relative(core._spd_solve(np.array(A), B[:, 0]), ref[:, 0]) <= 1e-12
    assert _relative(core._spd_solve(np.asfortranarray(A), B), ref) <= 1e-12
    G = np.array(A)
    pivot = core._spd_inverse(G)
    assert np.array_equal(G, G.T) and _relative(G, np.linalg.inv(A)) <= 1e-12
    assert abs(pivot - np.min(np.diagonal(np.linalg.cholesky(A)))) <= 1e-13 * pivot
    # the inverse factor in place in a block of a wider matrix
    buffer = np.zeros((k, k + 3))
    buffer[:, 1:k + 1] = A
    R = core._spd_inverse_factor(buffer[:, 1:k + 1])
    assert np.shares_memory(R, buffer) and not np.triu(R, 1).any()
    assert _relative(R @ A @ R.T, np.eye(k)) <= 1e-12
    assert not buffer[:, 0].any() and not buffer[:, k + 1:].any()


@pytest.mark.parametrize("path", PATHS)
def test_primitives_reject_an_indefinite_matrix(monkeypatch, path):
    # positive diagonal, indefinite only through the first and last index
    _use(monkeypatch, path)
    k = 2 * core._CHOLESKY_MIN
    A = np.eye(k)
    A[0, -1] = A[-1, 0] = 2.0
    for primitive in (core._spd_inverse, core._spd_inverse_factor, lambda A: core._spd_solve(A, np.ones(k))):
        with pytest.raises(np.linalg.LinAlgError):
            primitive(np.array(A))


@needs_lapack
@pytest.mark.parametrize("spec", [
    InstanceSpec(3, RieszKernel(2.0), Sphere(1.0, 1000)),
    InstanceSpec(3, RieszKernel(2.9), Ball(1.0, 1000)),
    InstanceSpec(2, LogKernel(0.4), Ball(1.0, 400, (0.0, 0.0))),
    InstanceSpec(3, RieszKernel(2.0), ShellUnion(2.0, (90, 90, 90))),
], ids=["newton-sphere", "riesz-2.9-ball", "log-disc", "shell-union"])
def test_certificate_agrees_across_paths(monkeypatch, spec):
    # measured: at most 8e-14 relative, on the ball (condition number 4e4)
    K = assemble(spec).kernel.entries
    certificates = {}
    for path in ("lapack", "numpy"):
        _use(monkeypatch, path)
        certificates[path] = check_energy_principle(K)
    lapack, fallback = certificates["lapack"], certificates["numpy"]
    assert _relative(lapack.inverse, fallback.inverse) <= 1e-12
    # a row sum cancels, so it is compared on the scale of the absolute row sum
    scale = np.abs(fallback.inverse).sum(axis=1)
    assert np.all(np.abs(lapack.inverse_row_sums - fallback.inverse_row_sums) <= 1e-12 * scale)
    assert _relative(lapack.min_cholesky_pivot, fallback.min_cholesky_pivot) <= 1e-12
    assert _relative(lapack.eig_lower_bound, fallback.eig_lower_bound) <= 1e-12


@needs_lapack
@pytest.mark.parametrize("name", sorted(GEOMETRIC_SPECS))
def test_oracle_answers_agree_across_paths(monkeypatch, name):
    # gathered supports of at most 12 nodes, each solve against the oracle
    # (with the tolerances of test_qp) on either path, and the paths together
    weights = {}
    for path in ("lapack", "numpy"):
        _use(monkeypatch, path)
        inst = assemble(GEOMETRIC_SPECS[name])
        kernel = inst.kernel
        potential = kernel.entries @ inst.omega.weights
        rng = np.random.default_rng(11)
        weights[path] = []
        for _ in range(6):
            support = _support("gathered", inst.n_nodes, rng)
            idx = support.as_array()
            Q = kernel.restrict(support)
            for p, solve, oracle in (
                (ConeQpProblem(Q, potential[idx]), pseudo_balayage, brute_force_cone),
                (SimplexQpProblem(Q, -potential[idx]), solve_gauss, brute_force_simplex),
            ):
                w = solve(kernel, inst.omega, support).measure.weights[idx]
                ref = oracle(p)
                assert np.max(np.abs(w - ref)) <= 1e-8
                assert abs(p.objective(w) - p.objective(ref)) <= 1e-10
                weights[path].append(w)
    for w, ref in zip(weights["lapack"], weights["numpy"]):
        assert np.max(np.abs(w - ref)) <= 1e-12 * max(1.0, float(np.max(np.abs(ref))))


@needs_lapack
def test_a_large_cap_solve_agrees_across_paths(monkeypatch):
    # a 70% cap of a 1000-node sphere under a mixed charge: 700 free indices,
    # whose steps border the kernel's factor or solve Q_FF afresh
    charge = (ChargeAtom((2.0, 0.0, 0.0), 1.0), ChargeAtom((0.0, 0.0, 1.3), -0.5))
    spec = InstanceSpec(3, RieszKernel(2.0), Sphere(1.0, 1000), charge=charge)
    results = {}
    for path in ("lapack", "numpy"):
        _use(monkeypatch, path)
        inst = assemble(spec)
        support = SupportSet(_cap(inst, 0.7))
        results[path] = [solve(inst.kernel, inst.omega, support) for solve in (pseudo_balayage, solve_gauss)]
    for lapack, fallback in zip(results["lapack"], results["numpy"]):
        assert lapack.kkt.iterations == fallback.kkt.iterations > 1
        w, ref = lapack.measure.weights, fallback.measure.weights
        assert np.array_equal(w > 0.0, ref > 0.0)
        assert np.max(np.abs(w - ref)) <= 1e-12 * float(np.max(np.abs(ref)))
