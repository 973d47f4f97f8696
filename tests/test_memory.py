"""Working-memory bounds of assembly and of a solve, measured with tracemalloc.

The dense kernel matrix caps the problem size, so the transient arrays around
it are bounded in units of its own bytes: assembly may hold the distance
buffer next to the gram matrix, or the kernel next to its Cholesky factor,
which becomes the inverse the kernel keeps; a solve may hold one reduced
matrix for its linear solves, factored in place, beside the factor of
``G_DD`` that its large Schur steps keep from step to step (about ``|D|^2 /
2`` floats; they keep no rows of G, and gather ``_BLOCK`` at a time).  A
problem on a gathered support of at least ``_FACTOR_MIN`` indices holds no
copy of its matrix at all: its steps gather only the blocks they solve
with.  The spy counts the large systems a solve factors afresh by Cholesky
(``qp._spd_solve`` on at least ``_FACTOR_MIN`` unknowns), not the factors
its steps border.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from finpot import qp
from finpot.core import SupportSet
from finpot.gauss import solve_gauss
from finpot.instances import ChargeAtom, InstanceSpec, RieszKernel, Sphere, assemble

M = 600
SPEC = InstanceSpec(3, RieszKernel(2.0), Sphere(1.0, M), charge=(ChargeAtom((2.0, 0.0, 0.0), 1.0),))
# a mixed charge: the Gauss solve takes several steps
MIXED = InstanceSpec(
    3, RieszKernel(2.0), Sphere(1.0, M),
    charge=(ChargeAtom((2.0, 0.0, 0.0), 1.0), ChargeAtom((0.0, 0.0, 1.3), -0.5)),
)


def peak_bytes(fn):
    """Peak traced allocation of ``fn()`` above what was live when it started."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def instance():
    return assemble(SPEC)


def test_assemble_peaks_within_two_and_a_half_matrices():
    inst, peak = peak_bytes(lambda: assemble(SPEC))
    assert peak <= 2.5 * inst.kernel.entries.nbytes


def test_whole_support_gauss_solve_peaks_within_one_and_a_half_matrices(instance):
    res, peak = peak_bytes(lambda: solve_gauss(instance.kernel, instance.omega, instance.support))
    assert res.measure.mass == pytest.approx(1.0)
    assert peak <= 1.5 * 8 * M * M


@pytest.fixture
def solved(monkeypatch):
    """Sizes of the systems of at least ``_FACTOR_MIN`` unknowns the QP engine solves afresh."""
    sizes = []
    spd_solve = qp._spd_solve

    def spy(A, B):
        if A.shape[0] >= qp._FACTOR_MIN:
            sizes.append(A.shape[0])
        return spd_solve(A, B)

    monkeypatch.setattr(qp, "_spd_solve", spy)
    return sizes


def test_multi_step_gauss_solve_peaks_within_one_and_a_half_matrices(solved):
    # every step runs on the kernel's own inverse, so the solve factors no Q_FF
    inst = assemble(MIXED)
    res, peak = peak_bytes(lambda: solve_gauss(inst.kernel, inst.omega, inst.support))
    assert res.kkt.iterations > 2 and not solved
    assert peak <= 1.5 * 8 * M * M


def test_multi_step_gathered_gauss_solve_peaks_within_one_and_a_half_matrices(solved):
    # 450 nodes, every fourth left out: no gathered copy of Q, and the
    # kernel's inverse serves every step of at least _FACTOR_MIN indices,
    # bordering its factor of G_DD as D grows (6 steps)
    inst = assemble(MIXED)
    support = SupportSet(i for i in range(M) if i % 4)
    res, peak = peak_bytes(lambda: solve_gauss(inst.kernel, inst.omega, support))
    assert res.kkt.iterations > 2 and not solved
    assert peak <= 1.5 * 8 * M * M


def test_multi_step_gauss_solve_on_a_small_support_peaks_within_one_and_a_half_matrices(solved):
    # every other node, 450 of 902 indices: the rest of the universe
    # outweighs the free set, so a fresh solve costs fewer flops than a Schur
    # step on the kernel's inverse; each step is one, factored in its gathered
    # copy (6 steps, three of at least _FACTOR_MIN indices: 450, 420, 401)
    m = 900
    inst = assemble(dataclasses.replace(MIXED, geometry=Sphere(1.0, m)))
    support = SupportSet(range(0, m, 2))
    res, peak = peak_bytes(lambda: solve_gauss(inst.kernel, inst.omega, support))
    assert res.kkt.iterations > 2 and max(solved) >= qp._FACTOR_MIN
    assert peak <= 1.5 * 8 * m * m


def test_a_problem_on_a_large_gathered_support_holds_no_copy_of_its_matrix(instance):
    # a cap of 450 of the 600 nodes: a gathered copy of Q would take 8 k^2
    # bytes; Q is still the kernel's principal submatrix, formed on access
    kernel = instance.kernel
    support = SupportSet(i for i in range(M) if i % 4)
    k = len(support)
    assert k >= qp._FACTOR_MIN
    field = (kernel.entries @ instance.omega.weights)[support.as_array()]
    p, peak = peak_bytes(lambda: qp.ConeQpProblem.on_kernel(kernel, support, field))
    assert peak < 8 * k * k
    assert np.array_equal(p.Q, kernel.restrict(support)) and not p.Q.flags.writeable
    assert p.size == k
