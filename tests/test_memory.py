"""Working-memory bounds of assembly and of a solve, measured with tracemalloc.

The dense kernel matrix caps the problem size, so the transient arrays around
it are bounded in units of its own bytes: assembly may hold the distance
buffer next to the gram matrix, or the kernel next to its inverse Cholesky
factor, which becomes the inverse the kernel keeps; a solve may hold one
reduced matrix for its linear solves, or an inverse of its own.
"""

import dataclasses
import tracemalloc

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
def factored(monkeypatch):
    """Sizes of the free sets the QP engine inverts itself."""
    sizes = []
    inverse_cholesky = qp._inverse_cholesky
    monkeypatch.setattr(
        qp, "_inverse_cholesky", lambda A: sizes.append(A.shape[0]) or inverse_cholesky(A)
    )
    return sizes


def test_multi_step_gauss_solve_peaks_within_one_and_a_half_matrices(factored):
    # every step runs on the kernel's own inverse, so the solve inverts nothing
    inst = assemble(MIXED)
    res, peak = peak_bytes(lambda: solve_gauss(inst.kernel, inst.omega, inst.support))
    assert res.kkt.iterations > 2 and not factored
    assert peak <= 1.5 * 8 * M * M


def test_multi_step_gathered_gauss_solve_peaks_within_one_and_a_half_matrices(factored):
    # 450 nodes, every fourth left out: a gathered copy of Q; the kernel's
    # inverse serves the first two steps, and only the third, on 401 indices,
    # leaves it and builds an inverse of its own (6 steps)
    inst = assemble(MIXED)
    support = SupportSet(i for i in range(M) if i % 4)
    res, peak = peak_bytes(lambda: solve_gauss(inst.kernel, inst.omega, support))
    assert res.kkt.iterations > 2 and factored == [401]
    assert peak <= 1.5 * 8 * M * M


def test_multi_step_gauss_solve_on_a_small_support_peaks_within_one_and_a_half_matrices(factored):
    # 540 of 902 indices, under 2/3 of the universe, so the kernel's inverse
    # serves no step: an LU solve, then an inverse of a free set of at least
    # _FACTOR_MIN indices (6 steps, inverse at k = 504)
    m = 900
    inst = assemble(dataclasses.replace(MIXED, geometry=Sphere(1.0, m)))
    support = SupportSet(i for i in range(m) if i % 5 < 3)
    res, peak = peak_bytes(lambda: solve_gauss(inst.kernel, inst.omega, support))
    assert res.kkt.iterations > 2 and max(factored) >= qp._FACTOR_MIN
    assert peak <= 1.5 * 8 * m * m
