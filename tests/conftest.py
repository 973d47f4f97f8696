import dataclasses

import numpy as np
import pytest

import finpot.balayage
import finpot.gauss
from finpot.core import KernelMatrix, Measure
from finpot.fixtures import mixed_instance, random_spd_kernel


@pytest.fixture
def small_kernel() -> KernelMatrix:
    return random_spd_kernel(0, 6)


@pytest.fixture
def mixed_problem():
    """Kernel, mixed-sign charge, and target set with a nonzero sweep."""
    return mixed_instance(3, 12)


def double_loop_potential(entries: np.ndarray, weights: np.ndarray) -> np.ndarray:
    m = entries.shape[0]
    out = np.zeros(m)
    for i in range(m):
        for j in range(m):
            out[i] += entries[i, j] * weights[j]
    return out


def double_loop_energy(entries: np.ndarray, mu: np.ndarray, nu: np.ndarray) -> float:
    total = 0.0
    for i in range(entries.shape[0]):
        for j in range(entries.shape[0]):
            total += mu[i] * entries[i, j] * nu[j]
    return total


def nudged(w: np.ndarray) -> np.ndarray:
    """Move 1% of the mass of ``w`` onto its first entry.

    The result stays feasible for the cone and the simplex problem but
    breaks the equality of the potential gap on the support, so every
    certification must reject it.
    """
    out = 0.99 * np.asarray(w, dtype=float)
    out[0] += 0.01
    return out


def _nudge_qp_solver(monkeypatch, module, name: str) -> None:
    real = getattr(module, name)

    def solve(problem, **kwargs):
        w, report = real(problem, **kwargs)
        return nudged(w), report

    monkeypatch.setattr(module, name, solve)


def break_cone_solver(monkeypatch) -> None:
    """Make the sweep's cone solves return a nudged minimizer."""
    _nudge_qp_solver(monkeypatch, finpot.balayage, "solve_cone_qp")


def break_simplex_solver(monkeypatch) -> None:
    """Make the Gauss problem's simplex solves return a nudged minimizer."""
    _nudge_qp_solver(monkeypatch, finpot.gauss, "solve_simplex_qp")


def break_gauss_solution(monkeypatch) -> None:
    """Make the Gauss solve of ``capacitary_measure`` return a nudged measure, with its potential."""
    real = finpot.gauss._solve_gauss

    def solve(kernel, *args, **kwargs):
        res, _ = real(kernel, *args, **kwargs)
        w = res.measure.weights.copy()
        support = w > 0.0
        w[support] = nudged(w[support])
        return dataclasses.replace(res, measure=Measure(w)), kernel.entries @ w

    monkeypatch.setattr(finpot.gauss, "_solve_gauss", solve)
