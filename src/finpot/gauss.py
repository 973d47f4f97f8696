"""Weighted minimum-energy problems over probability measures on a node set.

``solve_gauss`` minimizes the weighted energy over probability measures on a
set A.  The minimizer is certified through its equilibrium conditions: the
field-shifted potential dominates the equilibrium constant at every node of
A and matches it on the support, and the constant obtained from the KKT
multiplier must agree with its integral form.  ``capacitary_measure``
specializes to a vanishing charge and renormalizes so the equilibrium
potential is 1 on the set; its total mass is the capacity.

On a finite universe every set has finite capacity, so the unsolvable
regimes of the continuum theory are probed through declared truncation
families (``capacity_finite=False``) standing in for sets of infinite
capacity; see :func:`solvability_check`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .balayage import BalayageResult, _certify, gate, pseudo_balayage
from .core import (
    SOLVER_TOL,
    KernelMatrix,
    Measure,
    Record,
    SupportSet,
    energy_distance,
    potential,
)
from .qp import KktReport, SimplexQpProblem, solve_simplex_qp

SOLVABLE = "solvable"
SOLVABLE_VIA_BALAYAGE = "solvable-via-balayage"
UNSOLVABLE = "unsolvable"


@dataclass(frozen=True)
class GaussResult(Record):
    """Probability minimizer, its weighted energy, and equilibrium constant."""

    measure: Measure
    value: float
    equilibrium_constant: float
    kkt: KktReport


@dataclass(frozen=True)
class CapacityResult(Record):
    """Capacitary measure of a set, its mass (the capacity), and potential range.

    ``kkt`` is the optimality certificate of the underlying unit-mass solve.
    """

    gamma: Measure
    capacity: float
    equilibrium_potential_range: tuple[float, float]
    kkt: KktReport


@dataclass(frozen=True)
class SolvabilityOutcome(Record):
    """Classification returned by :func:`solvability_check`.

    ``balayage`` is the sweep of the charge onto the set.  ``gauss`` is the
    probability minimizer, or None when the problem is unsolvable; the sweep
    is then the limit of the minimizing sequences, so the outcome carries
    nothing else.
    """

    status: str
    gauss: GaussResult | None
    balayage: BalayageResult
    lambda_equals_balayage: bool


def solve_gauss(
    kernel: KernelMatrix,
    omega: Measure,
    support: SupportSet,
    tol: float = SOLVER_TOL,
    w0: np.ndarray | None = None,
) -> GaussResult:
    """Minimize the weighted energy over probability measures on ``support``.

    The equilibrium constant is computed twice, from the simplex multiplier
    and from the integral of the weighted potential against the minimizer;
    a discrepancy beyond ``gate(tol)`` raises
    :class:`~finpot.balayage.CharacterizationViolated`, as do failures of the
    equilibrium conditions themselves.
    """
    return _solve_gauss(kernel, omega, support, tol, w0)[0]


def _solve_gauss(kernel, omega, support, tol, w0=None) -> tuple[GaussResult, np.ndarray]:
    """:func:`solve_gauss`, and the minimizer's potential ``K @ lambda`` that certified it."""
    idx = support.as_array()
    u = potential(kernel, omega)
    start = None if w0 is None else np.asarray(w0, dtype=float)[idx]
    problem = SimplexQpProblem.on_kernel(kernel, support, -u[idx], _charge=(omega.weights, u))
    w_sub, report = solve_simplex_qp(problem, tol=tol, w0=start)

    w = np.zeros(kernel.size)
    w[idx] = w_sub
    lam = Measure(w)
    pot = problem._potential(w_sub)  # potential(kernel, lam): the solve's last product
    # gauss_functional(kernel, omega, lam), bit for bit, from the one product K @ w
    value = float(w @ pot) - 2.0 * float(w @ u)
    weighted = pot - u
    c_integral = float(w @ weighted)
    _certify(
        "equilibrium", weighted, w, idx, c_integral, tol,
        constant_agreement=abs(float(report.multiplier) - c_integral), mass=abs(lam.mass - 1.0),
    )
    return GaussResult(measure=lam, value=value, equilibrium_constant=c_integral, kkt=report), pot


def capacitary_measure(
    kernel: KernelMatrix,
    support: SupportSet,
    tol: float = SOLVER_TOL,
) -> CapacityResult:
    """Capacitary measure and capacity of a node set.

    Solves the chargeless minimum-energy problem over probability measures on
    the set and rescales the minimizer by its energy, so the potential of the
    result is 1 on the support and at least 1 on the whole set; the total
    mass of the rescaled measure is the capacity.  Both potential properties
    are gated at ``gate(tol)`` like every other solve and raise
    :class:`~finpot.balayage.CharacterizationViolated` when they fail.
    The potential of the result is the solve's ``K @ lambda`` rescaled, so
    no product with ``K`` is spent on it.
    """
    res, pot_lam = _solve_gauss(kernel, Measure.zero(kernel.size), support, tol)
    scale = 1.0 / res.value
    gamma = res.measure.scaled(scale)
    idx = support.as_array()
    pot = scale * pot_lam
    _certify("capacitary", pot, gamma.weights, idx, 1.0, tol)
    rng = (float(pot[idx].min()), float(pot[idx].max()))
    return CapacityResult(
        gamma=gamma, capacity=gamma.mass, equilibrium_potential_range=rng, kkt=res.kkt
    )


def minimizer_is_sweep(
    kernel: KernelMatrix, gauss: GaussResult, bal: BalayageResult, tol: float
) -> bool:
    """Whether the Gauss minimizer is the sweep: unit swept mass, zero energy distance."""
    return abs(bal.mass - 1.0) <= tol and energy_distance(
        kernel, gauss.measure, bal.measure
    ) <= max(1e-7, gate(tol))


def solvability_check(
    kernel: KernelMatrix,
    omega: Measure,
    support: SupportSet,
    tol: float = SOLVER_TOL,
    capacity_finite: bool = True,
) -> SolvabilityOutcome:
    """Classify the weighted problem as solvable or (in truncation regime) not.

    With ``capacity_finite=True`` (every finite set) the problem is solvable
    outright.  With ``capacity_finite=False`` the caller declares the
    instance to be one stage of a growing truncation family standing in for
    a set of infinite capacity; existence then hinges on the swept mass:
    at least 1 means solvable (with the minimizer equal to the sweep when
    the mass is exactly 1).  Below 1 the problem is unsolvable: a set of
    infinite capacity carries probability measures of arbitrarily small
    energy far out, so the infimum over probability measures is the least
    weighted energy over positive measures of mass at most 1.  The sweep
    attains it, being the least over all positive measures and of mass
    below 1, and the minimizing sequences converge to it in energy while
    losing the deficient mass (Fuglede, Anal. Math. 2016, for a positive
    charge of finite energy).  The outcome is then the status and the sweep.
    """
    bal = pseudo_balayage(kernel, omega, support, tol=tol)
    if capacity_finite or bal.mass >= 1.0 - tol:
        res = solve_gauss(kernel, omega, support, tol=tol)
        matches = minimizer_is_sweep(kernel, res, bal, tol)
        status = SOLVABLE if capacity_finite else SOLVABLE_VIA_BALAYAGE
        return SolvabilityOutcome(
            status=status,
            gauss=res,
            balayage=bal,
            lambda_equals_balayage=matches,
        )
    return SolvabilityOutcome(
        status=UNSOLVABLE,
        gauss=None,
        balayage=bal,
        lambda_equals_balayage=False,
    )
