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
from typing import Sequence

import numpy as np

from .balayage import BalayageResult, CharacterizationViolated, _certify, _gap, pseudo_balayage
from .core import (
    SOLVER_TOL,
    KernelMatrix,
    Measure,
    NotNested,
    SupportSet,
    energy_distance,
    potential,
)
from .qp import KktReport, SimplexQpProblem, solve_simplex_qp

SOLVABLE = "solvable"
SOLVABLE_VIA_BALAYAGE = "solvable-via-balayage"
UNSOLVABLE = "unsolvable"


@dataclass(frozen=True)
class GaussResult:
    """Probability minimizer, its weighted energy, and equilibrium constant."""

    measure: Measure
    value: float
    equilibrium_constant: float
    kkt: KktReport

    def to_json(self) -> dict:
        return {
            "measure": self.measure.to_json(),
            "value": self.value,
            "equilibrium_constant": self.equilibrium_constant,
            "kkt": self.kkt.to_json(),
        }


@dataclass(frozen=True)
class CapacityResult:
    """Capacitary measure of a set, its mass (the capacity), and potential range.

    ``kkt`` is the optimality certificate of the underlying unit-mass solve.
    """

    gamma: Measure
    capacity: float
    equilibrium_potential_range: tuple[float, float]
    kkt: KktReport

    def to_json(self) -> dict:
        return {
            "gamma": self.gamma.to_json(),
            "capacity": self.capacity,
            "equilibrium_potential_range": list(self.equilibrium_potential_range),
            "kkt": self.kkt.to_json(),
        }


@dataclass(frozen=True)
class ExtremalDiagnostic:
    """Trace of minimizers along a nested chain of sets.

    ``sequence_values`` holds the per-stage optimal values (nonincreasing for
    growing sets), ``constants`` the per-stage equilibrium constants,
    ``limit_measure`` the final-stage minimizer (the strong limit on a finite
    universe) and ``C_xi`` its weighted-potential integral, which the
    constants approach.
    """

    sequence_values: tuple
    constants: tuple
    limit_measure: Measure
    limit_mass: float
    C_xi: float

    def csv_rows(self) -> list[dict]:
        return [
            {"stage": j, "value": v, "constant": c, "mass": self.limit_mass if j == len(self.constants) - 1 else float("nan")}
            for j, (v, c) in enumerate(zip(self.sequence_values, self.constants))
        ]

    def to_json(self) -> dict:
        return {
            "sequence_values": list(self.sequence_values),
            "constants": list(self.constants),
            "limit_measure": self.limit_measure.to_json(),
            "limit_mass": self.limit_mass,
            "C_xi": self.C_xi,
        }


@dataclass(frozen=True)
class SolvabilityOutcome:
    """Classification returned by :func:`solvability_check`."""

    status: str
    gauss: GaussResult | None
    balayage: BalayageResult
    diagnostic: ExtremalDiagnostic | None
    lambda_equals_balayage: bool

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "gauss": None if self.gauss is None else self.gauss.to_json(),
            "balayage": self.balayage.to_json(),
            "diagnostic": None if self.diagnostic is None else self.diagnostic.to_json(),
            "lambda_equals_balayage": self.lambda_equals_balayage,
        }


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
    a discrepancy beyond ``10 * tol`` raises
    :class:`~finpot.balayage.CharacterizationViolated`, as do failures of the
    equilibrium conditions themselves.
    """
    idx = support.as_array()
    u = potential(kernel, omega)
    start = None if w0 is None else np.asarray(w0, dtype=float)[idx]
    problem = SimplexQpProblem.on_kernel(kernel, support, -u[idx])
    w_sub, report = solve_simplex_qp(problem, tol=tol, w0=start)

    w = np.zeros(kernel.size)
    w[idx] = w_sub
    lam = Measure(w, omega.node_set_id)
    pot = potential(kernel, lam)
    # gauss_functional(kernel, omega, lam), bit for bit, from the one product K @ w
    value = float(w @ pot) - 2.0 * float(w @ u)
    weighted = pot - u
    c_integral = float(w @ weighted)
    _certify(
        "equilibrium", weighted, w, idx, c_integral, tol,
        constant_agreement=abs(float(report.multiplier) - c_integral), mass=abs(lam.mass - 1.0),
    )
    return GaussResult(measure=lam, value=value, equilibrium_constant=c_integral, kkt=report)


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
    are gated at ``10 * tol`` like every other solve and raise
    :class:`~finpot.balayage.CharacterizationViolated` when they fail.
    """
    res = solve_gauss(kernel, Measure.zero(kernel.size), support, tol=tol)
    min_energy = res.value
    gamma = res.measure.scaled(1.0 / min_energy)
    idx = support.as_array()
    pot = potential(kernel, gamma)
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
    ) <= max(1e-7, 10.0 * tol)


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
    the mass is exactly 1), below 1 the minimizing sequences lose mass and
    the limiting measure is the sweep itself, of deficient mass.
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
            diagnostic=None,
            lambda_equals_balayage=matches,
        )
    c_xi = float(bal.measure.weights @ _gap(kernel, bal.measure, potential(kernel, omega)))
    diagnostic = ExtremalDiagnostic(
        sequence_values=(bal.value,),
        constants=(c_xi,),
        limit_measure=bal.measure,
        limit_mass=bal.mass,
        C_xi=c_xi,
    )
    return SolvabilityOutcome(
        status=UNSOLVABLE,
        gauss=None,
        balayage=bal,
        diagnostic=diagnostic,
        lambda_equals_balayage=False,
    )


def _require_strict_chain(chain: Sequence[SupportSet], increasing: bool = True) -> None:
    if not chain:
        raise ValueError("chain must be nonempty")
    for a, b in zip(chain, chain[1:]):
        if not (a.as_set() < b.as_set() if increasing else b.as_set() < a.as_set()):
            raise NotNested(f"chain must be strictly {'increasing' if increasing else 'decreasing'}")


def extremal_diagnostic(
    kernel: KernelMatrix,
    omega: Measure,
    nested: Sequence[SupportSet],
    tol: float = SOLVER_TOL,
) -> ExtremalDiagnostic:
    """Solve the weighted problem along an increasing chain ending at A.

    Stages are solved sequentially, warm-started from the previous stage.
    The optimal values must not increase along the chain and the equilibrium
    constants approach the weighted-potential integral of the final
    minimizer; both facts are certified.
    """
    _require_strict_chain(nested)
    values: list[float] = []
    constants: list[float] = []
    prev: np.ndarray | None = None
    res = None
    for stage in nested:
        res = solve_gauss(kernel, omega, stage, tol=tol, w0=prev)
        values.append(res.value)
        constants.append(res.equilibrium_constant)
        prev = res.measure.weights
    assert res is not None
    gate = 10.0 * tol
    drift = max(
        (values[j + 1] - values[j] for j in range(len(values) - 1)), default=0.0
    )
    if drift > gate:
        raise CharacterizationViolated(
            f"stage values increased by {drift} along a growing chain", {"value_drift": drift}
        )
    c_xi = constants[-1]
    return ExtremalDiagnostic(
        sequence_values=tuple(values),
        constants=tuple(constants),
        limit_measure=res.measure,
        limit_mass=res.measure.mass,
        C_xi=c_xi,
    )
