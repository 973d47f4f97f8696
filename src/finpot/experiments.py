"""Scripted verifications: sweeps along monotone set families and solvability scans.

Every experiment is a pure function of its configuration, so identical
configs produce identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .balayage import pseudo_balayage, require_within_gate
from .core import (
    SOLVER_TOL,
    KernelMatrix,
    Measure,
    NotNested,
    Record,
    SupportSet,
    energy_distance,
)
from .gauss import solve_gauss
from .instances import Instance


@dataclass(frozen=True)
class ConvergenceReport(Record):
    """Per-stage record of pseudo-balayage along a monotone chain of sets.

    ``stage_norms`` are energy distances to the last stage, which is the
    sweep onto the final set, ``stage_values`` the attained weighted
    energies, and ``fund_slack`` the per-pair slack of the strong-Cauchy
    inequality ``dist**2 <= 2 * value(smaller class) - 2 * value(larger
    class)``, oriented by inclusion of the feasible classes (so it is
    nonnegative in both directions).  ``final_distance`` is the last stage's
    distance to itself, 0 by construction; the field only keeps the report's
    format.
    """

    direction: str
    stage_sizes: tuple
    stage_values: tuple
    stage_norms: tuple
    fund_slack: tuple
    final_distance: float

    def csv_rows(self) -> list[dict]:
        rows = []
        for j in range(len(self.stage_sizes)):
            rows.append(
                {
                    "stage": j,
                    "size": self.stage_sizes[j],
                    "value": self.stage_values[j],
                    "distance_to_final": self.stage_norms[j],
                    "fund_slack": self.fund_slack[j] if j < len(self.fund_slack) else float("nan"),
                }
            )
        return rows


def _require_strict_chain(chain: Sequence[SupportSet], increasing: bool = True) -> None:
    if not chain:
        raise ValueError("chain must be nonempty")
    for a, b in zip(chain, chain[1:]):
        if not (a.as_set() < b.as_set() if increasing else b.as_set() < a.as_set()):
            raise NotNested(f"chain must be strictly {'increasing' if increasing else 'decreasing'}")


def _solve_chain(kernel, omega, chain, tol, warm):
    results = []
    prev = None
    for stage in chain:
        res = pseudo_balayage(kernel, omega, stage, tol=tol, w0=prev if warm else None)
        results.append(res)
        prev = res.measure.weights
    return results


def _convergence_report(kernel, chain, results, direction, tol):
    """Certify a solved chain; its last stage is the sweep onto the final set, certified by its own solve."""
    final = results[-1].measure
    norms = tuple(energy_distance(kernel, r.measure, final) for r in results)
    values = tuple(r.value for r in results)
    slack, rises = [], []
    for j in range(len(results) - 1):
        d2 = energy_distance(kernel, results[j].measure, results[j + 1].measure) ** 2
        # the pair's values on its smaller and on its larger set
        small, large = (values[j], values[j + 1]) if direction == "up" else (values[j + 1], values[j])
        slack.append(float(2.0 * small - 2.0 * large - d2))
        rises.append(large - small)
    require_within_gate(
        f"monotone-{direction} chain",
        {
            "fund_slack": max(0.0, -min(slack, default=0.0)),
            "value_drift": max(0.0, max(rises, default=0.0)),
        },
        tol,
    )
    return ConvergenceReport(
        direction=direction,
        stage_sizes=tuple(len(s) for s in chain),
        stage_values=values,
        stage_norms=norms,
        fund_slack=tuple(slack),
        final_distance=float(norms[-1]),
    )


def monotone_up(
    kernel: KernelMatrix,
    omega: Measure,
    chain: Sequence[SupportSet],
    tol: float = SOLVER_TOL,
) -> ConvergenceReport:
    """Sweep along a strictly increasing chain ending at the target set.

    Each stage is warm-started from the one below, so the last stage is the
    sweep onto the final set, certified by :func:`pseudo_balayage` like any
    other solve, and serves as the reference.  Certifies that the values do
    not increase and that every adjacent pair satisfies the strong-Cauchy
    inequality.
    """
    _require_strict_chain(chain)
    results = _solve_chain(kernel, omega, chain, tol, warm=True)
    return _convergence_report(kernel, chain, results, "up", tol)


def monotone_down(
    kernel: KernelMatrix,
    omega: Measure,
    chain: Sequence[SupportSet],
    tol: float = SOLVER_TOL,
) -> ConvergenceReport:
    """Sweep along a strictly decreasing chain; the intersection is its last set.

    Every stage is solved cold, and the last one, the sweep onto the final
    set, serves as the reference.
    """
    _require_strict_chain(chain, increasing=False)
    results = _solve_chain(kernel, omega, chain, tol, warm=False)
    return _convergence_report(kernel, chain, results, "down", tol)


# ---------------------------------------------------------------------------
# solvability scan over growing truncation families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanCell(Record):
    scaling: float
    truncation: int
    node_count: int
    balayage_mass: float
    gauss_value: float
    equilibrium_constant: float
    outer_mass_fraction: float
    interior_mass_fraction: float


@dataclass(frozen=True)
class ScanRow(Record):
    scaling: float
    omega_plus_mass: float
    cells: tuple
    verdict: str


@dataclass(frozen=True)
class ScanTable(Record):
    """Outcome of a solvability scan over (scaling x truncation) cells.

    A row "stabilizes" when the minimizer keeps at least ``threshold`` of its
    mass off the outermost ``outer_fraction`` of nodes at the final two
    truncations; it "leaks" when at least ``threshold`` of the mass sits on
    that outer rim at both, the signature of mass escaping along the family.
    The threshold is an engineering choice, documented here, not a theorem.
    """

    rows: tuple
    threshold: float
    outer_fraction: float

    def csv_rows(self) -> list[dict]:
        out = []
        for row in self.rows:
            for c in row.cells:
                rec = c.to_json()
                rec["verdict"] = row.verdict
                out.append(rec)
        return out


STABILIZES = "stabilizes"
LEAKS = "leaks"
INCONCLUSIVE = "inconclusive"


def _outer_rim(instance: Instance, outer_fraction: float) -> np.ndarray:
    """Indices of the outermost ``outer_fraction`` of the instance's nodes (at least one)."""
    radii = np.linalg.norm(instance.node_points(), axis=1)
    return np.argsort(radii)[-max(1, int(np.ceil(outer_fraction * radii.size))):]


def _scan_cell(
    instance: Instance, scaling: float, truncation: int, tol: float, outer_idx: np.ndarray, warm: tuple
) -> tuple[ScanCell, tuple]:
    """One cell, and its balayage and Gauss weights, which seed the next scaling's cell."""
    omega = instance.omega.scaled(scaling)
    bal = pseudo_balayage(instance.kernel, omega, instance.support, tol=tol, w0=warm[0])
    res = solve_gauss(instance.kernel, omega, instance.support, tol=tol, w0=warm[1])
    outer = float(res.measure.weights[outer_idx].sum())
    cell = ScanCell(
        scaling=scaling,
        truncation=truncation,
        node_count=instance.n_nodes,
        balayage_mass=bal.mass,
        gauss_value=res.value,
        equilibrium_constant=res.equilibrium_constant,
        outer_mass_fraction=outer,
        interior_mass_fraction=1.0 - outer,
    )
    return cell, (bal.measure.weights, res.measure.weights)


def _truncation_start(below: Instance, inst: Instance, answers: tuple) -> tuple:
    """A start for the cell of ``inst`` from ``answers``, the weights ``below`` got at the same scaling.

    When ``inst``'s node points begin with those of ``below``, the start is
    the sweep with the new nodes not free and the minimizer with every new
    node free; else it is ``(None, None)``, a cold start.
    """
    n = below.n_nodes
    if not np.array_equal(inst.node_points()[:n], below.node_points()):
        return None, None
    bal, lam = np.zeros(inst.kernel.size), np.ones(inst.kernel.size)
    bal[:n], lam[:n] = answers[0][:n], answers[1][:n]
    return bal, lam


def solvability_scan(
    family: Sequence[Instance],
    scalings: Sequence[float],
    tol: float = SOLVER_TOL,
    threshold: float = 0.5,
    outer_fraction: float = 0.2,
) -> ScanTable:
    """Tabulate swept mass and minimizer localization over a truncation family.

    ``family`` lists the truncation stages (growing node sets standing in for
    one set of infinite capacity), all sharing the charge configuration; each
    ``scaling`` multiplies the charge.  Rows whose swept mass reaches 1 keep
    the minimizer in the interior; rows with deficient swept mass push the
    surplus onto the outermost rim, which moves outward with the family.
    Cells are solved one after another, scaling-major: every truncation of
    the first scaling, then every truncation of the next.  Each truncation's
    cell is warm-started from the balayage and Gauss weights that truncation
    got at the previous scaling when the two scalings have the same sign:
    the sweep is positively homogeneous in the charge, so its support, and
    mostly the minimizer's, carries over.  At the first scaling, and after
    a zero scaling or a sign change, a truncation whose node points begin
    with those of the truncation below starts from that truncation's
    answers at the same scaling (:func:`_truncation_start`), as shell
    unions do; the first truncation, and any other, is solved cold.  A
    start moves only the path to the answer: below ``qp._FACTOR_MIN``
    indices a step's arithmetic does not depend on that path.
    """
    if not family:
        raise ValueError("family must be nonempty")
    rims = [_outer_rim(inst, outer_fraction) for inst in family]
    cells = []
    prev = 0.0
    for s in map(float, scalings):
        cold = not prev * s > 0.0
        if cold:
            warm = [(None, None)] * len(family)
        for t, inst in enumerate(family):
            if cold and t > 0:
                warm[t] = _truncation_start(family[t - 1], inst, warm[t - 1])
            cell, warm[t] = _scan_cell(inst, s, t, tol, rims[t], warm[t])
            cells.append(cell)
        prev = s
    rows = []
    per_row = len(family)
    for i, s in enumerate(scalings):
        row_cells = tuple(cells[i * per_row : (i + 1) * per_row])
        last = row_cells[-2:] if len(row_cells) >= 2 else row_cells
        if all(c.interior_mass_fraction >= threshold for c in last):
            verdict = STABILIZES
        elif all(c.outer_mass_fraction >= threshold for c in last):
            verdict = LEAKS
        else:
            verdict = INCONCLUSIVE
        omega_plus = family[-1].omega.scaled(float(s)).positive_part.mass
        rows.append(
            ScanRow(scaling=float(s), omega_plus_mass=omega_plus, cells=row_cells, verdict=verdict)
        )
    return ScanTable(rows=tuple(rows), threshold=threshold, outer_fraction=outer_fraction)
