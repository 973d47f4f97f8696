"""Pseudo-balayage of a signed measure onto a node subset.

The pseudo-balayage of a charge ``omega`` onto a set ``A`` is the unique
positive measure supported on ``A`` minimizing the weighted energy
``energy(mu) - 2 * mutual_energy(mu, omega)``.  It is computed as a cone QP
on the rows/columns of ``A`` and certified post hoc through its equivalent
variational characterizations:

* the potential of the result dominates the potential of ``omega`` at every
  node of ``A`` and matches it on the support of the result;
* the integral of the potential gap against the result vanishes.

Only the potential of ``omega`` restricted to ``A`` enters the problem, so
``omega`` may freely charge nodes outside ``A``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SOLVER_TOL, KernelMatrix, Measure, SupportSet, potential
from .qp import ConeQpProblem, KktReport, SimplexQpProblem, solve_cone_qp, solve_simplex_qp


class CharacterizationViolated(RuntimeError):
    """Post-hoc residuals exceeded their gate; carries the residual map."""

    def __init__(self, message: str, residuals: dict | None = None):
        super().__init__(message)
        self.residuals = dict(residuals or {})


@dataclass(frozen=True)
class BalayageResult:
    """Solution bundle of one pseudo-balayage solve.

    ``measure`` is positive and vanishes off the target set, ``value`` is the
    attained weighted energy (always in (-inf, 0], since the zero measure is
    feasible), ``mass`` its total mass, and ``mass_bound`` the a priori bound
    ``h * omega_plus_mass`` when a maximum-principle constant h was supplied.
    """

    measure: Measure
    value: float
    kkt: KktReport
    mass: float
    mass_bound: float | None = None

    def to_json(self) -> dict:
        return {
            "measure": self.measure.to_json(),
            "value": self.value,
            "mass": self.mass,
            "mass_bound": self.mass_bound,
            "kkt": self.kkt.to_json(),
        }


@dataclass(frozen=True)
class Ii1Check:
    """Residuals of the two variational properties tested by :func:`verify_ii1`."""

    ok: bool
    atom_gap_min: float
    self_integral_abs: float


@dataclass(frozen=True)
class MassBoundReport:
    """Outcome of :func:`mass_bound_check`; ``passed`` is None when skipped."""

    mass: float
    bound: float | None
    passed: bool | None
    reason: str

    def to_json(self) -> dict:
        return {
            "mass": self.mass,
            "bound": self.bound,
            "passed": self.passed,
            "reason": self.reason,
        }


def _gap(kernel: KernelMatrix, mu: Measure, omega_potential: np.ndarray) -> np.ndarray:
    """Potential gap ``K @ mu - K @ omega``, given the charge potential ``K @ omega``."""
    return potential(kernel, mu) - omega_potential


def _certify(
    label: str, gap: np.ndarray, w: np.ndarray, idx: np.ndarray, c: float, tol: float, **extra: float
) -> None:
    """Gate the variational characterization shared by every solve.

    The gap must dominate the constant ``c`` at every node of the target set
    ``idx`` (``potential_dominance``) and equal it on the support, the nodes
    where ``w`` exceeds ``10 * tol`` (``support_equality``).  ``extra`` adds
    the problem's own residuals.  Any residual above ``10 * tol`` raises
    :class:`CharacterizationViolated` carrying the whole residual map.
    """
    gate = 10.0 * tol
    on_support = idx[w[idx] > gate]
    residuals = {
        "potential_dominance": float(max(0.0, c - float(gap[idx].min()))),
        "support_equality": float(np.max(np.abs(gap[on_support] - c))) if on_support.size else 0.0,
        **extra,
    }
    bad = {k: v for k, v in residuals.items() if v > gate}
    if bad:
        raise CharacterizationViolated(
            f"{label} certification failed: {bad} exceed gate {gate:.1e}", residuals
        )


def pseudo_balayage(
    kernel: KernelMatrix,
    omega: Measure,
    support: SupportSet,
    tol: float = SOLVER_TOL,
    h: float | None = None,
    w0: np.ndarray | None = None,
) -> BalayageResult:
    """Sweep the charge ``omega`` onto ``support`` and certify the result.

    Residuals beyond ``10 * tol`` raise :class:`CharacterizationViolated`,
    which signals a solver or conditioning failure rather than a property of
    the input.
    """
    idx = support.as_array()
    u = potential(kernel, omega)
    start = None if w0 is None else np.asarray(w0, dtype=float)[idx]
    problem = ConeQpProblem.on_kernel(kernel, support, u[idx])
    w_sub, report = solve_cone_qp(problem, tol=tol, w0=start)

    w = np.zeros(kernel.size)
    w[idx] = w_sub
    swept = Measure(w, omega.node_set_id)
    pot = potential(kernel, swept)
    # gauss_functional(kernel, omega, swept), bit for bit, from the one product K @ w
    value = float(w @ pot) - 2.0 * float(w @ u)
    gap = pot - u
    _certify(
        "pseudo-balayage", gap, w, idx, 0.0, tol,
        self_integral=abs(float(w @ gap)), value_sign=float(max(0.0, value)),
    )

    bound = None if h is None else float(h) * omega.positive_part.mass
    return BalayageResult(measure=swept, value=value, kkt=report, mass=swept.mass, mass_bound=bound)


def verify_ii1(
    kernel: KernelMatrix,
    omega: Measure,
    support: SupportSet,
    nu: Measure,
    tol: float = SOLVER_TOL,
) -> Ii1Check:
    """Test whether ``nu`` carries the two defining properties of the sweep.

    ``nu`` must be positive and supported on the target set.  By linearity it
    suffices to test the gap integral against the unit atoms of the set, plus
    the vanishing of the gap integral against ``nu`` itself.  The check
    returns True exactly when ``nu`` coincides with the pseudo-balayage up to
    solver tolerance.
    """
    idx = support.as_array()
    w = nu.weights
    if float(w.min()) < -tol:
        raise ValueError("nu must be a positive measure")
    off = np.ones(kernel.size, dtype=bool)
    off[idx] = False
    if off.any() and float(np.max(np.abs(w[off]))) > tol:
        raise ValueError("nu must vanish off the target set")
    gap = _gap(kernel, nu, potential(kernel, omega))
    atom_gap_min = float(gap[idx].min())
    self_abs = abs(float(w @ gap))
    ok = atom_gap_min >= -tol and self_abs <= tol
    return Ii1Check(ok=ok, atom_gap_min=atom_gap_min, self_integral_abs=self_abs)


def mass_bound_check(
    result: BalayageResult,
    h: float | None,
    omega: Measure,
    slack: float = 0.02,
) -> MassBoundReport:
    """Check the swept mass against ``h * omega_plus_mass * (1 + slack)``.

    ``h`` is the maximum-principle constant of the kernel (1 for Riesz orders
    up to 2 and for the logarithmic disc, ``2**(n - alpha)`` above order 2).
    When no constant is known the check is skipped rather than guessed.  The
    multiplicative ``slack`` absorbs discretization error of the node sets;
    the continuum inequality is exact.
    """
    if h is None:
        return MassBoundReport(result.mass, None, None, "no-h-constant")
    if h < 1.0:
        raise ValueError("the maximum-principle constant h must be >= 1")
    bound = float(h) * omega.positive_part.mass * (1.0 + slack)
    return MassBoundReport(result.mass, bound, bool(result.mass <= bound), "checked")


def restricted_problem_value(
    kernel: KernelMatrix,
    omega: Measure,
    support: SupportSet,
    mass_cap: float,
    tol: float = SOLVER_TOL,
) -> float:
    """Least weighted energy over positive measures on the set of mass <= cap.

    For caps at or above the swept mass this equals the unrestricted value
    (the sweep itself is feasible); below it the cap binds and the minimum is
    attained at total mass equal to the cap, computed by rescaling onto the
    simplex.
    """
    if mass_cap < 0.0:
        raise ValueError("mass_cap must be nonnegative")
    if mass_cap == 0.0:
        return 0.0
    bal = pseudo_balayage(kernel, omega, support, tol=tol)
    if bal.mass <= mass_cap * (1.0 + 1e-12) + tol:
        return bal.value
    b = potential(kernel, omega)[support.as_array()]
    problem = SimplexQpProblem.on_kernel(kernel, support, -b / mass_cap)
    v, _ = solve_simplex_qp(problem, tol=tol)
    w = mass_cap * v
    return float(w @ (problem.Q @ w) - 2.0 * (b @ w))
