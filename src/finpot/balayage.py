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

from .core import SOLVER_TOL, KernelMatrix, Measure, Record, SupportSet, potential
from .qp import ConeQpProblem, KktReport, solve_cone_qp


class CharacterizationViolated(RuntimeError):
    """Post-hoc residuals exceeded their gate; carries the residual map."""

    def __init__(self, message: str, residuals: dict | None = None):
        super().__init__(message)
        self.residuals = dict(residuals or {})


@dataclass(frozen=True)
class BalayageResult(Record):
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


@dataclass(frozen=True)
class MassBoundReport(Record):
    """Outcome of :func:`mass_bound_check`; ``passed`` is None when skipped."""

    mass: float
    bound: float | None
    passed: bool | None
    reason: str


def gate(tol: float) -> float:
    """The certification gate: a residual above ``10 * tol`` fails its certificate."""
    return 10.0 * tol


def require_within_gate(label: str, residuals: dict, tol: float) -> None:
    """Raise :class:`CharacterizationViolated` with the residual map unless each is at most ``gate(tol)``.

    So an inf or NaN residual fails.
    """
    bad = {k: v for k, v in residuals.items() if not v <= gate(tol)}
    if bad:
        raise CharacterizationViolated(
            f"{label} certification failed: {bad} exceed gate {gate(tol):.1e}", residuals
        )


def _certify(
    label: str, gap: np.ndarray, w: np.ndarray, idx: np.ndarray, c: float, tol: float, **extra: float
) -> None:
    """Gate the variational characterization shared by every solve.

    The gap must dominate the constant ``c`` at every node of the target set
    ``idx`` (``potential_dominance``) and equal it on the support, the nodes
    where ``w`` exceeds ``gate(tol)`` (``support_equality``).  ``extra`` adds
    the problem's own residuals; :func:`require_within_gate` judges them all.
    """
    on_support = idx[w[idx] > gate(tol)]
    residuals = {
        "potential_dominance": float(np.maximum(0.0, c - gap[idx].min())),
        "support_equality": float(np.max(np.abs(gap[on_support] - c))) if on_support.size else 0.0,
        **extra,
    }
    require_within_gate(label, residuals, tol)


def pseudo_balayage(
    kernel: KernelMatrix,
    omega: Measure,
    support: SupportSet,
    tol: float = SOLVER_TOL,
    h: float | None = None,
    w0: np.ndarray | None = None,
) -> BalayageResult:
    """Sweep the charge ``omega`` onto ``support`` and certify the result.

    Residuals beyond ``gate(tol)`` raise :class:`CharacterizationViolated`,
    which signals a solver or conditioning failure rather than a property of
    the input.  The result records the mass bound ``h * omega_plus_mass`` of
    the kernel's maximum-principle constant ``h`` (at least 1) when given.
    """
    if h is not None and h < 1.0:
        raise ValueError("the maximum-principle constant h must be >= 1")
    idx = support.as_array()
    u = potential(kernel, omega)
    start = None if w0 is None else np.asarray(w0, dtype=float)[idx]
    problem = ConeQpProblem.on_kernel(kernel, support, u[idx], _charge=(omega.weights, u))
    w_sub, report = solve_cone_qp(problem, tol=tol, w0=start)

    w = np.zeros(kernel.size)
    w[idx] = w_sub
    swept = Measure(w)
    pot = problem._potential(w_sub)  # potential(kernel, swept): the solve's last product
    # gauss_functional(kernel, omega, swept), bit for bit, from the one product K @ w
    value = float(w @ pot) - 2.0 * float(w @ u)
    gap = pot - u
    _certify(
        "pseudo-balayage", gap, w, idx, 0.0, tol,
        self_integral=abs(float(w @ gap)), value_sign=float(np.maximum(0.0, value)),
    )

    bound = None if h is None else float(h) * omega.positive_part.mass
    return BalayageResult(measure=swept, value=value, kkt=report, mass=swept.mass, mass_bound=bound)


def mass_bound_check(result: BalayageResult, slack: float = 0.02) -> MassBoundReport:
    """Check the swept mass against its bound ``h * omega_plus_mass * (1 + slack)``.

    ``h`` is the maximum-principle constant of the kernel (1 for Riesz orders
    up to 2 and for the logarithmic disc, ``2**(n - alpha)`` above order 2),
    given to :func:`pseudo_balayage`, which records ``result.mass_bound``.
    When no constant is known the check is skipped rather than guessed.  The
    multiplicative ``slack`` absorbs discretization error of the node sets;
    the continuum inequality is exact.
    """
    if result.mass_bound is None:
        return MassBoundReport(result.mass, None, None, "no-h-constant")
    bound = result.mass_bound * (1.0 + slack)
    return MassBoundReport(result.mass, bound, bool(result.mass <= bound), "checked")
