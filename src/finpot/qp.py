"""Strictly convex quadratic minimization over the nonnegative cone and the simplex.

Two problems are solved here, both with a symmetric strictly positive
definite ``Q``:

* cone:    minimize ``w @ Q @ w - 2 b @ w``  over  ``w >= 0``
* simplex: minimize ``w @ Q @ w + 2 f @ w``  over  ``w >= 0, sum(w) = 1``

Both are solved by one engine, :func:`_block_pivot`: block principal
pivoting (the primal-dual active set method) with Murty's single-pivot
backup.  Each step solves the reduced linear system on a candidate free set
(``Q_FF w = b_F`` for the cone, a system bordered by the mass constraint for
the simplex), so the final iterate satisfies complementarity up to
linear-solve roundoff, which the downstream certification relies on.
Exhaustive small-instance oracles (:func:`brute_force_cone`,
:func:`brute_force_simplex`) enumerate supports and serve as the
independent ground truth in the test suite.

Solvers are pure and deterministic given ``(problem, tol, w0)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SOLVER_TOL


class MaxIterExceeded(RuntimeError):
    """Solver ran out of iterations; carries the best iterate and its report."""

    def __init__(self, message: str, best_w: np.ndarray, report: "KktReport"):
        super().__init__(message)
        self.best_w = best_w
        self.report = report


class TooLarge(ValueError):
    """Instance too large for exhaustive enumeration."""


def _as_sym_matrix(Q) -> np.ndarray:
    arr = np.array(Q, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise ValueError("Q must be a nonempty square matrix")
    if not np.all(np.isfinite(arr)):
        raise ValueError("Q must be finite")
    if not np.array_equal(arr, arr.T):
        raise ValueError("Q must be symmetric")
    arr.setflags(write=False)
    return arr


def _as_vector(v, k: int, name: str) -> np.ndarray:
    arr = np.array(v, dtype=float)
    if arr.shape != (k,):
        raise ValueError(f"{name} must be a vector of length {k}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ConeQpProblem:
    """Data of the nonnegative-cone problem ``min w@Q@w - 2 b@w, w >= 0``."""

    Q: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        Q = _as_sym_matrix(self.Q)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "b", _as_vector(self.b, Q.shape[0], "b"))

    @property
    def size(self) -> int:
        return int(self.b.size)

    def objective(self, w: np.ndarray) -> float:
        w = np.asarray(w, dtype=float)
        return float(w @ (self.Q @ w) - 2.0 * (self.b @ w))

    def gradient(self, w: np.ndarray) -> np.ndarray:
        return 2.0 * (self.Q @ w - self.b)

    def to_json(self) -> dict:
        return {"kind": "cone", "k": self.size, "Q": self.Q.tolist(), "b": self.b.tolist()}


@dataclass(frozen=True)
class SimplexQpProblem:
    """Data of the simplex problem ``min w@Q@w + 2 f@w, w >= 0, sum(w) = 1``."""

    Q: np.ndarray
    f: np.ndarray

    def __post_init__(self):
        Q = _as_sym_matrix(self.Q)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "f", _as_vector(self.f, Q.shape[0], "f"))

    @property
    def size(self) -> int:
        return int(self.f.size)

    def objective(self, w: np.ndarray) -> float:
        w = np.asarray(w, dtype=float)
        return float(w @ (self.Q @ w) + 2.0 * (self.f @ w))

    def gradient(self, w: np.ndarray) -> np.ndarray:
        return 2.0 * (self.Q @ w + self.f)

    def to_json(self) -> dict:
        return {"kind": "simplex", "k": self.size, "Q": self.Q.tolist(), "f": self.f.tolist()}


@dataclass(frozen=True)
class KktReport:
    """Numerical optimality certificate attached to every solve.

    All residuals are nonnegative maxima of violation magnitudes.  For the
    simplex problem ``multiplier`` is the Lagrange constant c of the mass
    constraint in the convention ``(Q w + f)_i >= c`` with equality on the
    support; for the cone problem it is ``None``.  ``iterations`` counts the
    reduced linear solves of the active-set engine.
    """

    stationarity_residual: float
    complementarity_residual: float
    feasibility_residual: float
    multiplier: float | None = None
    iterations: int = 0

    def to_json(self) -> dict:
        return {
            "stationarity_residual": self.stationarity_residual,
            "complementarity_residual": self.complementarity_residual,
            "feasibility_residual": self.feasibility_residual,
            "multiplier": self.multiplier,
            "iterations": self.iterations,
        }


def _cone_residuals(p: ConeQpProblem, w: np.ndarray) -> tuple[float, float, float]:
    g = p.gradient(w)
    stationarity = float(max(0.0, -float(g.min())))
    complementarity = float(np.max(np.abs(w * g)))
    feasibility = float(max(0.0, -float(w.min())))
    return stationarity, complementarity, feasibility


def _simplex_residuals(
    p: SimplexQpProblem, w: np.ndarray, c: float
) -> tuple[float, float, float]:
    g = p.gradient(w)
    stationarity = float(max(0.0, -float((g - 2.0 * c).min())))
    complementarity = float(np.max(np.abs(w * (g - 2.0 * c))))
    feasibility = float(max(abs(float(w.sum()) - 1.0), max(0.0, -float(w.min()))))
    return stationarity, complementarity, feasibility


# Reduced solves allowed per QP.  Full exchanges settle in a handful; the cap
# bounds a long run of single pivots on a pathological instance.
_MAX_SOLVES = 100
# Full exchanges tolerated without a fall in the infeasible count before the
# single-pivot backup takes over (the value used by Kim & Park, 2011).
_BACKUP_ROUNDS = 3


def _block_pivot(reduced_solve, free: np.ndarray, dual_eps: float):
    """Block principal pivoting on the optimality system of a strictly convex QP.

    ``reduced_solve(free)`` solves the equality-constrained system on the
    free set and returns ``(w, y, c)``: the primal ``w`` (zero off the free
    set), the dual ``y`` (the half-gradient, shifted by the multiplier ``c``
    of the simplex problem; ``c`` is ``None`` for the cone).  An index is
    infeasible when ``w_i < 0`` on the free set or ``y_i < -dual_eps`` off
    it.  Every infeasible index changes sides while their count keeps
    falling; after ``_BACKUP_ROUNDS`` exchanges without a fall only the
    largest infeasible index does (Murty's rule), which terminates finitely
    on a P-matrix (Judice & Pires, 1994).  Returns ``(w, c, solves)``; when
    the budget runs out, ``w`` is the iterate with the fewest infeasible
    indices.
    """
    fewest = free.size + 1
    backup = _BACKUP_ROUNDS
    best = None
    for solves in range(1, _MAX_SOLVES + 1):
        w, y, c = reduced_solve(free)
        infeasible = np.where(free, w < 0.0, y < -dual_eps)
        count = int(np.count_nonzero(infeasible))
        if count == 0:
            return w, c, solves
        if count < fewest:
            fewest, backup, best = count, _BACKUP_ROUNDS, (w, c)
            free = free ^ infeasible
        elif backup > 0:
            backup -= 1
            free = free ^ infeasible
        else:
            free = free.copy()
            last = int(np.flatnonzero(infeasible)[-1])
            free[last] = not free[last]
    return best[0], best[1], _MAX_SOLVES


def _principal_submatrix(Q: np.ndarray, idx: np.ndarray) -> np.ndarray:
    # a full index set needs no gathered copy: the solve copies its input anyway
    return Q if idx.size == Q.shape[0] else Q[np.ix_(idx, idx)]


def _cone_reduced_solve(Q: np.ndarray, b: np.ndarray, free: np.ndarray):
    w = np.zeros(b.size)
    idx = np.flatnonzero(free)
    if idx.size:
        w[idx] = np.linalg.solve(_principal_submatrix(Q, idx), b[idx])
    return w, Q @ w - b, None


def solve_cone_qp(
    p: ConeQpProblem,
    tol: float = SOLVER_TOL,
    w0: np.ndarray | None = None,
) -> tuple[np.ndarray, KktReport]:
    """Minimize ``w @ Q @ w - 2 b @ w`` over the nonnegative cone.

    Runs :func:`_block_pivot` from the free set ``w0 > 0`` (default
    ``b > 0``).  Returns the minimizer and a :class:`KktReport` whose
    residuals satisfy the ``tol`` contract: ``g_i >= -tol`` and
    ``|w_i g_i| <= tol`` for the gradient ``g = 2 (Q w - b)``.  Raises
    :class:`MaxIterExceeded` with the best iterate if the contract is not
    met.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    Q, b = p.Q, p.b
    free = b > 0.0 if w0 is None else np.asarray(w0, dtype=float) > 0.0
    dual_eps = 1e-12 * max(1.0, float(np.max(np.abs(b))))
    w, _, solves = _block_pivot(lambda F: _cone_reduced_solve(Q, b, F), free, dual_eps)
    s, c, fe = _cone_residuals(p, w)
    report = KktReport(s, c, fe, None, solves)
    if max(s, c, fe) > tol:
        raise MaxIterExceeded(
            f"cone solver residuals {max(s, c, fe):.3e} exceed tol {tol:.3e}", w, report
        )
    return w, report


def _simplex_reduced_solve(Q, f, mask):
    """Equality-constrained solve on a candidate support; returns (z, c)."""
    idx = np.flatnonzero(mask)
    s = idx.size
    M = np.zeros((s + 1, s + 1))
    M[:s, :s] = _principal_submatrix(Q, idx)
    M[:s, s] = -1.0
    M[s, :s] = 1.0
    rhs = np.concatenate([-f[idx], [1.0]])
    sol = np.linalg.solve(M, rhs)
    z = np.zeros(f.size)
    z[idx] = sol[:s]
    return z, float(sol[s])


def _simplex_pivot_solve(Q: np.ndarray, f: np.ndarray, free: np.ndarray):
    z, c = _simplex_reduced_solve(Q, f, free)
    return z, Q @ z + f - c, c


def solve_simplex_qp(
    p: SimplexQpProblem,
    tol: float = SOLVER_TOL,
    w0: np.ndarray | None = None,
) -> tuple[np.ndarray, KktReport]:
    """Minimize ``w @ Q @ w + 2 f @ w`` over the probability simplex.

    Runs :func:`_block_pivot` on the bordered system of the mass constraint,
    from the free set ``w0 > 0`` (default, or when ``w0`` has no positive
    entry: every index).  The report's ``multiplier`` is the constant c with
    ``(Q w + f)_i >= c`` everywhere and equality on the support.  Raises
    :class:`MaxIterExceeded` if residuals above ``tol`` persist.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    Q, f = p.Q, p.f
    if p.size == 1:
        # the bordered solve would round the weight off exact 1.0
        w = np.array([1.0])
        c = float(Q[0, 0] + f[0])
        s, comp, fe = _simplex_residuals(p, w, c)
        return w, KktReport(s, comp, fe, c, 0)

    free = np.ones(p.size, dtype=bool) if w0 is None else np.asarray(w0, dtype=float) > 0.0
    if not free.any():
        free[:] = True
    dual_eps = 1e-12 * max(1.0, float(np.max(np.abs(f))), float(np.max(np.abs(Q))))
    w, c, solves = _block_pivot(lambda F: _simplex_pivot_solve(Q, f, F), free, dual_eps)
    s, comp, fe = _simplex_residuals(p, w, c)
    report = KktReport(s, comp, fe, c, solves)
    if max(s, comp, fe) > tol:
        raise MaxIterExceeded(
            f"simplex solver residuals {max(s, comp, fe):.3e} exceed tol {tol:.3e}", w, report
        )
    return w, report


_BRUTE_FORCE_LIMIT = 14
_BRUTE_SLACK = 1e-9


def brute_force_cone(p: ConeQpProblem) -> np.ndarray:
    """Exhaustive active-set oracle for the cone problem (k <= 14).

    Enumerates all 2^k free sets, solves the equality-constrained system on
    each, keeps the candidates that are feasible with nonnegative gradient on
    the active set, and returns the one with the least objective.  Exact up
    to linear-solve arithmetic, and independent of the iterative solver.
    """
    k = p.size
    if k > _BRUTE_FORCE_LIMIT:
        raise TooLarge(f"k={k} exceeds the enumeration limit {_BRUTE_FORCE_LIMIT}")
    Q, b = p.Q, p.b
    best_w, best_obj = None, np.inf
    for mask_bits in range(2**k):
        freebool = np.array([(mask_bits >> i) & 1 == 1 for i in range(k)])
        w = np.zeros(k)
        if freebool.any():
            idx = np.flatnonzero(freebool)
            try:
                w[idx] = np.linalg.solve(Q[np.ix_(idx, idx)], b[idx])
            except np.linalg.LinAlgError:
                continue
            if float(w[idx].min()) < -_BRUTE_SLACK:
                continue
        g = p.gradient(w)
        active = ~freebool
        if active.any() and float(g[active].min()) < -_BRUTE_SLACK:
            continue
        obj = p.objective(w)
        if obj < best_obj:
            best_obj, best_w = obj, np.maximum(w, 0.0)
    assert best_w is not None, "enumeration found no KKT candidate"
    return best_w


def brute_force_simplex(p: SimplexQpProblem) -> np.ndarray:
    """Exhaustive support-enumeration oracle for the simplex problem (k <= 14)."""
    k = p.size
    if k > _BRUTE_FORCE_LIMIT:
        raise TooLarge(f"k={k} exceeds the enumeration limit {_BRUTE_FORCE_LIMIT}")
    Q, f = p.Q, p.f
    best_w, best_obj = None, np.inf
    for mask_bits in range(1, 2**k):
        mask = np.array([(mask_bits >> i) & 1 == 1 for i in range(k)])
        try:
            z, c = _simplex_reduced_solve(Q, f, mask)
        except np.linalg.LinAlgError:
            continue
        if float(z[mask].min()) < -_BRUTE_SLACK:
            continue
        eta = (Q @ z + f) - c
        if (~mask).any() and float(eta[~mask].min()) < -_BRUTE_SLACK:
            continue
        obj = p.objective(z)
        if obj < best_obj:
            best_obj, best_w = obj, np.maximum(z, 0.0)
    assert best_w is not None, "enumeration found no KKT candidate"
    return best_w
