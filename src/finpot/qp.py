"""Strictly convex quadratic minimization over the nonnegative cone and the simplex.

Two problems are solved here, both with a symmetric strictly positive
definite ``Q``:

* cone:    minimize ``w @ Q @ w - 2 b @ w``  over  ``w >= 0``
* simplex: minimize ``w @ Q @ w + 2 f @ w``  over  ``w >= 0, sum(w) = 1``

The simplex problem is the cone problem with ``b = -f`` and one more
constraint, so one problem record (:class:`_QpProblem`) and one driver
(:func:`_solve`) serve both: block principal pivoting (the primal-dual
active set method, :func:`_block_pivot`) with Murty's single-pivot backup.
Each step (:func:`_pivot_step`) solves the reduced linear system
``Q_FF x = r_F`` on a candidate free set, where ``r`` is ``b``, plus a
mass column of ones for the simplex that fixes the constraint's
multiplier; so the final iterate satisfies complementarity up to
linear-solve roundoff, which the downstream certification relies on.  The
steps of one QP share an inverse (:class:`_FreeSetSolver`): the kernel's,
which a problem built by ``on_kernel`` brings, serves every step it can; a
later large free set that it does not serve is inverted once, and the free
sets inside it are solved from that inverse.  The KKT residuals
(:func:`_residuals`) are read off the dual the last pivot step formed,
which is half the gradient, so no product with ``Q`` is spent on them.
Exhaustive small-instance oracles (:func:`brute_force_cone`,
:func:`brute_force_simplex`) enumerate supports and serve as the
independent ground truth in the test suite.

Solvers are pure and deterministic given ``(problem, tol, w0)``.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, InitVar, dataclass, field
from typing import ClassVar, NamedTuple

import numpy as np

from .core import (
    SOLVER_TOL,
    KernelMatrix,
    Record,
    SupportSet,
    _factor_to_inverse,
    _inverse_cholesky,
    frozen_float_array,
    is_exactly_symmetric,
)


class MaxIterExceeded(RuntimeError):
    """Solver ran out of iterations; carries the best iterate and its report."""

    def __init__(self, message: str, best_w: np.ndarray, report: "KktReport"):
        super().__init__(message)
        self.best_w = best_w
        self.report = report


class TooLarge(ValueError):
    """Instance too large for exhaustive enumeration."""


def _as_sym_matrix(Q) -> np.ndarray:
    arr = frozen_float_array(Q)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise ValueError("Q must be a nonempty square matrix")
    if not np.all(np.isfinite(arr)):
        raise ValueError("Q must be finite")
    if not is_exactly_symmetric(arr):
        raise ValueError("Q must be symmetric")
    return arr


def _as_vector(v, k: int, name: str) -> np.ndarray:
    arr = np.array(v, dtype=float)
    if arr.shape != (k,):
        raise ValueError(f"{name} must be a vector of length {k}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    arr.setflags(write=False)
    return arr


class _Inverse(NamedTuple):
    """``G = K_UU^-1``, its row sums ``G @ 1``, and where each index of Q sits in U.

    ``where[i]`` is the position in U of Q's index i, or -1 outside U.
    """

    G: np.ndarray
    row_sums: np.ndarray
    where: np.ndarray


@dataclass(frozen=True)
class _QpProblem:
    """``Q``, the vector named ``_vector`` and the inverse a kernel seeds.

    The constructor checks and freezes ``Q`` and the vector, and brings no
    inverse.  :meth:`on_kernel` builds the problem on a kernel's support and
    checks only the vector: ``Q = kernel.restrict(support)`` keeps the
    kernel's finite, exactly symmetric, positive definite and frozen
    entries, and ``restrict`` range-checks the strictly increasing, frozen
    indices ``ix``.  It seeds ``inverse`` with the kernel's ``G = K^-1``,
    its row sums and ``ix`` (``Q = K[ix, ix]``); see
    :class:`_FreeSetSolver`.  The inverse changes how the solve runs, never
    its answer, which is checked against ``Q``.
    """

    _vector: ClassVar[str]
    Q: np.ndarray
    inverse: _Inverse | None = field(default=None, init=False, repr=False, compare=False)
    _: KW_ONLY
    _inverse: InitVar[_Inverse | None] = None

    def __post_init__(self, _inverse):
        if _inverse is None:
            object.__setattr__(self, "Q", _as_sym_matrix(self.Q))
        else:
            object.__setattr__(self, "inverse", _inverse)
        name = self._vector
        object.__setattr__(self, name, _as_vector(getattr(self, name), self.Q.shape[0], name))

    @classmethod
    def on_kernel(cls, kernel: KernelMatrix, support: SupportSet, vector):
        """The problem with ``Q = kernel.restrict(support)``, seeded with the kernel's inverse."""
        inverse = _Inverse(kernel.inverse, kernel.inverse_row_sums, support.as_array())
        return cls(kernel.restrict(support), vector, _inverse=inverse)

    @property
    def size(self) -> int:
        return int(self.Q.shape[0])


@dataclass(frozen=True)
class ConeQpProblem(_QpProblem):
    """Data of the nonnegative-cone problem ``min w@Q@w - 2 b@w, w >= 0``."""

    _vector = "b"
    b: np.ndarray

    def objective(self, w: np.ndarray) -> float:
        w = np.asarray(w, dtype=float)
        return float(w @ (self.Q @ w) - 2.0 * (self.b @ w))

    def gradient(self, w: np.ndarray) -> np.ndarray:
        return 2.0 * (self.Q @ w - self.b)


@dataclass(frozen=True)
class SimplexQpProblem(_QpProblem):
    """Data of the simplex problem ``min w@Q@w + 2 f@w, w >= 0, sum(w) = 1``."""

    _vector = "f"
    f: np.ndarray

    def objective(self, w: np.ndarray) -> float:
        w = np.asarray(w, dtype=float)
        return float(w @ (self.Q @ w) + 2.0 * (self.f @ w))

    def gradient(self, w: np.ndarray) -> np.ndarray:
        return 2.0 * (self.Q @ w + self.f)


@dataclass(frozen=True)
class KktReport(Record):
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


def _residuals(w: np.ndarray, eta: np.ndarray, mass: bool) -> tuple[float, float, float]:
    """Residuals at ``w``, given ``eta = g - 2c`` there (the gradient, for the cone).

    With the mass constraint, feasibility also counts how far ``sum(w)`` is from 1.
    """
    stationarity = float(max(0.0, -float(eta.min())))
    complementarity = float(np.max(np.abs(w * eta)))
    feasibility = float(max(0.0, -float(w.min())))
    if mass:
        feasibility = float(max(abs(float(w.sum()) - 1.0), feasibility))
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
    on a P-matrix (Judice & Pires, 1994).  Returns ``(w, y, c, solves)``
    for the accepted iterate; when the budget runs out, that is the iterate
    with the fewest infeasible indices.
    """
    fewest = free.size + 1
    backup = _BACKUP_ROUNDS
    best = None
    for solves in range(1, _MAX_SOLVES + 1):
        w, y, c = reduced_solve(free)
        infeasible = np.where(free, w < 0.0, y < -dual_eps)
        count = int(np.count_nonzero(infeasible))
        if count == 0:
            return w, y, c, solves
        if count < fewest:
            fewest, backup, best = count, _BACKUP_ROUNDS, (w, y, c)
            free = free ^ infeasible
        elif backup > 0:
            backup -= 1
            free = free ^ infeasible
        else:
            free = free.copy()
            last = int(np.flatnonzero(infeasible)[-1])
            free[last] = not free[last]
    return (*best, _MAX_SOLVES)


def _principal_submatrix(Q: np.ndarray, idx: np.ndarray) -> np.ndarray:
    # a full index set needs no gathered copy: the solve copies its input anyway
    return Q if idx.size == Q.shape[0] else Q[np.ix_(idx, idx)]


# Free sets of at least this many indices that no inverse serves are inverted
# from the second step of a QP on; below it every such step is an LU solve.
# On a 2-core OpenBLAS host, at 400 indices an inverse costs 2.6 ms, an LU
# solve 1.5 ms and a later Schur step 0.07 ms; below it any step costs under
# 3 ms, and the many small problems of a scan keep the plain LU path.
_FACTOR_MIN = 400


class _FreeSetSolver:
    """Solves ``Q_FF x = r_F`` for the successive free sets F of one QP.

    A call takes the free mask and an ``(n, p)`` right-hand side over all
    indices and returns F's indices and the ``(|F|, p)`` solution.  The
    solver holds up to two inverses ``G = K_UU^-1`` of a universe U that
    holds Q's indices (or some of them) as a principal submatrix, each with
    its row sums: the kernel's, when the problem brings one (U = the
    kernel's nodes; kept for the whole QP), and one it builds of a free set
    B itself (U = B; a gathered copy overwritten by
    :func:`_inverse_cholesky` and :func:`_factor_to_inverse`, its row sums
    formed once).  Every F within U is solved from G by the
    principal-submatrix inverse identity ``(K_FF)^-1 = G_FF - G_FD G_DD^-1
    G_DF`` on the rest ``D = U \\ F`` (Golub & Van Loan, block inverse by
    Schur complements; Bartlett & Biegler, QPSchur, 2006): with ``r~`` equal
    to ``r`` on F and zero on D, ``y = G r~``, ``s = G_DD^-1 y_D`` and
    ``x = y_F - G_FD s``.  An inverse serves F unless F leaves U, or
    ``2|D| > |F|`` and the Schur step would cost about as much; the
    kernel's is tried first, so a step's arithmetic does not depend on the
    path to its free set.  A step that no inverse serves is an LU solve
    when F has fewer than ``_FACTOR_MIN`` indices, or when it is the QP's
    first step, so a QP settled in one step pays for no inverse; any later
    such step inverts F, in place of the solver's own earlier inverse.

    Pass budget of a Schur step: at most one product with G per column of
    ``r``.  A column that is 0 on F gives 0 with none; a column that is 1
    on F (the mass column of the simplex) is ``G 1_F = G @ 1 - G_DU^T 1``,
    from the row sums and the rows of D the step gathers anyway, with none.
    """

    def __init__(self, Q: np.ndarray, kept: _Inverse | None = None):
        self.Q = Q
        self.first = True
        self.kept = kept
        self.local = None

    def __call__(self, free: np.ndarray, r: np.ndarray):
        idx = np.flatnonzero(free)
        first, self.first = self.first, False
        step = self._schur_sets(idx)
        if step is None:
            self.local = None
            if idx.size < _FACTOR_MIN or first:
                return idx, np.linalg.solve(_principal_submatrix(self.Q, idx), r[idx])
            G = _factor_to_inverse(_inverse_cholesky(self.Q[np.ix_(idx, idx)]))
            row_sums = G.sum(axis=1)
            row_sums.setflags(write=False)
            where = np.full(self.Q.shape[0], -1)
            where[idx] = np.arange(idx.size)
            self.local = _Inverse(G, row_sums, where)
            step = self._schur_sets(idx)
        (G, row_sums, _), at, rest = step
        GD = G[rest]
        y = np.empty((G.shape[0], r.shape[1]))
        for j, col in enumerate(r[idx].T):
            if (col == 1.0).all():
                y[:, j] = row_sums - GD.sum(axis=0)
            elif col.any():
                rt = np.zeros(G.shape[0])
                rt[at] = col
                y[:, j] = G @ rt
            else:
                y[:, j] = 0.0
        if rest.size:
            y -= GD.T @ np.linalg.solve(GD[:, rest], y[rest])
        return idx, y[at]

    def _schur_sets(self, idx):
        """The first inverse that serves F, F's positions in its G and the rest D of its U."""
        for inverse in (self.kept, self.local):
            if inverse is None:
                continue
            at = inverse.where[idx]
            if at.size and at.min() < 0:
                continue
            rest = np.ones(inverse.G.shape[0], dtype=bool)
            rest[at] = False
            rest = np.flatnonzero(rest)
            if 2 * rest.size <= idx.size:
                return inverse, at, rest
        return None


def _pivot_step(solve: _FreeSetSolver, b: np.ndarray, r: np.ndarray, free: np.ndarray):
    """One reduced solve on the free set; returns ``(w, y, c)`` for :func:`_block_pivot`.

    ``r`` is ``b`` as one column, or ``[b, 1]`` when the mass column of the
    simplex rides along: one solve then serves both right-hand sides of
    ``Q_FF [x0, x1] = [b_F, 1]``, the mass constraint fixes
    ``c = (1 - sum x0) / sum x1`` (the denominator is positive because
    ``Q_FF`` is positive definite) and ``w_F = x0 + c x1``.  The dual is
    ``y = Q w - b - c``, with ``c`` absent for the cone.
    """
    idx, x = solve(free, r)
    w = np.zeros(b.size)
    if r.shape[1] == 1:
        w[idx] = x[:, 0]
        return w, solve.Q @ w - b, None
    c = (1.0 - float(x[:, 0].sum())) / float(x[:, 1].sum())
    w[idx] = x[:, 0] + c * x[:, 1]
    return w, solve.Q @ w - b - c, c


def _solve(p, b: np.ndarray, tol: float, free: np.ndarray, dual_eps: float, mass: bool):
    """Minimize ``w @ Q @ w - 2 b @ w`` over ``w >= 0`` (and ``sum(w) = 1`` with ``mass``).

    Runs :func:`_block_pivot` from ``free`` and gates the accepted iterate's
    residuals on ``tol``; raises :class:`MaxIterExceeded` above it.
    """
    r = np.column_stack((b, np.ones(b.size))) if mass else b[:, None]
    solve = _FreeSetSolver(p.Q, p.inverse)
    w, y, c, solves = _block_pivot(lambda F: _pivot_step(solve, b, r, F), free, dual_eps)
    # y = Q w - b - c, so 2y is g - 2c exactly: doubling commutes with rounding
    residuals = _residuals(w, 2.0 * y, mass)
    report = KktReport(*residuals, c, solves)
    if max(residuals) > tol:
        kind = "simplex" if mass else "cone"
        raise MaxIterExceeded(
            f"{kind} solver residuals {max(residuals):.3e} exceed tol {tol:.3e}", w, report
        )
    return w, report


def solve_cone_qp(
    p: ConeQpProblem,
    tol: float = SOLVER_TOL,
    w0: np.ndarray | None = None,
) -> tuple[np.ndarray, KktReport]:
    """Minimize ``w @ Q @ w - 2 b @ w`` over the nonnegative cone.

    Runs :func:`_solve` from the free set ``w0 > 0`` (default ``b > 0``).
    Returns the minimizer and a :class:`KktReport` whose residuals satisfy
    the ``tol`` contract: ``g_i >= -tol`` and ``|w_i g_i| <= tol`` for the
    gradient ``g = 2 (Q w - b)``.  Raises :class:`MaxIterExceeded` with the
    best iterate if the contract is not met.
    """
    if not 0.0 < tol < np.inf:  # NaN or inf would pass every residual test
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    b = p.b
    free = b > 0.0 if w0 is None else np.asarray(w0, dtype=float) > 0.0
    dual_eps = 1e-12 * max(1.0, float(np.max(np.abs(b))))
    return _solve(p, b, tol, free, dual_eps, mass=False)


def solve_simplex_qp(
    p: SimplexQpProblem,
    tol: float = SOLVER_TOL,
    w0: np.ndarray | None = None,
) -> tuple[np.ndarray, KktReport]:
    """Minimize ``w @ Q @ w + 2 f @ w`` over the probability simplex.

    Runs :func:`_solve` with ``b = -f`` and the mass column, from the free
    set ``w0 > 0`` (default, or when ``w0`` has no positive entry: every
    index).  The report's ``multiplier`` is the constant c with
    ``(Q w + f)_i >= c`` everywhere and equality on the support.  Raises
    :class:`MaxIterExceeded` if residuals above ``tol`` persist.
    """
    if not 0.0 < tol < np.inf:  # NaN or inf would pass every residual test
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    Q, f = p.Q, p.f
    if p.size == 1:
        # the reduced solve would round the weight off exact 1.0
        w = np.array([1.0])
        c = float(Q[0, 0] + f[0])
        return w, KktReport(*_residuals(w, p.gradient(w) - 2.0 * c, True), c, 0)

    free = np.ones(p.size, dtype=bool) if w0 is None else np.asarray(w0, dtype=float) > 0.0
    if not free.any():
        free[:] = True
    # max |Q_ij| sits on the diagonal of an SPD Q (|Q_ij| < sqrt(Q_ii Q_jj)): no k x k temporary
    dual_eps = 1e-12 * max(1.0, float(np.max(np.abs(f))), float(np.max(np.diagonal(Q))))
    return _solve(p, -f, tol, free, dual_eps, mass=True)


def _bordered_simplex_solve(Q, f, mask):
    """The simplex step through the bordered KKT matrix, kept for the oracle."""
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
            z, c = _bordered_simplex_solve(Q, f, mask)
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
