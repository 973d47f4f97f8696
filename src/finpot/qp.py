"""Strictly convex quadratic minimization over the nonnegative cone and the simplex.

Two problems are solved here, both with a symmetric strictly positive
definite ``Q``:

* cone:    minimize ``w @ Q @ w - 2 b @ w``  over  ``w >= 0``
* simplex: minimize ``w @ Q @ w + 2 f @ w``  over  ``w >= 0, sum(w) = 1``

Both are solved by one engine, :func:`_block_pivot`: block principal
pivoting (the primal-dual active set method) with Murty's single-pivot
backup.  Each step solves the reduced linear system on a candidate free set
(``Q_FF w = b_F`` for the cone; for the simplex the same matrix with a
second right-hand side that carries the mass constraint), so the final
iterate satisfies complementarity up to linear-solve roundoff, which the
downstream certification relies on.  The steps of one QP share an inverse
(:class:`_FreeSetSolver`): a problem may bring the inverse of a matrix that
holds its ``Q`` as a principal submatrix (``inverse``, with ``Q``'s indices
in it, ``inverse_index``), from which every step it serves is solved; a
later large free set that no inverse serves is inverted once, and the free
sets inside it are solved from that inverse.
Only a problem built on a certified kernel, ``on_kernel(kernel, support,
...)``, brings an inverse (the kernel's, with the support's indices); the
kernel's checks (finite, exactly symmetric, positive definite, frozen)
already hold for its principal submatrix, so only the vector is checked.
The plain constructor checks everything it is given and brings no inverse.
The KKT residuals are read off the dual the last pivot step formed, which is
half the gradient, so no product with ``Q`` is spent on them.
Exhaustive small-instance oracles (:func:`brute_force_cone`,
:func:`brute_force_simplex`) enumerate supports and serve as the
independent ground truth in the test suite.

Solvers are pure and deterministic given ``(problem, tol, w0)``.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, InitVar, dataclass, field

import numpy as np

from .core import (
    SOLVER_TOL,
    KernelMatrix,
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


def _check_problem(p, name: str, kernel_index) -> None:
    """Check and freeze ``p.Q`` and the vector ``name``; seed the inverse from ``kernel_index``.

    ``kernel_index`` is :meth:`~ConeQpProblem.on_kernel`'s ``(kernel, idx)``,
    with ``p.Q = kernel.restrict(idx)``: the kernel's entries are finite,
    exactly symmetric, positive definite and frozen, and ``restrict`` keeps
    them frozen and range-checks the strictly increasing, frozen ``idx``, so
    ``Q`` is not checked again.
    """
    if kernel_index is None:
        object.__setattr__(p, "Q", _as_sym_matrix(p.Q))
    else:
        kernel, idx = kernel_index
        object.__setattr__(p, "inverse", kernel.inverse)
        object.__setattr__(p, "inverse_index", idx)
    object.__setattr__(p, name, _as_vector(getattr(p, name), p.Q.shape[0], name))


@dataclass(frozen=True)
class ConeQpProblem:
    """Data of the nonnegative-cone problem ``min w@Q@w - 2 b@w, w >= 0``.

    The constructor checks ``Q`` and ``b``.  :meth:`on_kernel` builds the
    problem on a kernel's support without re-checking what the kernel
    certified, and seeds it with the kernel's inverse ``G = K^-1`` and the
    support's indices ``ix`` (``inverse`` and ``inverse_index``, with
    ``Q = K[ix, ix]``); see :class:`_FreeSetSolver`.  The inverse changes
    how the solve runs, never its answer, which is checked against ``Q``.
    """

    Q: np.ndarray
    b: np.ndarray
    inverse: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    inverse_index: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _: KW_ONLY
    _kernel_index: InitVar[tuple[KernelMatrix, np.ndarray] | None] = None

    def __post_init__(self, _kernel_index):
        _check_problem(self, "b", _kernel_index)

    @classmethod
    def on_kernel(cls, kernel: KernelMatrix, support: SupportSet, b) -> "ConeQpProblem":
        """The problem with ``Q = kernel.restrict(support)``, seeded with the kernel's inverse."""
        return cls(kernel.restrict(support), b, _kernel_index=(kernel, support.as_array()))

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
    """Data of the simplex problem ``min w@Q@w + 2 f@w, w >= 0, sum(w) = 1``.

    The constructor checks ``Q`` and ``f``, and :meth:`on_kernel` builds the
    problem on a kernel's support with the kernel's inverse, as for
    :class:`ConeQpProblem`.
    """

    Q: np.ndarray
    f: np.ndarray
    inverse: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    inverse_index: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _: KW_ONLY
    _kernel_index: InitVar[tuple[KernelMatrix, np.ndarray] | None] = None

    def __post_init__(self, _kernel_index):
        _check_problem(self, "f", _kernel_index)

    @classmethod
    def on_kernel(cls, kernel: KernelMatrix, support: SupportSet, f) -> "SimplexQpProblem":
        """The problem with ``Q = kernel.restrict(support)``, seeded with the kernel's inverse."""
        return cls(kernel.restrict(support), f, _kernel_index=(kernel, support.as_array()))

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


def _cone_residuals(w: np.ndarray, g: np.ndarray) -> tuple[float, float, float]:
    """Residuals at ``w`` of the cone problem whose gradient there is ``g``."""
    stationarity = float(max(0.0, -float(g.min())))
    complementarity = float(np.max(np.abs(w * g)))
    feasibility = float(max(0.0, -float(w.min())))
    return stationarity, complementarity, feasibility


def _simplex_residuals(w: np.ndarray, eta: np.ndarray) -> tuple[float, float, float]:
    """Residuals at ``w`` of the simplex problem, given ``eta = g - 2c`` there."""
    stationarity = float(max(0.0, -float(eta.min())))
    complementarity = float(np.max(np.abs(w * eta)))
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
    solver keeps at most one inverse ``G = K_UU^-1`` of a universe U that
    holds Q's indices (or some of them) as a principal submatrix: the
    kernel's inverse when the problem brings one (U = the kernel's nodes),
    else the one it builds of a free set B itself (U = B; a gathered copy
    overwritten by :func:`_inverse_cholesky` and :func:`_factor_to_inverse`).
    Every F within U is solved from G by the principal-submatrix inverse
    identity ``(K_FF)^-1 = G_FF - G_FD G_DD^-1 G_DF`` on the rest
    ``D = U \\ F`` (Golub & Van Loan, block inverse by Schur complements;
    Bartlett & Biegler, QPSchur, 2006): with ``r~`` equal to ``r`` on F and
    zero on D, ``y = G r~``, ``s = G_DD^-1 y_D`` and ``x = y_F - G_FD s``.
    That is one product with G and a ``|D|``-sized solve in place of an
    O(|F|^3) factorization.  The inverse is dropped when F leaves U, or when
    ``2|D| > |F|`` and the Schur step would cost about as much.  A step
    that no inverse serves is an LU solve when F has fewer than
    ``_FACTOR_MIN`` indices, or when it is the QP's first step, so a QP
    settled in one step pays for no inverse; any later such step inverts F.
    """

    def __init__(self, Q: np.ndarray, G: np.ndarray | None = None, index: np.ndarray | None = None):
        self.Q = Q
        self.first = True
        self.G = G
        self.where = index  # position in G of each index of Q, -1 outside U

    def __call__(self, free: np.ndarray, r: np.ndarray):
        idx = np.flatnonzero(free)
        first, self.first = self.first, False
        step = self._schur_sets(idx)
        if step is None:
            self.G = self.where = None
            if idx.size < _FACTOR_MIN or first:
                return idx, np.linalg.solve(_principal_submatrix(self.Q, idx), r[idx])
            self.G = _factor_to_inverse(_inverse_cholesky(self.Q[np.ix_(idx, idx)]))
            self.where = np.full(self.Q.shape[0], -1)
            self.where[idx] = np.arange(idx.size)
            step = self._schur_sets(idx)
        at, rest = step
        G = self.G
        rt = np.zeros((G.shape[0], r.shape[1]))
        rt[at] = r[idx]
        y = G @ rt
        if rest.size:
            GD = G[rest]
            y -= GD.T @ np.linalg.solve(GD[:, rest], y[rest])
        return idx, y[at]

    def _schur_sets(self, idx):
        """F's positions in G and the rest D of U, if the inverse serves F."""
        if self.G is None:
            return None
        at = self.where[idx]
        if at.size and at.min() < 0:
            return None
        rest = np.ones(self.G.shape[0], dtype=bool)
        rest[at] = False
        rest = np.flatnonzero(rest)
        return (at, rest) if 2 * rest.size <= idx.size else None


def _cone_reduced_solve(solve: _FreeSetSolver, b: np.ndarray, free: np.ndarray):
    w = np.zeros(b.size)
    idx, x = solve(free, b[:, None])
    w[idx] = x[:, 0]
    return w, solve.Q @ w - b, None


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
    if not 0.0 < tol < np.inf:  # NaN or inf would pass every residual test
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    b = p.b
    free = b > 0.0 if w0 is None else np.asarray(w0, dtype=float) > 0.0
    dual_eps = 1e-12 * max(1.0, float(np.max(np.abs(b))))
    solve = _FreeSetSolver(p.Q, p.inverse, p.inverse_index)
    w, y, _, solves = _block_pivot(lambda F: _cone_reduced_solve(solve, b, F), free, dual_eps)
    s, c, fe = _cone_residuals(w, 2.0 * y)  # y = Q w - b, and doubling is exact
    report = KktReport(s, c, fe, None, solves)
    if max(s, c, fe) > tol:
        raise MaxIterExceeded(
            f"cone solver residuals {max(s, c, fe):.3e} exceed tol {tol:.3e}", w, report
        )
    return w, report


def _simplex_reduced_solve(solve: _FreeSetSolver, f: np.ndarray, mask: np.ndarray):
    """Equality-constrained solve on a candidate support; returns (z, c).

    One solve serves both right-hand sides of ``Q_FF [x0, x1] = [-f_F, 1]``;
    the mass constraint then fixes ``c = (1 - sum x0) / sum x1`` (the
    denominator is positive because ``Q_FF`` is positive definite) and
    ``z_F = x0 + c x1``.
    """
    idx, x = solve(mask, np.column_stack((-f, np.ones(f.size))))
    c = (1.0 - float(x[:, 0].sum())) / float(x[:, 1].sum())
    z = np.zeros(f.size)
    z[idx] = x[:, 0] + c * x[:, 1]
    return z, c


def _bordered_simplex_solve(Q, f, mask):
    """The same solve through the bordered KKT matrix, kept for the oracle."""
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


def _simplex_pivot_solve(solve: _FreeSetSolver, f: np.ndarray, free: np.ndarray):
    z, c = _simplex_reduced_solve(solve, f, free)
    return z, solve.Q @ z + f - c, c


def solve_simplex_qp(
    p: SimplexQpProblem,
    tol: float = SOLVER_TOL,
    w0: np.ndarray | None = None,
) -> tuple[np.ndarray, KktReport]:
    """Minimize ``w @ Q @ w + 2 f @ w`` over the probability simplex.

    Runs :func:`_block_pivot` on the reduced system of the mass constraint,
    from the free set ``w0 > 0`` (default, or when ``w0`` has no positive
    entry: every index).  The report's ``multiplier`` is the constant c with
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
        s, comp, fe = _simplex_residuals(w, p.gradient(w) - 2.0 * c)
        return w, KktReport(s, comp, fe, c, 0)

    free = np.ones(p.size, dtype=bool) if w0 is None else np.asarray(w0, dtype=float) > 0.0
    if not free.any():
        free[:] = True
    # max |Q_ij| sits on the diagonal of an SPD Q (|Q_ij| < sqrt(Q_ii Q_jj)): no k x k temporary
    dual_eps = 1e-12 * max(1.0, float(np.max(np.abs(f))), float(np.max(np.diagonal(Q))))
    solve = _FreeSetSolver(Q, p.inverse, p.inverse_index)
    w, y, c, solves = _block_pivot(lambda F: _simplex_pivot_solve(solve, f, F), free, dual_eps)
    # y = Q w + f - c, so 2y is g - 2c exactly: doubling commutes with rounding
    s, comp, fe = _simplex_residuals(w, 2.0 * y)
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
