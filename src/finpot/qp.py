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
steps of one QP share the kernel's inverse (:class:`_FreeSetSolver`), which
a problem built by ``on_kernel`` brings: it serves every step it can, by a
solve with ``G_DD`` on the rest D of the kernel's nodes.  A large step (at
least ``_FACTOR_MIN`` free indices) whose D is not few keeps an
inverse-Cholesky factor of ``G_DD`` for the rest of the QP, bordered as D
grows (:class:`_Factor`), and is taken only when it costs no more flops
than solving ``Q_FF`` afresh; any other step solves ``Q_FF`` afresh, by
Cholesky unless the block is small (:func:`~finpot.core._spd_solve`).  A
step on the kernel's inverse takes its dual off the free set from its own
Schur solve; a fresh solve forms the dual as ``Q @ w``, from ``K`` for a
problem on a large gathered support, which holds no copy of ``Q``.
The KKT residuals (:func:`_residuals`) are those of a fresh gradient: for a
problem on a kernel, one product of the kernel with the accepted iterate,
which the certification of that very answer reuses
(:meth:`_QpProblem._potential`); for a bare matrix, the dual its last step
formed with ``Q``.
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
    _BLOCK,
    _ROWS_SHARE,
    SOLVER_TOL,
    KernelMatrix,
    Record,
    SupportSet,
    _apply,
    _spd_inverse_factor,
    _spd_solve,
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

    ``where[i]`` is the position in U of Q's index i.  The inverse also
    holds ``K = K_UU`` itself and, when the problem's vector is the
    potential of a charge ``omega`` over U (``b = (K omega)[where]``),
    ``charge = (omega, K @ omega)``.
    """

    G: np.ndarray
    row_sums: np.ndarray
    where: np.ndarray
    K: np.ndarray | None = None
    charge: tuple[np.ndarray, np.ndarray] | None = None


def _kernel_product(inverse: _Inverse, w: np.ndarray) -> np.ndarray:
    """``K @ w`` over the kernel's nodes, for weights ``w`` at the indices ``inverse.where``."""
    w_U = np.zeros(inverse.K.shape[0])
    w_U[inverse.where] = w
    return _apply(inverse.K, w_U)


@dataclass(frozen=True)
class _QpProblem:
    """``Q``, the vector named ``_vector`` and the inverse a kernel seeds.

    The constructor checks and freezes ``Q`` and the vector, and brings no
    inverse.  :meth:`on_kernel` builds the problem on a kernel's support and
    checks only the vector: ``Q = kernel.restrict(support)`` keeps the
    kernel's finite, exactly symmetric, positive definite and frozen
    entries, and the kernel range-checks the strictly increasing, frozen
    indices ``ix``.  It seeds ``inverse`` with the kernel's ``G = K^-1``,
    its row sums, ``ix`` (``Q = K[ix, ix]``), ``K`` and the charge whose
    potential the vector is, when the caller names it; see
    :class:`_FreeSetSolver`.  The inverse changes how the solve runs, never
    its answer, whose residuals are those of a fresh gradient.  A solve of
    such a problem keeps the product ``K @ w`` of that gradient for the
    answer ``w`` it returned (:meth:`_potential`).

    A problem holds its ``Q`` in ``_matrix``, except one on a kernel support
    of at least ``_FACTOR_MIN`` indices that is not one run, whose gathered
    copy would be a matrix the size of ``Q``: its solves read ``K`` itself,
    and ``Q`` is formed anew on each access (by ``objective``, ``gradient``
    and the oracles).
    """

    _vector: ClassVar[str]
    Q: InitVar[np.ndarray | None]
    inverse: _Inverse | None = field(default=None, init=False, repr=False, compare=False)
    _product: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _matrix: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _: KW_ONLY
    _inverse: InitVar[_Inverse | None] = None

    def __post_init__(self, Q, _inverse):
        if _inverse is None:
            Q = _as_sym_matrix(Q)
        else:
            object.__setattr__(self, "inverse", _inverse)
        object.__setattr__(self, "_matrix", Q)
        name = self._vector
        object.__setattr__(self, name, _as_vector(getattr(self, name), self.size, name))

    @classmethod
    def on_kernel(cls, kernel: KernelMatrix, support: SupportSet, vector, *, _charge=None):
        """The problem with ``Q = kernel.restrict(support)``, seeded with the kernel's inverse.

        ``_charge = (omega, K @ omega)`` over the kernel's nodes names the
        charge whose potential on the support is ``b``; the library's solves
        pass it, so their Schur steps make no pass over ``G``.  A step reads
        it only for a column equal to that potential on its free set, and the
        residuals come from a fresh gradient, so a pair that is not a charge
        and its potential fails the tol gate rather than giving an answer.
        """
        ix = kernel._indices(support)
        inverse = _Inverse(kernel.inverse, kernel.inverse_row_sums, ix, kernel.entries, _charge)
        gathered = ix.size >= _FACTOR_MIN and not isinstance(_run(ix), slice)
        return cls(None if gathered else kernel.restrict(support), vector, _inverse=inverse)

    def _formed_Q(self) -> np.ndarray:
        """``Q``: the matrix held, or ``K[ix, ix]`` gathered anew and frozen, as ``restrict`` gives it."""
        if self._matrix is not None:
            return self._matrix
        ix = self.inverse.where
        Q = self.inverse.K[np.ix_(ix, ix)]
        Q.setflags(write=False)
        return Q

    @property
    def size(self) -> int:
        return int(self.inverse.where.size if self._matrix is None else self._matrix.shape[0])

    def _diagonal(self) -> np.ndarray:
        """The diagonal of ``Q``, which a problem holding no ``Q`` reads off ``K``."""
        if self._matrix is not None:
            return np.diagonal(self._matrix)
        return np.diagonal(self.inverse.K)[self.inverse.where]

    def _potential(self, w: np.ndarray) -> np.ndarray:
        """``K @ w`` over the kernel's nodes, for weights ``w`` on the support.

        For the very read-only array the last solve returned, that is the
        product the solve formed for its final gradient, handed over once;
        any other ``w`` gets a product of its own.
        """
        product = self._product
        object.__setattr__(self, "_product", None)
        if product is not None and product[0] is w:
            return product[1]
        return _kernel_product(self.inverse, w)


# Set after the class: a property in its body would be taken for the default
# of the constructor's argument Q.
_QpProblem.Q = property(_QpProblem._formed_Q, doc="The problem's matrix, read-only.")


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
    An iterate that overflows gets an inf or NaN residual, never a warning:
    the tol gate fails it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        stationarity = float(np.maximum(0.0, -eta.min()))
        complementarity = float(np.max(np.abs(w * eta)))
        feasibility = float(np.maximum(0.0, -w.min()))
        if mass:
            feasibility = float(np.maximum(abs(float(w.sum()) - 1.0), feasibility))
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


def _run(idx: np.ndarray):
    """``idx`` as a slice when its strictly increasing indices are one contiguous run.

    Indexing with the slice reads or writes the same entries as with
    ``idx``, without the cost of a fancy-index gather or scatter.
    """
    if idx.size and int(idx[-1]) - int(idx[0]) + 1 == idx.size:
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


def _gathered(A: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """A writable copy of the principal block ``A[idx, idx]``, sliced when ``idx`` is one run."""
    run = _run(idx)
    return np.array(A[run, run]) if isinstance(run, slice) else A[np.ix_(idx, idx)]


# Free sets, and kernel supports, of at least this many indices are large.
# A large step that the kernel's inverse serves at fewer flops than a fresh
# solve keeps the inverse's factor of G_DD for the rest of the QP unless D
# is few; and a problem on a large support that is not one run gathers no Q,
# so a large solve holds, beside the kernel, its largest block (a fresh Q_FF,
# factored in place, or a factor of about |D|^2 / 2 floats) and never a copy
# of Q.  Below it every step is a fresh solve or a Schur step on gathered
# rows of G, whose arithmetic does not depend on the path to a free set, so
# the many small problems of a scan keep it bit for bit and a warm-started
# scan cell equals a cold solve.  On a 2-core OpenBLAS host, at 400 indices
# a fresh Cholesky solve costs 1.5 to 2.0 ms (one or two columns) and a
# later Schur step 0.07 ms; below it a step costs at most about 2 ms.
_FACTOR_MIN = 400


class _GatheredRest:
    """The rest D of a small step, or a few D: its rows ``G[D]``, gathered, and a fresh solve of ``G_DD``."""

    def __init__(self, inverse: _Inverse, rest: np.ndarray):
        self.order = rest
        self.GD = inverse.G[rest]

    def solve(self, y_D: np.ndarray) -> np.ndarray:
        return _spd_solve(self.GD[:, self.order], y_D)

    def product(self, s: np.ndarray) -> np.ndarray:
        return self.GD.T @ s


class _Factor:
    """The rest D of the kernel's nodes, kept with a factor of ``G_DD`` for the rest of a QP.

    ``order`` holds D's positions in U in insertion order, and ``blocks`` the
    inverse-Cholesky factor R of ``G_DD`` (``G_DD^-1 = R^T R``, R lower
    triangular) as block rows ``(start, B)``: B holds the rows of R for
    ``order[start:start + len(B)]``, over the columns of every index up to
    its last.  A step keeps the longest prefix of ``order`` that is still in
    its D, whose factor is the leading block of R, and borders the indices
    it adds by one step of the blocked inverse-Cholesky recursion: with
    ``A21``, ``A22`` their rows of G at the prefix and at themselves,
    ``W = A21 R11^T``, ``R22`` the inverse factor of ``S = A22 - W W^T``
    (:func:`~finpot.core._spd_inverse_factor`) and ``R21 = -R22 W R11``.  A
    block row is allocated once, and a prefix that ends inside it keeps a
    view of it.  No rows of G are kept.  A factor serves only a D that is
    not few, so ``G[:, D] s`` is one pass over G.

    Memory: the block rows hold about ``|D|^2 / 2`` floats (a cut keeps the
    rows it views alive), and a step's transient is its new block row.
    """

    def __init__(self, inverse: _Inverse):
        self.inverse = inverse
        self.order = np.empty(0, dtype=np.intp)
        self.blocks: list[tuple[int, np.ndarray]] = []

    def plan(self, rest: np.ndarray) -> tuple[int, np.ndarray]:
        """The length of the prefix of ``order`` inside the mask ``rest``, and the rest after it."""
        out = ~rest[self.order]
        t = int(out.argmax()) if out.any() else self.order.size
        new = rest.copy()
        new[self.order[:t]] = False
        return t, np.flatnonzero(new)

    def flops(self, t: int, n: int, p: int) -> int:
        """Flops of a step that keeps ``t`` indices, borders ``n`` and solves ``p`` columns."""
        d, size = t + n, self.inverse.G.shape[0]
        return 2 * n * t * t + 4 * n * n * t + 2 * n**3 // 3 + 2 * p * (d * d + size * size)

    def update(self, t: int, new: np.ndarray) -> None:
        """Cut D to its first ``t`` indices and border ``new``.

        The new block row is formed in its own storage: ``[A21, A22]``,
        gathered from G in one go, then ``[W, S]``, then ``[R21, R22]``.
        """
        self.blocks = [(s, B if s + len(B) <= t else B[:t - s, :t]) for s, B in self.blocks if s < t]
        self.order = np.concatenate((self.order[:t], new))
        if not new.size:
            return
        B = self.inverse.G[np.ix_(new, self.order)]
        W, R22 = B[:, :t], B[:, t:]
        if t:
            for s, Bj in reversed(self.blocks):  # W = A21 R11^T, in place
                W[:, s:s + len(Bj)] = W[:, :s + len(Bj)] @ Bj.T
            R22 -= W @ W.T
        _spd_inverse_factor(R22)
        if t:
            X = R22 @ W
            W[...] = 0.0
            for s, Bj in self.blocks:  # R21 = -(R22 W) R11
                W[:, :s + len(Bj)] -= X[:, s:s + len(Bj)] @ Bj
        # rows of _BLOCK, so a product with R skips most of the zero triangle
        self.blocks += [(t + i, B[i:i + _BLOCK, :t + i + _BLOCK]) for i in range(0, new.size, _BLOCK)]

    def solve(self, y_D: np.ndarray) -> np.ndarray:
        """``G_DD^-1 y_D = R^T (R y_D)``."""
        v = np.empty_like(y_D)
        for s, B in self.blocks:
            v[s:s + len(B)] = B @ y_D[:s + len(B)]
        out = np.zeros_like(y_D)
        for s, B in self.blocks:
            out[:s + len(B)] += B.T @ v[s:s + len(B)]
        return out

    def product(self, s: np.ndarray) -> np.ndarray:
        """``G[:, D] s``, in one pass over the symmetric G."""
        G = self.inverse.G
        s_U = np.zeros((G.shape[0], s.shape[1]))
        s_U[self.order] = s
        return (s_U.T @ G).T  # runs faster than G @ s_U


def _solve_flops(n: int, p: int) -> int:
    """Flops of a fresh Cholesky solve of ``n`` unknowns with ``p`` right-hand sides."""
    return n**3 // 3 + 2 * p * n * n


class _FreeSetSolver:
    """Solves ``Q_FF x = r_F`` for the successive free sets F of one QP.

    A call takes the free mask and an ``(n, p)`` right-hand side over all
    indices and returns F's indices, the ``(|F|, p)`` solution and, for a
    step on the kernel's inverse, the products ``Q z`` of the columns'
    solutions ``z`` (x on F, zero off it) over all indices (else ``None``).
    The solver holds ``Q``, or ``None`` for a problem on a large gathered
    support, whose fresh solves gather ``Q_FF`` from the kernel and whose
    dual is ``K @ w`` at Q's indices (:meth:`times`).  When the problem
    brings the kernel's inverse ``G = K_UU^-1`` (U = the kernel's nodes,
    which hold all of Q's indices as a principal submatrix) with its row
    sums, the solver keeps it for the whole QP.  Every F is solved from G by
    the principal-submatrix inverse identity ``(K_FF)^-1 = G_FF - G_FD
    G_DD^-1 G_DF`` on the rest ``D = U \\ F`` (Golub & Van Loan, block
    inverse by Schur complements; Bartlett & Biegler, QPSchur, 2006): a
    column, extended over D by any ``r_D``, gives ``v = G r``, ``s =
    G_DD^-1 v_D`` and ``x = v_F - G_FD s``, whose ``r_D`` terms cancel;
    then ``K z`` is ``r`` on F and ``r_D - s`` on D, so ``Q z`` is ``r``
    on F and ``r_D - s`` on the rest of Q's indices.

    Whether the inverse serves F depends on F's size.  Below
    ``_FACTOR_MIN`` indices it serves F when ``2|D| <= |F|``, so a small
    step's arithmetic does not depend on the path to its free set; it
    gathers ``G[D]`` and solves ``G_DD`` afresh (:class:`_GatheredRest`).
    At or above it the Schur step is costed in flops: a D that is few
    (``_ROWS_SHARE |D| <= |U|``, as in :func:`_apply`) is solved afresh in
    the same way, at the flops of a fresh solve of D and a pass over its
    rows, and any other D from the inverse's :class:`_Factor`, kept for the
    rest of the QP, at the flops of bordering it; the inverse serves F if
    that costs no more than solving ``Q_FF`` afresh, ``|F|^3 / 3 + 2 p
    |F|^2`` flops.  A step that it does not serve is one fresh solve of
    ``Q_FF`` (:func:`~finpot.core._spd_solve`: LU on a small block, else a
    Cholesky factorization in the gathered copy itself, which is the only
    copy).  No inverse of a free set is built: at ``|F|^3`` flops it costs
    three fresh solves, and the later free sets of a QP seldom lie inside
    an earlier one.

    Pass budget of a Schur step: the rows of G it gathers (those of a few
    D, or the block a factor borders), one pass over G for ``G[:, D] s``
    when D is not few, and a product with G only for a column that none of
    the extension rules serves.  Each column is extended so that ``v`` is
    known: a column of ones by ones (``v`` is the row sums ``G @ 1``), a
    column equal on F to the potential ``K omega`` of the kernel inverse's
    charge by ``(K omega)_D`` (``v = omega``), and any other column by
    zeros (``v`` is 0 for a zero column, else ``G @ r``).
    """

    def __init__(self, Q: np.ndarray | None, kept: _Inverse | None = None):
        self.Q = Q
        self.kept = kept
        self.factor = None

    def __call__(self, free: np.ndarray, r: np.ndarray):
        idx = np.flatnonzero(free)
        step = self._schur_step(idx, r.shape[1])
        if step is None:
            return idx, _spd_solve(self._block(idx), r[_run(idx)]), None
        at, rest = step
        inverse = self.kept
        G, charge = inverse.G, inverse.charge
        r_F = r[_run(idx)]
        y = np.empty((G.shape[0], r.shape[1]))
        r_D = np.zeros((rest.order.size, r.shape[1]))
        for j, col in enumerate(r_F.T):
            if (col == 1.0).all():
                y[:, j], r_D[:, j] = inverse.row_sums, 1.0
            elif not col.any():
                y[:, j] = 0.0
            elif charge is not None and np.array_equal(col, charge[1][_run(at)]):
                y[:, j], r_D[:, j] = charge[0], charge[1][rest.order]
            else:
                rt = np.zeros(G.shape[0])
                rt[at] = col
                y[:, j] = G @ rt
        s = rest.solve(y[rest.order])
        y -= rest.product(s)
        Kz = np.empty_like(y)
        Kz[_run(at)] = r_F
        Kz[rest.order] = r_D - s
        return idx, y[_run(at)], Kz[_run(inverse.where)]

    def _block(self, idx: np.ndarray) -> np.ndarray:
        """A writable copy of ``Q_FF``, gathered from the kernel when the solver holds no Q."""
        if self.Q is None:
            return _gathered(self.kept.K, self.kept.where[idx])
        return _gathered(self.Q, idx)

    def times(self, w: np.ndarray) -> np.ndarray:
        """``Q @ w``; without Q, ``K @ w`` over the kernel's nodes at Q's indices."""
        if self.Q is not None:
            return self.Q @ w
        return _kernel_product(self.kept, w)[self.kept.where]

    def _schur_step(self, idx: np.ndarray, p: int):
        """``(at, rest)`` for a Schur step on F, or ``None`` when the kernel's inverse does not serve F.

        ``at`` holds F's positions in G and ``rest`` its rest D: a
        :class:`_GatheredRest` for a small step or a few D, else the
        inverse's :class:`_Factor`, updated to D.
        """
        inverse = self.kept
        if inverse is None:
            return None
        at = inverse.where[idx]
        rest = np.ones(inverse.G.shape[0], dtype=bool)
        rest[_run(at)] = False
        size, k = rest.size, idx.size
        d = size - k
        if k < _FACTOR_MIN:
            return (at, _GatheredRest(inverse, np.flatnonzero(rest))) if 2 * d <= k else None
        fresh = _solve_flops(k, p)
        if _ROWS_SHARE * d <= size:  # D is few: its rows cost a fraction of a pass, as in _apply
            if _solve_flops(d, p) + 2 * (p + 2) * d * size > fresh:
                return None
            return at, _GatheredRest(inverse, np.flatnonzero(rest))
        factor = self.factor or _Factor(inverse)
        t, new = factor.plan(rest)
        if factor.flops(t, new.size, p) > fresh:
            return None
        factor.update(t, new)
        self.factor = factor
        return at, factor


def _pivot_step(solve: _FreeSetSolver, b: np.ndarray, r: np.ndarray, free: np.ndarray):
    """One reduced solve on the free set; returns ``(w, y, c)`` for :func:`_block_pivot`.

    ``r`` is ``b`` as one column, or ``[b, 1]`` when the mass column of the
    simplex rides along: one solve then serves both right-hand sides of
    ``Q_FF [x0, x1] = [b_F, 1]``, the mass constraint fixes
    ``c = (1 - sum x0) / sum x1`` (the denominator is positive because
    ``Q_FF`` is positive definite) and ``w_F = x0 + c x1``.  The dual is
    ``y = Q w - b - c``, with ``c`` absent for the cone; ``Q w`` is
    ``Qz @ [1, c]`` when the step brings the products ``Qz`` (whose rows off
    F are ``r_D - S``, from its Schur solve), else one product with ``Q``
    (:meth:`_FreeSetSolver.times`).
    """
    idx, x, Qz = solve(free, r)
    w = np.zeros(b.size)
    if r.shape[1] == 1:
        w[idx] = x[:, 0]
        return w, (solve.times(w) if Qz is None else Qz[:, 0]) - b, None
    c = (1.0 - float(x[:, 0].sum())) / float(x[:, 1].sum())
    w[idx] = x[:, 0] + c * x[:, 1]
    return w, (solve.times(w) if Qz is None else Qz[:, 0] + c * Qz[:, 1]) - b - c, c


def _solve(p, b: np.ndarray, tol: float, free: np.ndarray, dual_eps: float, mass: bool):
    """Minimize ``w @ Q @ w - 2 b @ w`` over ``w >= 0`` (and ``sum(w) = 1`` with ``mass``).

    Runs :func:`_block_pivot` from ``free`` and gates the accepted iterate's
    residuals on ``tol``; raises :class:`MaxIterExceeded` unless each is at
    most ``tol`` (so an inf or NaN one fails).  The residuals are those of a
    fresh gradient: on a kernel, ``K @ w`` over its nodes (one
    :func:`~finpot.core._apply`), which the problem keeps for the returned,
    read-only ``w``; on a bare matrix, the last step's ``Q @ w``.
    """
    r = np.column_stack((b, np.ones(b.size))) if mass else b[:, None]
    inverse = p.inverse
    solve = _FreeSetSolver(p._matrix, inverse)
    w, y, c, solves = _block_pivot(lambda F: _pivot_step(solve, b, r, F), free, dual_eps)
    if inverse is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            Kw = _kernel_product(inverse, w)
            y = Kw[inverse.where] - b if c is None else Kw[inverse.where] - b - c
    # y = Q w - b - c, so 2y is g - 2c exactly: doubling commutes with rounding
    residuals = _residuals(w, 2.0 * y, mass)
    report = KktReport(*residuals, c, solves)
    worst = float(np.max(residuals))
    if not worst <= tol:
        kind = "simplex" if mass else "cone"
        raise MaxIterExceeded(f"{kind} solver residuals {worst:.3e} exceed tol {tol:.3e}", w, report)
    w.setflags(write=False)
    if inverse is not None:
        object.__setattr__(p, "_product", (w, Kw))
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
    f = p.f
    if p.size == 1:
        # the reduced solve would round the weight off exact 1.0
        w = np.array([1.0])
        c = float(p.Q[0, 0] + f[0])
        return w, KktReport(*_residuals(w, p.gradient(w) - 2.0 * c, True), c, 0)

    free = np.ones(p.size, dtype=bool) if w0 is None else np.asarray(w0, dtype=float) > 0.0
    if not free.any():
        free[:] = True
    # max |Q_ij| sits on the diagonal of an SPD Q (|Q_ij| < sqrt(Q_ii Q_jj)): no k x k temporary
    dual_eps = 1e-12 * max(1.0, float(np.max(np.abs(f))), float(np.max(p._diagonal())))
    return _solve(p, -f, tol, free, dual_eps, mass=True)


def _bordered_simplex_solve(Q, f, mask):
    """The simplex step through the bordered KKT matrix, kept for the oracle."""
    idx = np.flatnonzero(mask)
    s = idx.size
    M = np.zeros((s + 1, s + 1))
    M[:s, :s] = Q[np.ix_(idx, idx)]
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
