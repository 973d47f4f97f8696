"""Finite-node potential theory: kernels, signed measures, potentials, energies.

The node universe is a finite set of sites indexed ``0..m-1`` carrying the
discrete topology.  Under a strictly positive definite kernel every nonempty
subset has positive capacity, so "at every node of the set" is the correct
reading of the classical "nearly everywhere" clauses, and energy-norm
convergence is the only convergence notion in play: on a finite universe
componentwise and strong convergence coincide, so the weaker (vague) mode
adds nothing and is not modelled.

Default tolerances: ``ARITHMETIC_TOL`` (1e-10) for exact arithmetic
identities, ``SOLVER_TOL`` (1e-8) for KKT residuals of the minimizers built
on top of this module.  Every operation takes explicit tolerance arguments;
these constants are only the documented defaults.

The report format lives here too: every result of the package is a frozen
:class:`Record` dataclass whose JSON form is its fields by name, and
:func:`dumps_canonical` writes every report.
"""

from __future__ import annotations

import ctypes
import json
import math
from dataclasses import dataclass, field, fields
from typing import Iterable

import numpy as np

ARITHMETIC_TOL = 1e-10
SOLVER_TOL = 1e-8


class SizeMismatchError(ValueError):
    """Operand length disagrees with the kernel's node universe."""


class NotPositiveDefinite(ValueError):
    """The matrix violates the energy principle.

    Carries a ``witness`` vector w with ``w @ K @ w <= 0`` whenever one was
    computed.
    """

    def __init__(self, message: str, witness: np.ndarray | None = None):
        super().__init__(message)
        self.witness = witness


class NotNested(ValueError):
    """A chain of support sets is not strictly nested."""


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


@dataclass(frozen=True)
class PdCertificate:
    """Evidence that a symmetric matrix ``A = L L^T`` is strictly positive definite.

    The evidence is the completed factorization: ``min_cholesky_pivot`` is
    the smallest diagonal entry of ``L``, read off the factor before it is
    turned into the inverse ``A^-1`` in its own storage (see
    :func:`_spd_inverse`), and ``inverse`` holds that read-only, exactly
    symmetric matrix.  Every principal submatrix of ``A`` can be solved
    from it (see :class:`finpot.qp._FreeSetSolver`).  ``eig_lower_bound``, the reciprocal
    of the inverse's largest absolute row sum ``||A^-1||_inf >= ||A^-1||_2``,
    bounds the smallest eigenvalue of ``A`` from below at O(m^2) cost.  The
    same pass over the inverse, one row panel at a time, forms its plain row
    sums ``A^-1 @ 1`` (``inverse_row_sums``, read-only), from which a solve
    takes the mass column of the simplex without another pass.
    """

    min_cholesky_pivot: float
    eig_lower_bound: float
    inverse: np.ndarray | None = field(default=None, repr=False, compare=False)
    inverse_row_sums: np.ndarray | None = field(default=None, repr=False, compare=False)


def _not_pd(entries: np.ndarray, reason: str) -> NotPositiveDefinite:
    """The failure, witnessed by the smallest eigenvector if its quadratic form is not positive."""
    w = np.array(np.linalg.eigh(entries)[1][:, 0])
    return NotPositiveDefinite(reason, witness=w if float(w @ entries @ w) <= 0.0 else None)


# ---------------------------------------------------------------------------
# SPD factorization: every Cholesky factorization of the package, and every
# solve with or inverse of a positive definite block, runs in this section.
# The three entry points are _spd_solve, _spd_inverse and _spd_inverse_factor.
# They call LAPACK's potrf, potrs, potri and trtri in the OpenBLAS that numpy
# ships (_bind_lapack), and numpy's own routines where that library is absent.
# Only the exhaustive oracles of qp solve with np.linalg elsewhere: they are
# the independent reference.
# ---------------------------------------------------------------------------

# Leaf size of the inverse-Cholesky recursion, and the block width of its
# in-place products (bounds their temporaries).
_LEAF = 96
_BLOCK = 128
# An SPD system of fewer unknowns is an LU solve (np.linalg.solve).  On a
# 2-core OpenBLAS host, for one or two right-hand sides on blocks of a
# Newtonian sphere kernel, LU takes 25 us at 48 unknowns against 28 us for a
# LAPACK Cholesky solve through ctypes, the two tie near 37 us at 64, and the
# Cholesky solve wins from there on (68 against 83 us at 96, 0.55 against
# 0.76 ms at 250, 1.5 against 2.4 ms at 400).
_CHOLESKY_MIN = 64

_INT = ctypes.POINTER(ctypes.c_int64)
_PTR, _CHAR, _LEN = ctypes.c_void_p, ctypes.c_char_p, ctypes.c_size_t
# Fortran signatures with 64-bit integers; a character argument is followed
# by its hidden length at the end of the list.
_SIGNATURES = {
    "dpotrf": (_CHAR, _INT, _PTR, _INT, _INT, _LEN),
    "dpotrs": (_CHAR, _INT, _INT, _PTR, _INT, _PTR, _INT, _INT, _LEN),
    "dpotri": (_CHAR, _INT, _PTR, _INT, _INT, _LEN),
    "dtrtri": (_CHAR, _CHAR, _INT, _PTR, _INT, _INT, _LEN, _LEN),
}


def _bind_lapack() -> dict | None:
    """The routines of ``_SIGNATURES`` in numpy's ILP64 scipy-openblas, or ``None``.

    numpy's wheels link that library, which exports them as
    ``scipy_dpotrf_64_`` and so on.  They are looked up through numpy's
    linear-algebra extension, whose dependencies include the library, so
    nothing new is loaded.  Builds on another LAPACK (Accelerate, MKL, a
    system library) export other names and get ``None``.
    """
    try:
        from numpy.linalg import _umath_linalg

        lib = ctypes.CDLL(_umath_linalg.__file__)
        routines = {name: getattr(lib, f"scipy_{name}_64_") for name in _SIGNATURES}
    except (ImportError, OSError, AttributeError):
        return None
    for name, routine in routines.items():
        routine.argtypes, routine.restype = _SIGNATURES[name], None
    return routines


def _lapack(name: str, A: np.ndarray, B: np.ndarray | None = None) -> None:
    """Call LAPACK's ``name`` on the square block ``A`` in place (``dpotrs``: on ``B``).

    A row-major matrix is the transpose of the column-major one LAPACK sees
    at the same address, so the lower triangle here is LAPACK's upper one
    (``uplo = 'U'``), and a block of a wider matrix is passed with its row
    stride as the leading dimension.  ``B`` is a column-major ``(n, p)``
    array.  Raises ``np.linalg.LinAlgError`` when LAPACK reports a pivot
    that is not positive.
    """
    n = A.shape[0]
    if not (A.dtype == np.float64 and A.ndim == 2 and A.shape[1] == n and A.flags.writeable
            and A.strides[1] == 8 and A.strides[0] % 8 == 0 and A.strides[0] >= 8 * n):
        raise ValueError("expected a writable square float64 block with contiguous rows")
    if B is not None and not (B.dtype == np.float64 and B.ndim == 2 and B.shape[0] == n
                              and B.flags.f_contiguous and B.flags.writeable):
        raise ValueError("expected a writable column-major float64 right-hand side")
    info = ctypes.c_int64()
    size, lda = ctypes.c_int64(n), ctypes.c_int64(max(A.strides[0] // 8, 1))
    routine = _LAPACK[name]
    if B is not None:
        routine(b"U", size, ctypes.c_int64(B.shape[1]), A.ctypes.data, lda, B.ctypes.data, size, info, 1)
    elif name == "dtrtri":
        routine(b"U", b"N", size, A.ctypes.data, lda, info, 1, 1)
    else:
        routine(b"U", size, A.ctypes.data, lda, info, 1)
    if info.value > 0:
        raise np.linalg.LinAlgError(f"{name}: matrix is not positive definite")
    if info.value < 0:
        raise ValueError(f"{name}: argument {-info.value} is invalid")


def _spd_solve(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``A^-1 B`` for the SPD ``A``, which may be overwritten: a scratch copy.

    Below ``_CHOLESKY_MIN`` unknowns this is numpy's LU solve.  From there on
    ``A`` is factored in place and ``B`` solved in one copy of its own
    (LAPACK's potrf and potrs; without LAPACK, ``R^T (R B)`` with the inverse
    factor ``R`` of :func:`_inverse_cholesky`), so a large solve holds no
    second copy of ``A``.  Raises ``np.linalg.LinAlgError`` if ``A`` is not
    positive definite.
    """
    n = A.shape[0]
    if n < _CHOLESKY_MIN:
        return np.linalg.solve(A, B)
    if A.flags.f_contiguous:  # as a column gather gives it; the symmetric A is its transpose
        A = A.T
    if _LAPACK is None:
        R = _inverse_cholesky(A)
        return R.T @ (R @ B)
    _lapack("dpotrf", A)
    X = np.array(B.reshape(n, -1), dtype=float, order="F")
    _lapack("dpotrs", A, X)
    return X.reshape(B.shape)


def _spd_inverse(A: np.ndarray) -> float:
    """Overwrite the SPD ``A`` with ``A^-1``, exactly symmetric; return the smallest Cholesky pivot.

    With ``A = L L^T``, the pivot is ``min diag L`` (LAPACK's potrf, then
    potri and :func:`_mirror_lower`); without LAPACK it is ``1 / max diag
    R`` of the inverse factor ``R = L^-1`` (:func:`_inverse_cholesky`, then
    :func:`_factor_to_inverse`).  Only the lower triangle of ``A`` is read.
    Raises ``np.linalg.LinAlgError`` if ``A`` is not positive definite.
    """
    if _LAPACK is None:
        _inverse_cholesky(A)
        pivot = 1.0 / float(np.max(np.diagonal(A)))
        _factor_to_inverse(A)
        return pivot
    _lapack("dpotrf", A)
    pivot = float(np.min(np.diagonal(A)))
    _lapack("dpotri", A)
    _mirror_lower(A)
    return pivot


def _spd_inverse_factor(A: np.ndarray) -> np.ndarray:
    """Overwrite the SPD ``A`` with ``R = L^-1``, where ``A = L L^T``, and return it.

    So ``A^-1 = R^T R``; the strict upper triangle of the result is exactly
    zero, and only the lower triangle of ``A`` is read.  LAPACK's potrf and
    trtri, or :func:`_inverse_cholesky` without them.  ``A`` may be a block
    of a wider matrix whose rows are contiguous.  Raises
    ``np.linalg.LinAlgError`` if ``A`` is not positive definite.
    """
    if _LAPACK is None:
        return _inverse_cholesky(A)
    _lapack("dpotrf", A)
    _lapack("dtrtri", A)
    _mirror_lower(A, zero=True)
    return A


def _inverse_cholesky(A: np.ndarray) -> np.ndarray:
    """Overwrite the SPD ``A`` with ``R = L^-1``, where ``A = L L^T``, in numpy alone.

    So ``A^-1 = R^T R``; the strict upper triangle of the result is exactly
    zero, and only the lower triangle of ``A`` is read.  The recursion on
    halves does nearly all its flops in matrix products: with ``R11`` from
    the leading block, ``W = A21 R11^T`` is L's off-diagonal block, the
    trailing block becomes its Schur complement ``A22 - W W^T`` (lower
    triangle only), and ``R21 = -R22 W R11``.  Each product runs in blocks
    of ``_BLOCK`` columns or rows, ordered so that it can overwrite ``A21``
    in place and skip the zero triangles, so beside ``A`` it holds only one
    block.  Raises ``np.linalg.LinAlgError`` if ``A`` is not positive
    definite.
    """
    k = A.shape[0]
    if k <= _LEAF:
        A[...] = np.tril(np.linalg.inv(np.linalg.cholesky(A)))
        return A
    h, n = k // 2, _BLOCK
    R11, A21, A22 = A[:h, :h], A[h:, :h], A[h:, h:]
    _inverse_cholesky(R11)
    for j in reversed(range(0, h, n)):
        A21[:, j:j + n] = A21[:, :j + n] @ R11[j:j + n, :j + n].T
    for j in range(0, k - h, n):
        A22[j:, j:j + n] -= A21[j:] @ A21[j:j + n].T
    _inverse_cholesky(A22)
    for j in range(0, h, n):
        A21[:, j:j + n] = A21[:, j:] @ R11[j:, j:j + n]
    for i in reversed(range(0, k - h, n)):
        np.negative(A22[i:i + n, :i + n] @ A21[:i + n], out=A21[i:i + n])
    A[:h, h:] = 0.0
    return A


def _mirror_lower(A: np.ndarray, zero: bool = False) -> None:
    """Copy the strict lower triangle of the square ``A`` onto its upper one, or zero that.

    The off-diagonal quarter is set by one (transposed) assignment, which
    needs no temporary, and the two diagonal quarters recurse down to blocks
    of at most 128 rows, formed directly, so the only temporaries are at
    most three 128×128 blocks.
    """
    k = A.shape[0]
    if k <= 128:
        A[...] = np.tril(A) if zero else np.tril(A) + np.tril(A, -1).T
        return
    h = k // 2
    A[:h, h:] = 0.0 if zero else A[h:, :h].T
    _mirror_lower(A[:h, :h], zero)
    _mirror_lower(A[h:, h:], zero)


def _factor_to_inverse(R: np.ndarray) -> np.ndarray:
    """Overwrite the lower triangular ``R`` with ``R^T R``, exactly symmetric.

    For ``R = L^-1`` that is ``A^-1``.  Row panel ``I`` of the lower
    triangle is ``R[i:, I]^T R[i:, :e]``, which reads only rows at or below
    the panel, so the panels are formed top to bottom in place (LAPACK's
    ``lauum``), each through one temporary of at most ``_BLOCK`` rows.  A
    matrix product does not promise equal mirror entries, so the upper
    triangle is then copied from the lower one (:func:`_mirror_lower`).
    """
    k, n = R.shape[0], _BLOCK
    for i in range(0, k, n):
        e = min(i + n, k)
        R[i:e, :e] = R[i:, i:e].T @ R[i:, :e]
    _mirror_lower(R)
    return R


def _lapack_agrees() -> bool:
    """Whether the bound routines factor, solve and invert a fixed SPD matrix exactly.

    The matrix is ``A = L L^T`` for the unit lower bidiagonal ``L`` with ones
    below the diagonal, whose inverse ``R`` has the entries ``(-1)^(i-j)``
    on and below the diagonal: every result is an exact small integer, so
    it is compared for equality with no other solver.  ``A`` is held as a
    block of a wider array, so the leading dimension is exercised too, and
    the triangle that LAPACK must not touch is checked as well.
    """
    n = 5
    i, j = np.indices((n, n))
    L = np.eye(n) + np.eye(n, k=-1)
    R = np.where(i >= j, (-1.0) ** (i - j), 0.0)
    A = np.eye(n) * 2.0 + np.eye(n, k=1) + np.eye(n, k=-1)
    A[0, 0] = 1.0
    G = np.einsum("ki,kj->ij", R, R)  # A^-1 = R^T R, with no BLAS call
    b = np.arange(1.0, n + 1.0)
    buffer = np.full((n, n + 3), 7.0)
    block = buffer[:, 2:n + 2]

    def fresh():
        block[...] = A
        return block

    try:
        pivot = _spd_inverse(fresh())
        inverse = np.array(block)
        factor = np.array(_spd_inverse_factor(fresh()))
        _lapack("dpotrf", fresh())
        upper = np.array(block)
        x = np.array(b[:, None], order="F")
        _lapack("dpotrs", block, x)
    except (np.linalg.LinAlgError, ValueError):
        return False
    return (
        pivot == 1.0 and np.array_equal(inverse, G) and np.array_equal(factor, R)
        and np.array_equal(np.tril(upper), L) and np.array_equal(np.triu(upper, 1), np.triu(A, 1))
        and np.array_equal(x[:, 0], np.einsum("ij,j->i", G, b)) and (buffer[:, [0, 1, n + 2]] == 7.0).all()
    )


_LAPACK = _bind_lapack()
if _LAPACK is not None and not _lapack_agrees():
    _LAPACK = None


def _linalg_path() -> str:
    """``"lapack"`` when the factorizations above run LAPACK, else ``"numpy"``."""
    return "numpy" if _LAPACK is None else "lapack"


def is_exactly_symmetric(A: np.ndarray) -> bool:
    """``np.array_equal(A, A.T)`` for a square ``A``, one row panel at a time.

    Panel ``I`` compares ``A[I, :e]`` with ``A[:e, I]^T``, so every entry is
    compared with its mirror and a NaN anywhere fails, as in
    ``array_equal``.  Each comparison reads two panels, which stay in cache,
    where a strided pass over the whole transposed matrix does not.
    """
    k, n = A.shape[0], _BLOCK
    return all(
        np.array_equal(A[i:i + n, :i + n], A[:i + n, i:i + n].T) for i in range(0, k, n)
    )


def check_energy_principle(entries: np.ndarray) -> PdCertificate:
    """Verify strict positive definiteness by symmetric factorization.

    Turns one copy of the matrix into its inverse in place
    (:func:`_spd_inverse`), which also gives the smallest Cholesky pivot.
    The inverse's absolute row sums, taken in panels of ``_BLOCK`` rows,
    give the eigenvalue bound; the plain row sums come from the same
    panels.  A completed factorization proves only that ``A + E`` is
    positive definite for a backward error ``||E||_2 <= gamma_{m+1} m max
    diag A``, with ``gamma_n = n u / (1 - n u)`` (Higham, *Accuracy and
    Stability of Numerical Algorithms*, ch. 10), so a bound within that
    margin fails too.  Raises :class:`NotPositiveDefinite` on failure, with
    a witness of nonpositive quadratic form if the smallest eigenvector is
    one.  A failing matrix is rejected, never shifted: it would be another
    kernel.
    """
    arr = np.asarray(entries, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise ValueError("expected a nonempty square matrix")
    if not is_exactly_symmetric(arr):
        raise ValueError("matrix must be symmetric")
    inverse = np.array(arr)
    m, n, u = arr.shape[0], _BLOCK, np.finfo(float).eps / 2
    row_sums, abs_row_sums = np.empty(m), []
    with np.errstate(over="ignore", invalid="ignore"):  # the bound test below rejects inf and NaN
        try:
            pivot = _spd_inverse(inverse)
        except np.linalg.LinAlgError:
            raise _not_pd(
                arr, "symmetric factorization failed: matrix is not strictly positive definite"
            ) from None
        for i in range(0, m, n):
            panel = inverse[i:i + n]
            row_sums[i:i + n] = panel.sum(axis=1)
            abs_row_sums.append(np.abs(panel).sum(axis=1).max())
        bound = 1.0 / np.max(abs_row_sums)
    margin = (m + 1) * u / (1.0 - (m + 1) * u) * m * float(np.max(np.diagonal(arr)))
    if not bound > margin:
        raise _not_pd(arr, f"eigenvalue bound {bound:.6e} is within the backward error {margin:.6e}")
    inverse.setflags(write=False)
    row_sums.setflags(write=False)
    return PdCertificate(
        min_cholesky_pivot=pivot, eig_lower_bound=float(bound), inverse=inverse, inverse_row_sums=row_sums,
    )


def frozen_float_array(data) -> np.ndarray:
    """Read-only float64 array holding ``data``, copying only when it must.

    An array that is already read-only float64, over memory that no writable
    array can reach (every array it views is read-only as well), is adopted
    as it is; anything else is copied and the copy frozen.  So a caller's
    writable buffer is never shared, and a frozen one is never duplicated.
    """
    view = data
    while isinstance(view, np.ndarray) and not view.flags.writeable:
        if view.base is None:
            if data.dtype == np.float64:
                return data
            break
        view = view.base
    arr = np.array(data, dtype=float)
    arr.setflags(write=False)
    return arr


# ---------------------------------------------------------------------------
# typed JSON readers: every config value is read by one of these, once, and
# anything else raises ConfigError.  Numbers are finite JSON numbers (never a
# bool or a string); counts, indices and sizes are exact JSON integers; flags
# are JSON booleans.
# ---------------------------------------------------------------------------


def _is_number_type(kind: type) -> bool:
    return issubclass(kind, (int, float)) and not issubclass(kind, bool)


def read_number(value, name: str, at_least: float | None = None, *,
                positive: bool = False, text: bool = False) -> float:
    """A finite number, optionally positive or at least ``at_least``, as a float.

    ``text=True`` also reads a string, as a command-line flag gives one.
    """
    if not (_is_number_type(type(value)) or text and isinstance(value, str)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        x = float(value)
    except ValueError:
        raise ConfigError(f"{name} must be a number, got {value!r}") from None
    except OverflowError:  # an integer beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    if positive and not x > 0.0:
        raise ConfigError(f"{name} must be positive, got {value!r}")
    if at_least is not None and x < at_least:
        raise ConfigError(f"{name} must be at least {at_least:g}, got {value!r}")
    return x


def read_int(value, name: str, at_least: int = 0) -> int:
    """An exact integer (not a float, not a bool) of at least ``at_least``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < at_least:
        raise ConfigError(f"{name} must be at least {at_least}, got {value!r}")
    return value


def read_flag(value, name: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, got {value!r}")
    return value


def read_str(value, name: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a string, got {value!r}")
    return value


def read_list(value, name: str, what: str, *, empty: bool = False) -> list:
    """A list, nonempty unless ``empty``; ``what`` names its elements in the error."""
    if not isinstance(value, list) or not (value or empty):
        raise ConfigError(f"{name} must be a {'' if empty else 'nonempty '}list of {what}, got {value!r}")
    return value


def read_numbers(value, name: str) -> tuple[float, ...]:
    """A nonempty list of finite numbers as a tuple of floats.

    The element types are checked as one set, so a long list (a kernel row)
    costs no Python call per element.
    """
    read_list(value, name, "numbers")
    if not all(map(_is_number_type, set(map(type, value)))):
        raise ConfigError(f"{name} must be a nonempty list of numbers, got {value!r}")
    try:
        xs = tuple(map(float, value))
    except OverflowError:
        xs = (math.inf,)
    if not all(map(math.isfinite, xs)):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return xs


def read_indices(value, name: str, size: int) -> "SupportSet":
    """A list of distinct node indices (integers below ``size``) as a support set."""
    if not isinstance(value, list) or not all(type(i) is int for i in value):
        raise ConfigError(f"{name} must be a list of integer node indices, got {value!r}")
    try:
        support = SupportSet(value)
    except ValueError as exc:
        raise ConfigError(f"invalid {name}: {exc}") from None
    if support.as_array()[-1] >= size:
        raise ConfigError(f"{name} indices exceed the kernel size {size}")
    return support


class KernelMatrix:
    """Symmetric, entrywise nonnegative, strictly positive definite matrix.

    The constructor validates all invariants (exact symmetry, nonnegative
    entries, energy principle via :func:`check_energy_principle`) and keeps
    the storage frozen (see :func:`frozen_float_array`), so instances are
    immutable and safe to share between threads.  Beside ``entries`` an
    instance holds the certificate's read-only inverse ``K^-1``
    (:attr:`inverse`), one more matrix of the same size, and its row sums
    (:attr:`inverse_row_sums`), which the QP solves on any support use with
    the support's indices into them.
    """

    __slots__ = ("entries", "pd_certificate")

    def __init__(self, entries):
        arr = frozen_float_array(entries)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
            raise ValueError("kernel matrix must be square and nonempty")
        if not np.all(np.isfinite(arr)):
            raise ValueError("kernel entries must be finite; regularize the diagonal first")
        if float(arr.min()) < 0.0:
            raise ValueError("kernel entries must be nonnegative")
        self.pd_certificate = check_energy_principle(arr)  # also checks exact symmetry
        self.entries = arr

    @property
    def size(self) -> int:
        return int(self.entries.shape[0])

    @property
    def inverse(self) -> np.ndarray:
        """Read-only, exactly symmetric ``entries^-1``, kept from the certificate."""
        return self.pd_certificate.inverse

    @property
    def inverse_row_sums(self) -> np.ndarray:
        """Read-only ``inverse @ 1``, formed by the certificate in its pass over the inverse."""
        return self.pd_certificate.inverse_row_sums

    def _indices(self, support: "SupportSet") -> np.ndarray:
        """The support's strictly increasing, frozen indices, range-checked against the nodes."""
        idx = support.as_array()
        if idx[-1] >= self.size:
            raise SizeMismatchError(f"support index {idx[-1]} out of range for {self.size} nodes")
        return idx

    def restrict(self, support: "SupportSet") -> np.ndarray:
        """Principal submatrix on the given support (still strictly PD), read-only.

        A support that is one contiguous index run gets a view of
        ``entries``; any other support gets a frozen gathered copy.
        """
        idx = self._indices(support)
        lo, hi = int(idx[0]), int(idx[-1]) + 1
        if hi - lo == idx.size:
            return self.entries[lo:hi, lo:hi]
        sub = self.entries[np.ix_(idx, idx)]
        sub.setflags(write=False)
        return sub

    def to_json(self) -> dict:
        return {"m": self.size, "entries": self.entries.tolist()}

    @classmethod
    def from_json(cls, obj: dict) -> "KernelMatrix":
        rows = read_list(obj["entries"], "entries", "rows")
        if read_int(obj["m"], "m", 1) != len(rows):
            raise ValueError("declared size does not match the entries")
        return cls([read_numbers(row, "entries") for row in rows])

    @classmethod
    def from_csv(cls, path) -> "KernelMatrix":
        """Load a row-major, header-free CSV matrix, which must be square.

        The matrix is averaged with its transpose before validation so that
        serialization roundoff cannot break the exact-symmetry invariant.
        """
        arr = np.loadtxt(path, delimiter=",", ndmin=2)
        if arr.shape[0] != arr.shape[1]:
            raise ValueError(f"kernel CSV must be a square matrix, got {arr.shape[0]} x {arr.shape[1]}")
        return cls((arr + arr.T) / 2.0)

    def __repr__(self) -> str:
        return f"KernelMatrix(size={self.size})"


class Measure:
    """Signed measure stored as a vector of atom masses over the nodes."""

    __slots__ = ("weights",)

    def __init__(self, weights):
        arr = np.array(weights, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("weights must be a nonempty vector")
        if not np.all(np.isfinite(arr)):
            raise ValueError("weights must be finite")
        arr.setflags(write=False)
        self.weights = arr

    @classmethod
    def zero(cls, m: int) -> "Measure":
        return cls(np.zeros(m))

    @classmethod
    def unit_atom(cls, m: int, index: int, mass: float = 1.0) -> "Measure":
        w = np.zeros(m)
        w[index] = mass
        return cls(w)

    def __len__(self) -> int:
        return int(self.weights.size)

    @property
    def positive_part(self) -> "Measure":
        return Measure(np.maximum(self.weights, 0.0))

    @property
    def mass(self) -> float:
        return float(self.weights.sum())

    def scaled(self, q: float) -> "Measure":
        return Measure(q * self.weights)

    def to_json(self) -> dict:
        return {"m": len(self), "weights": self.weights.tolist()}

    @classmethod
    def from_json(cls, obj: dict) -> "Measure":
        w = read_numbers(obj["weights"], "weights")
        if read_int(obj["m"], "m", 1) != len(w):
            raise ValueError("declared size does not match the weights")
        return cls(w)

    def __repr__(self) -> str:
        return f"Measure(m={len(self)}, mass={self.mass:.6g})"


class SupportSet:
    """Nonempty set of node indices, stored as a frozen strictly increasing array."""

    __slots__ = ("_idx",)

    def __init__(self, indices: Iterable[int]):
        try:
            idx = np.sort(np.fromiter(map(int, indices), dtype=np.intp))
        except OverflowError:
            raise ValueError("support indices exceed the index range") from None
        if not idx.size:
            raise ValueError("support set must be nonempty")
        if idx[0] < 0:
            raise ValueError("support indices must be nonnegative")
        if np.any(idx[1:] == idx[:-1]):
            raise ValueError("support indices must be distinct")
        idx.setflags(write=False)
        self._idx = idx

    @classmethod
    def full(cls, m: int) -> "SupportSet":
        return cls(range(m))

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(self._idx.tolist())

    def __len__(self) -> int:
        return int(self._idx.size)

    def as_array(self) -> np.ndarray:
        return self._idx

    def as_set(self) -> frozenset:
        return frozenset(self._idx.tolist())

    def __repr__(self) -> str:
        return f"SupportSet(k={len(self)})"


def _require_sizes(kernel: KernelMatrix, *measures: Measure) -> None:
    for mu in measures:
        if len(mu) != kernel.size:
            raise SizeMismatchError(
                f"measure has {len(mu)} weights but the kernel has {kernel.size} nodes"
            )


# A kernel of more than this many nodes takes the potential of a charge of
# at most 1/_ROWS_SHARE of its nodes from the rows it charges.  Measured on a
# 2-core OpenBLAS host: at 1608 nodes the rows of 1-64 atoms take 0.02-0.06 ms
# against 0.52 ms for the whole product, which wins from about 250 atoms; at
# 400 nodes the two meet near 128 atoms; at 251 nodes and below the kernel
# sits in cache and the whole product is about as fast.
_ROWS_MIN_SIZE = 256
_ROWS_SHARE = 8


def _apply(K: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``K @ w`` for the symmetric ``K``, reading only the rows ``w`` charges when few.

    A zero ``w`` costs no product.  A ``w`` that charges at most
    1/``_ROWS_SHARE`` of the nodes of a kernel larger than
    ``_ROWS_MIN_SIZE`` is ``w[nz] @ K[nz]``: by symmetry those rows are the
    columns the product needs, read contiguously, so the pass costs
    O(m * atoms) instead of O(m^2).  Either way the result is ``K @ w`` up to
    the order of its roundoff.
    """
    nz = np.flatnonzero(w)
    if not nz.size:
        return np.zeros(w.size)
    if w.size > _ROWS_MIN_SIZE and _ROWS_SHARE * nz.size <= w.size:
        return w[nz] @ K[nz]
    return K @ w


def potential(kernel: KernelMatrix, mu: Measure) -> np.ndarray:
    """Potential of ``mu``: the vector ``K @ weights``, linear in ``mu``.

    Pass budget: none for the zero measure, the rows ``mu`` charges for a
    measure of few atoms on a large kernel, else one pass over ``K`` (see
    :func:`_apply`).  Every energy below goes through it, so an energy and a
    potential of the same measure agree bit for bit.
    """
    _require_sizes(kernel, mu)
    return _apply(kernel.entries, mu.weights)


def mutual_energy(kernel: KernelMatrix, mu: Measure, nu: Measure) -> float:
    """Bilinear form ``mu @ K @ nu``; symmetric, and positive on the diagonal."""
    _require_sizes(kernel, mu, nu)
    return float(mu.weights @ _apply(kernel.entries, nu.weights))


def energy(kernel: KernelMatrix, mu: Measure) -> float:
    """Squared energy norm of ``mu``; zero only for the zero measure."""
    return mutual_energy(kernel, mu, mu)


def energy_distance(kernel: KernelMatrix, mu: Measure, nu: Measure) -> float:
    """Energy-norm distance between two measures."""
    _require_sizes(kernel, mu, nu)
    d = mu.weights - nu.weights
    return float(np.sqrt(max(float(d @ _apply(kernel.entries, d)), 0.0)))


def gauss_functional(kernel: KernelMatrix, omega: Measure, mu: Measure) -> float:
    """Weighted energy of ``mu`` in the field of the charge ``omega``.

    Equals ``energy(mu) - 2 * mutual_energy(mu, omega)``, i.e. the energy of
    ``mu`` plus twice its integral against the field ``-(K @ omega)``.
    """
    _require_sizes(kernel, omega, mu)
    return energy(kernel, mu) - 2.0 * mutual_energy(kernel, mu, omega)


class Record:
    """Base of the frozen result dataclasses: a result's JSON form is its fields.

    :meth:`to_json` maps each field name to its value.  A nested record or
    :class:`Measure` gives its own JSON form, a tuple a list of its encoded
    items, and anything else (a float, int, string, bool or None) is written
    as it is.  A field added to a result is therefore in its report.
    """

    def to_json(self) -> dict:
        return {f.name: _encode(getattr(self, f.name)) for f in fields(self)}


def _encode(value):
    if isinstance(value, (Record, Measure)):
        return value.to_json()
    if isinstance(value, tuple):
        return [_encode(item) for item in value]
    return value


def dumps_canonical(obj) -> str:
    """Deterministic JSON encoding used by all emitted reports."""
    return json.dumps(obj, indent=2, sort_keys=True)
