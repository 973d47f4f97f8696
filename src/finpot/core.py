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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
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


@dataclass(frozen=True)
class PdCertificate:
    """Evidence that a symmetric matrix is strictly positive definite.

    ``min_cholesky_pivot`` is the smallest diagonal entry of the Cholesky
    factor (positive iff the factorization completed).  For small matrices
    the smallest eigenvalue is computed as well and stored in
    ``eig_lower_bound``; for large matrices it is skipped and the completed
    factorization stands as the certificate.
    """

    method: str
    min_cholesky_pivot: float
    eig_lower_bound: float | None = None


def _pd_witness(entries: np.ndarray) -> np.ndarray:
    _, vecs = np.linalg.eigh(entries)
    return np.array(vecs[:, 0])


def check_energy_principle(entries: np.ndarray, eig_check_max_size: int = 400) -> PdCertificate:
    """Verify strict positive definiteness by symmetric factorization.

    Returns a :class:`PdCertificate` on success and raises
    :class:`NotPositiveDefinite` (with a witness vector of nonpositive
    quadratic form) on failure.  A failing matrix is rejected, never shifted:
    a shifted matrix would be a different kernel.
    """
    arr = np.asarray(entries, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise ValueError("expected a nonempty square matrix")
    if not np.array_equal(arr, arr.T):
        raise ValueError("matrix must be symmetric")
    try:
        factor = np.linalg.cholesky(arr)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite(
            "symmetric factorization failed: matrix is not strictly positive definite",
            witness=_pd_witness(arr),
        ) from None
    pivot = float(np.min(np.diagonal(factor)))
    if pivot <= 0.0:
        raise NotPositiveDefinite(
            f"nonpositive Cholesky pivot {pivot:.6e}", witness=_pd_witness(arr)
        )
    eig_lb = None
    if arr.shape[0] <= eig_check_max_size:
        lam = float(np.linalg.eigvalsh(arr)[0])
        if lam <= 0.0:
            raise NotPositiveDefinite(
                f"smallest eigenvalue {lam:.6e} is not positive", witness=_pd_witness(arr)
            )
        eig_lb = lam
    return PdCertificate(method="cholesky", min_cholesky_pivot=pivot, eig_lower_bound=eig_lb)


class KernelMatrix:
    """Symmetric, entrywise nonnegative, strictly positive definite matrix.

    The constructor validates all invariants (exact symmetry, nonnegative
    entries, energy principle via :func:`check_energy_principle`) and freezes
    the storage, so instances are immutable and safe to share between
    threads.
    """

    __slots__ = ("entries", "pd_certificate")

    def __init__(self, entries):
        arr = np.array(entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
            raise ValueError("kernel matrix must be square and nonempty")
        if not np.all(np.isfinite(arr)):
            raise ValueError("kernel entries must be finite; regularize the diagonal first")
        if not np.array_equal(arr, arr.T):
            raise ValueError("kernel matrix must be exactly symmetric")
        if float(arr.min()) < 0.0:
            raise ValueError("kernel entries must be nonnegative")
        cert = check_energy_principle(arr)
        arr.setflags(write=False)
        self.entries = arr
        self.pd_certificate = cert

    @property
    def size(self) -> int:
        return int(self.entries.shape[0])

    def restrict(self, support: "SupportSet") -> np.ndarray:
        """Principal submatrix on the given support (still strictly PD)."""
        idx = support.as_array()
        if idx[-1] >= self.size:
            raise SizeMismatchError(
                f"support index {int(idx[-1])} out of range for {self.size} nodes"
            )
        return self.entries[np.ix_(idx, idx)]

    def to_json(self) -> dict:
        return {"m": self.size, "entries": self.entries.tolist()}

    @classmethod
    def from_json(cls, obj: dict) -> "KernelMatrix":
        entries = np.asarray(obj["entries"], dtype=float)
        if int(obj["m"]) != entries.shape[0]:
            raise ValueError("declared size does not match the entries")
        return cls(entries)

    @classmethod
    def from_csv(cls, path) -> "KernelMatrix":
        """Load a row-major, header-free CSV matrix.

        The matrix is averaged with its transpose before validation so that
        serialization roundoff cannot break the exact-symmetry invariant.
        """
        arr = np.atleast_2d(np.loadtxt(path, delimiter=","))
        return cls((arr + arr.T) / 2.0)

    def __repr__(self) -> str:
        return f"KernelMatrix(size={self.size})"


class Measure:
    """Signed measure stored as a vector of atom masses over the nodes."""

    __slots__ = ("weights", "node_set_id")

    def __init__(self, weights, node_set_id: str = ""):
        arr = np.array(weights, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("weights must be a nonempty vector")
        if not np.all(np.isfinite(arr)):
            raise ValueError("weights must be finite")
        arr.setflags(write=False)
        self.weights = arr
        self.node_set_id = node_set_id

    @classmethod
    def zero(cls, m: int, node_set_id: str = "") -> "Measure":
        return cls(np.zeros(m), node_set_id)

    @classmethod
    def unit_atom(cls, m: int, index: int, mass: float = 1.0, node_set_id: str = "") -> "Measure":
        w = np.zeros(m)
        w[index] = mass
        return cls(w, node_set_id)

    def __len__(self) -> int:
        return int(self.weights.size)

    @property
    def positive_part(self) -> "Measure":
        return Measure(np.maximum(self.weights, 0.0), self.node_set_id)

    @property
    def negative_part(self) -> "Measure":
        return Measure(np.maximum(-self.weights, 0.0), self.node_set_id)

    @property
    def total_variation(self) -> "Measure":
        return Measure(np.abs(self.weights), self.node_set_id)

    @property
    def mass(self) -> float:
        return float(self.weights.sum())

    def scaled(self, q: float) -> "Measure":
        return Measure(q * self.weights, self.node_set_id)

    def restricted(self, support: "SupportSet") -> "Measure":
        w = np.zeros_like(self.weights)
        idx = support.as_array()
        w[idx] = self.weights[idx]
        return Measure(w, self.node_set_id)

    def to_json(self) -> dict:
        return {"m": len(self), "weights": self.weights.tolist()}

    @classmethod
    def from_json(cls, obj: dict) -> "Measure":
        w = np.asarray(obj["weights"], dtype=float)
        if int(obj["m"]) != w.size:
            raise ValueError("declared size does not match the weights")
        return cls(w)

    def __repr__(self) -> str:
        return f"Measure(m={len(self)}, mass={self.mass:.6g})"


class SupportSet:
    """Nonempty set of node indices, stored strictly increasing."""

    __slots__ = ("indices", "label")

    def __init__(self, indices: Iterable[int], label: str = ""):
        idx = tuple(sorted(int(i) for i in indices))
        if not idx:
            raise ValueError("support set must be nonempty")
        if idx[0] < 0:
            raise ValueError("support indices must be nonnegative")
        if len(set(idx)) != len(idx):
            raise ValueError("support indices must be distinct")
        self.indices = idx
        self.label = label

    @classmethod
    def full(cls, m: int, label: str = "") -> "SupportSet":
        return cls(range(m), label)

    def __len__(self) -> int:
        return len(self.indices)

    def __contains__(self, i: int) -> bool:
        return int(i) in set(self.indices)

    def as_array(self) -> np.ndarray:
        return np.fromiter(self.indices, dtype=np.intp, count=len(self.indices))

    def as_set(self) -> frozenset:
        return frozenset(self.indices)

    def issubset(self, other: "SupportSet") -> bool:
        return self.as_set() <= other.as_set()

    def __repr__(self) -> str:
        tag = f", label={self.label!r}" if self.label else ""
        return f"SupportSet(k={len(self)}{tag})"


def _require_sizes(kernel: KernelMatrix, *measures: Measure) -> None:
    for mu in measures:
        if len(mu) != kernel.size:
            raise SizeMismatchError(
                f"measure has {len(mu)} weights but the kernel has {kernel.size} nodes"
            )


def potential(kernel: KernelMatrix, mu: Measure) -> np.ndarray:
    """Potential of ``mu``: the vector ``K @ weights``, linear in ``mu``."""
    _require_sizes(kernel, mu)
    return kernel.entries @ mu.weights


def mutual_energy(kernel: KernelMatrix, mu: Measure, nu: Measure) -> float:
    """Bilinear form ``mu @ K @ nu``; symmetric, and positive on the diagonal."""
    _require_sizes(kernel, mu, nu)
    return float(mu.weights @ (kernel.entries @ nu.weights))


def energy(kernel: KernelMatrix, mu: Measure) -> float:
    """Squared energy norm of ``mu``; zero only for the zero measure."""
    return mutual_energy(kernel, mu, mu)


def energy_distance(kernel: KernelMatrix, mu: Measure, nu: Measure) -> float:
    """Energy-norm distance between two measures."""
    _require_sizes(kernel, mu, nu)
    d = mu.weights - nu.weights
    return float(np.sqrt(max(float(d @ (kernel.entries @ d)), 0.0)))


def gauss_functional(kernel: KernelMatrix, omega: Measure, mu: Measure) -> float:
    """Weighted energy of ``mu`` in the field of the charge ``omega``.

    Equals ``energy(mu) - 2 * mutual_energy(mu, omega)``, i.e. the energy of
    ``mu`` plus twice its integral against the field ``-(K @ omega)``.
    """
    _require_sizes(kernel, omega, mu)
    return energy(kernel, mu) - 2.0 * mutual_energy(kernel, mu, omega)


def dumps_canonical(obj) -> str:
    """Deterministic JSON encoding used by all emitted reports."""
    return json.dumps(obj, indent=2, sort_keys=True)
