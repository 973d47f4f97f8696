"""Geometric instance generation: node clouds, Riesz/logarithmic kernels, shells.

An :class:`InstanceSpec` describes dimension, kernel, geometry, diagonal
regularization, and optional point charges, and everything downstream is a
deterministic function of it (no random sampling anywhere: spheres use the
Fibonacci lattice, balls radially stratified Fibonacci shells, discs the
sunflower layout).

:func:`assemble` is the one assembly path.  Its universe is the geometry
nodes followed by one auxiliary node per charge atom, so the charge is an
ordinary measure on that universe and its potential at the nodes is read off
the assembled matrix; no separate field is built.

Kernel values between distinct points are exact.  The diagonal, infinite in
the continuum, is replaced by the self-energy of a charge smeared at the
local scale: ``r**(alpha - n)`` for the Riesz family and ``-log(r)`` for the
logarithmic disc, with ``r`` half the nearest-neighbor distance (or a fixed
length for uniform grids).  For the Newtonian kernel this makes the matrix
an exact Gram matrix of sphere-smeared charges, hence provably positive
definite; in general positive definiteness is verified at construction and
failures are hard errors, never repaired by shifting.

Logarithmic instances are rescaled into a disc of the configured radius
(< 1) at construction; node sets of diameter above 1 would produce negative
entries and are rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import KernelMatrix, Measure, SupportSet
from .gauss import capacitary_measure

GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0

APPARENTLY_THIN = "ApparentlyThin"
APPARENTLY_NOT_THIN = "ApparentlyNotThin"


class DuplicatePoints(ValueError):
    """Generated or supplied points coincide."""


class ChargeOnNode(ValueError):
    """A charge atom coincides with a node of the set."""


# ---------------------------------------------------------------------------
# kernel, regularization, and geometry descriptors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RieszKernel:
    """Power-law kernel ``|x - y| ** (alpha - n)`` of order ``0 < alpha < n``."""

    alpha: float

    def validate(self, dimension: int) -> None:
        if not 0.0 < self.alpha < dimension:
            raise ValueError(f"Riesz order must satisfy 0 < alpha < n, got alpha={self.alpha}, n={dimension}")

    def ugaheri_constant(self, dimension: int) -> float:
        return 1.0 if self.alpha <= 2.0 else 2.0 ** (dimension - self.alpha)


@dataclass(frozen=True)
class LogKernel:
    """Kernel ``-log |x - y|`` on a planar disc of radius below 1.

    The whole geometry (charges included) is rescaled into the disc at
    construction; radii up to 0.5 keep all pairwise distances below 1 and
    hence all entries nonnegative.
    """

    disc_radius: float = 0.4

    def validate(self, dimension: int) -> None:
        if dimension != 2:
            raise ValueError("the logarithmic kernel is planar (n = 2)")
        if not 0.0 < self.disc_radius < 1.0:
            raise ValueError("disc radius must lie in (0, 1)")

    def ugaheri_constant(self, dimension: int) -> float:
        return 1.0


@dataclass(frozen=True)
class NearestNeighborHalf:
    """Diagonal regularization length: half the nearest-neighbor distance."""


@dataclass(frozen=True)
class FixedLength:
    """Diagonal regularization with one fixed smearing length."""

    length: float

    def __post_init__(self):
        if self.length <= 0.0:
            raise ValueError("regularization length must be positive")


@dataclass(frozen=True)
class Sphere:
    radius: float
    count: int
    center: tuple = (0.0, 0.0, 0.0)


@dataclass(frozen=True)
class Ball:
    radius: float
    count: int
    center: tuple = (0.0, 0.0, 0.0)


@dataclass(frozen=True)
class Segment:
    a: tuple
    b: tuple
    count: int


@dataclass(frozen=True)
class Annulus:
    r_inner: float
    r_outer: float
    count: int
    center: tuple = (0.0, 0.0, 0.0)


@dataclass(frozen=True)
class ShellUnion:
    """Concentric shells, shell j inside ``q**j <= |x| < q**(j+1)``.

    With ``shrink`` unset each occupied shell is a full sphere (circle for
    n = 2) of radius midway through its annulus.  With ``shrink = s`` shell j
    is a small sphere of radius ``q**(j*s)`` (clipped into the annulus)
    centered on the x-axis, whose capacity therefore grows like
    ``q**(j*s*(n-alpha))``.  ``counts[j] = 0`` leaves shell j empty.
    """

    q: float
    counts: tuple
    shrink: float | None = None

    def __post_init__(self):
        if self.q <= 1.0:
            raise ValueError("shell ratio q must exceed 1")
        if not self.counts:
            raise ValueError("at least one shell is required")
        object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))


@dataclass(frozen=True)
class ChargeAtom:
    point: tuple
    mass: float


@dataclass(frozen=True)
class InstanceSpec:
    """Declarative description of a finite instance; see the module docstring."""

    dimension: int
    kernel: RieszKernel | LogKernel
    geometry: Sphere | Ball | Segment | Annulus | ShellUnion
    regularization: NearestNeighborHalf | FixedLength = field(default_factory=NearestNeighborHalf)
    charge: tuple = ()

    def __post_init__(self):
        if self.dimension not in (2, 3):
            raise ValueError("geometry generators cover dimensions 2 and 3")
        self.kernel.validate(self.dimension)
        object.__setattr__(self, "charge", tuple(self.charge))
        for atom in self.charge:
            if len(atom.point) != self.dimension:
                raise ValueError("charge point dimension mismatch")

    def ugaheri_constant(self) -> float:
        return self.kernel.ugaheri_constant(self.dimension)

    def to_json(self) -> dict:
        if isinstance(self.kernel, RieszKernel):
            kern = {"type": "riesz", "alpha": self.kernel.alpha}
        else:
            kern = {"type": "log", "disc_radius": self.kernel.disc_radius}
        geo: dict
        g = self.geometry
        if isinstance(g, Sphere):
            geo = {"type": "sphere", "radius": g.radius, "count": g.count, "center": list(g.center)}
        elif isinstance(g, Ball):
            geo = {"type": "ball", "radius": g.radius, "count": g.count, "center": list(g.center)}
        elif isinstance(g, Segment):
            geo = {"type": "segment", "a": list(g.a), "b": list(g.b), "count": g.count}
        elif isinstance(g, Annulus):
            geo = {
                "type": "annulus",
                "r_inner": g.r_inner,
                "r_outer": g.r_outer,
                "count": g.count,
                "center": list(g.center),
            }
        else:
            geo = {"type": "shell_union", "q": g.q, "counts": list(g.counts), "shrink": g.shrink}
        reg: dict
        if isinstance(self.regularization, NearestNeighborHalf):
            reg = {"type": "nn-half"}
        else:
            reg = {"type": "fixed", "length": self.regularization.length}
        return {
            "dimension": self.dimension,
            "kernel": kern,
            "geometry": geo,
            "regularization": reg,
            "charge": [{"point": list(a.point), "mass": a.mass} for a in self.charge],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "InstanceSpec":
        kern_obj = obj["kernel"]
        if kern_obj["type"] == "riesz":
            kernel = RieszKernel(float(kern_obj["alpha"]))
        elif kern_obj["type"] == "log":
            kernel = LogKernel(float(kern_obj.get("disc_radius", 0.4)))
        else:
            raise ValueError(f"unknown kernel type {kern_obj['type']!r}")
        g = obj["geometry"]
        kind = g["type"]
        if kind == "sphere":
            geometry = Sphere(float(g["radius"]), int(g["count"]), tuple(g.get("center", (0,) * int(obj["dimension"]))))
        elif kind == "ball":
            geometry = Ball(float(g["radius"]), int(g["count"]), tuple(g.get("center", (0,) * int(obj["dimension"]))))
        elif kind == "segment":
            geometry = Segment(tuple(g["a"]), tuple(g["b"]), int(g["count"]))
        elif kind == "annulus":
            geometry = Annulus(
                float(g["r_inner"]), float(g["r_outer"]), int(g["count"]),
                tuple(g.get("center", (0,) * int(obj["dimension"]))),
            )
        elif kind == "shell_union":
            geometry = ShellUnion(float(g["q"]), tuple(g["counts"]), g.get("shrink"))
        else:
            raise ValueError(f"unknown geometry type {kind!r}")
        reg_obj = obj.get("regularization", {"type": "nn-half"})
        if reg_obj["type"] == "nn-half":
            reg = NearestNeighborHalf()
        elif reg_obj["type"] == "fixed":
            reg = FixedLength(float(reg_obj["length"]))
        else:
            raise ValueError(f"unknown regularization type {reg_obj['type']!r}")
        charge = tuple(
            ChargeAtom(tuple(a["point"]), float(a["mass"])) for a in obj.get("charge", [])
        )
        return cls(int(obj["dimension"]), kernel, geometry, reg, charge)


# ---------------------------------------------------------------------------
# deterministic point generators
# ---------------------------------------------------------------------------


def fibonacci_sphere(count: int, radius: float = 1.0, center=(0.0, 0.0, 0.0), phase: float = 0.0) -> np.ndarray:
    """Quasi-uniform points on a sphere via the Fibonacci lattice."""
    if count < 1:
        raise ValueError("count must be positive")
    i = np.arange(count, dtype=float) + 0.5
    polar = np.arccos(1.0 - 2.0 * i / count)
    azimuth = 2.0 * np.pi * ((i / GOLDEN_RATIO + phase) % 1.0)
    pts = np.column_stack(
        [
            np.sin(polar) * np.cos(azimuth),
            np.sin(polar) * np.sin(azimuth),
            np.cos(polar),
        ]
    )
    return radius * pts + np.asarray(center, dtype=float)


def circle_points(count: int, radius: float = 1.0, center=(0.0, 0.0), phase: float = 0.0) -> np.ndarray:
    if count < 1:
        raise ValueError("count must be positive")
    theta = 2.0 * np.pi * ((np.arange(count) + phase) / count)
    pts = radius * np.column_stack([np.cos(theta), np.sin(theta)])
    return pts + np.asarray(center, dtype=float)


def disc_points(count: int, radius: float = 1.0, center=(0.0, 0.0)) -> np.ndarray:
    """Sunflower layout: golden-angle spiral, area-uniform radii."""
    i = np.arange(count, dtype=float) + 0.5
    r = radius * np.sqrt(i / count)
    theta = 2.0 * np.pi * i / GOLDEN_RATIO**2
    pts = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
    return pts + np.asarray(center, dtype=float)


def segment_points(a, b, count: int) -> np.ndarray:
    if count < 1:
        raise ValueError("count must be positive")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if count == 1:
        return ((a + b) / 2.0)[None, :]
    t = np.linspace(0.0, 1.0, count)[:, None]
    return a[None, :] * (1.0 - t) + b[None, :] * t


def _stratified_radii(count: int, r_inner: float, r_outer: float) -> list[tuple[float, int]]:
    """Split ``count`` points over concentric radii, weights ~ r**2 (volume)."""
    shells = max(1, int(round(count ** (1.0 / 3.0))))
    radii = [
        r_inner + (r_outer - r_inner) * (j + 0.5) / shells if r_outer > r_inner else r_outer
        for j in range(shells)
    ]
    weights = np.array([max(r, 1e-9) ** 2 for r in radii])
    raw = count * weights / weights.sum()
    counts = np.floor(raw).astype(int)
    remainder = count - counts.sum()
    order = np.argsort(raw - counts)[::-1]
    for j in range(remainder):
        counts[order[j % len(order)]] += 1
    return [(radii[j], int(counts[j])) for j in range(shells) if counts[j] > 0]


def ball_points(count: int, radius: float = 1.0, center=(0.0, 0.0, 0.0)) -> np.ndarray:
    """Radially stratified Fibonacci shells filling a ball."""
    layers = _stratified_radii(count, 0.0, radius)
    blocks = [
        fibonacci_sphere(c, r, center, phase=GOLDEN_RATIO * (j + 1) % 1.0)
        for j, (r, c) in enumerate(layers)
    ]
    return np.vstack(blocks)


def annulus_points(count: int, r_inner: float, r_outer: float, center, dimension: int) -> np.ndarray:
    if not 0.0 < r_inner < r_outer:
        raise ValueError("annulus requires 0 < r_inner < r_outer")
    if dimension == 2:
        layers = _stratified_radii(count, r_inner, r_outer)
        blocks = [
            circle_points(c, r, center, phase=GOLDEN_RATIO * (j + 1) % 1.0)
            for j, (r, c) in enumerate(layers)
        ]
        return np.vstack(blocks)
    layers = _stratified_radii(count, r_inner, r_outer)
    blocks = [
        fibonacci_sphere(c, r, center, phase=GOLDEN_RATIO * (j + 1) % 1.0)
        for j, (r, c) in enumerate(layers)
    ]
    return np.vstack(blocks)


def shell_points(geometry: ShellUnion, shell_index: int, dimension: int) -> np.ndarray | None:
    """Points of one shell of a union, or None when the shell is empty."""
    count = geometry.counts[shell_index]
    if count == 0:
        return None
    q = geometry.q
    lo = q**shell_index
    hi = q ** (shell_index + 1)
    mid = (lo + hi) / 2.0
    if geometry.shrink is None:
        if dimension == 2:
            return circle_points(count, mid)
        return fibonacci_sphere(count, mid)
    margin = 0.45 * (hi - lo)
    rho = min(q ** (shell_index * geometry.shrink), margin)
    center = np.zeros(dimension)
    center[0] = mid
    if dimension == 2:
        return circle_points(count, rho, center)
    return fibonacci_sphere(count, rho, tuple(center))


def generate_points(spec: InstanceSpec) -> np.ndarray:
    """Node cloud of the instance (charges excluded), in generation order."""
    g = spec.geometry
    n = spec.dimension
    if isinstance(g, Sphere):
        if n == 2:
            pts = circle_points(g.count, g.radius, g.center[:2])
        else:
            pts = fibonacci_sphere(g.count, g.radius, g.center)
    elif isinstance(g, Ball):
        if n == 2:
            pts = disc_points(g.count, g.radius, g.center[:2])
        else:
            pts = ball_points(g.count, g.radius, g.center)
    elif isinstance(g, Segment):
        pts = segment_points(g.a, g.b, g.count)
        if pts.shape[1] != n:
            raise ValueError("segment endpoints must match the instance dimension")
    elif isinstance(g, Annulus):
        pts = annulus_points(g.count, g.r_inner, g.r_outer, g.center[:n], n)
    elif isinstance(g, ShellUnion):
        blocks = [
            block
            for j in range(len(g.counts))
            if (block := shell_points(g, j, n)) is not None
        ]
        if not blocks:
            raise ValueError("shell union has no occupied shell")
        pts = np.vstack(blocks)
    else:
        raise TypeError(f"unknown geometry {type(g).__name__}")
    return np.asarray(pts, dtype=float)


# ---------------------------------------------------------------------------
# kernel matrix assembly
# ---------------------------------------------------------------------------


def _pairwise_distances(points: np.ndarray) -> np.ndarray:
    gram = points @ points.T
    sq = np.diagonal(gram)
    d2 = sq[:, None] + sq[None, :] - 2.0 * gram
    np.fill_diagonal(d2, 0.0)
    d = np.sqrt(np.maximum(d2, 0.0))
    return (d + d.T) / 2.0


def _kernel_values(kernel, d: np.ndarray, dimension: int) -> np.ndarray:
    if isinstance(kernel, RieszKernel):
        return d ** (kernel.alpha - dimension)
    return -np.log(d)


def _regularization_radii(spec: InstanceSpec, d: np.ndarray) -> np.ndarray:
    if isinstance(spec.regularization, FixedLength):
        return np.full(d.shape[0], spec.regularization.length)
    if d.shape[0] == 1:
        raise ValueError("nearest-neighbor regularization needs at least two points")
    off = d + np.diag(np.full(d.shape[0], np.inf))
    return off.min(axis=1) / 2.0


def _log_rescale(spec: InstanceSpec, points: np.ndarray, charges: np.ndarray):
    """Map the whole configuration (charges included) into the model disc.

    The logarithmic kernel lives on a disc of radius below 1, so nodes and
    charge atoms alike must land inside it; the centroid and extent are
    therefore taken over the combined point set.
    """
    combined = np.vstack([points, charges]) if charges.size else points
    centroid = combined.mean(axis=0)
    extent = float(np.max(np.linalg.norm(combined - centroid, axis=1)))
    if extent == 0.0:
        raise DuplicatePoints("all points coincide")
    scale = spec.kernel.disc_radius / extent
    pts = (points - centroid) * scale
    chg = (charges - centroid) * scale if charges.size else charges
    return pts, chg


def _assemble_entries(spec: InstanceSpec, points: np.ndarray) -> np.ndarray:
    d = _pairwise_distances(points)
    off = d + np.diag(np.full(d.shape[0], np.inf))
    if float(off.min()) < 1e-12:
        raise DuplicatePoints("two points coincide (or nearly so)")
    if isinstance(spec.kernel, LogKernel) and float(d.max()) >= 1.0:
        raise ValueError(
            "logarithmic kernel needs all pairwise distances below 1; "
            "reduce the disc radius (0.5 suffices for any shape)"
        )
    radii = _regularization_radii(spec, d)
    safe = d + np.eye(d.shape[0])
    entries = _kernel_values(spec.kernel, safe, spec.dimension)
    np.fill_diagonal(entries, _kernel_values(spec.kernel, radii, spec.dimension))
    return (entries + entries.T) / 2.0


@dataclass(frozen=True)
class Instance:
    """Assembled instance: extended universe, kernel, target set, charge.

    The universe is the geometry nodes followed by one auxiliary node per
    charge atom; ``support`` covers exactly the geometry nodes.  Cross
    entries between nodes and charges are exact kernel values, so the charge
    potential ``potential(kernel, omega)`` restricted to the support is the
    exact superposition of the atoms' kernel values.
    """

    spec: InstanceSpec
    points: np.ndarray
    n_nodes: int
    kernel: KernelMatrix
    support: SupportSet
    omega: Measure
    h: float

    def node_points(self) -> np.ndarray:
        return self.points[: self.n_nodes]


def assemble(spec: InstanceSpec) -> Instance:
    """Build the full instance: extended kernel, support set and charge."""
    nodes = generate_points(spec)
    charges = np.asarray([a.point for a in spec.charge], dtype=float).reshape(
        len(spec.charge), spec.dimension
    )
    if isinstance(spec.kernel, LogKernel):
        nodes, charges = _log_rescale(spec, nodes, charges)
    n_nodes = nodes.shape[0]
    if charges.size:
        dmin = np.min(
            np.linalg.norm(nodes[:, None, :] - charges[None, :, :], axis=2)
        )
        if dmin < 1e-9:
            raise ChargeOnNode("charge atoms must be placed off the node set")
        points = np.vstack([nodes, charges])
    else:
        points = nodes
    kernel = KernelMatrix(_assemble_entries(spec, points))
    support = SupportSet(range(n_nodes), label="A")
    w = np.zeros(points.shape[0])
    for j, atom in enumerate(spec.charge):
        w[n_nodes + j] += atom.mass
    return Instance(
        spec=spec,
        points=points,
        n_nodes=n_nodes,
        kernel=kernel,
        support=support,
        omega=Measure(w),
        h=spec.ugaheri_constant(),
    )


# ---------------------------------------------------------------------------
# thinness series over shell unions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThinnessReport:
    """Wiener-type series diagnostics for a shell union.

    The verdict compares the fitted growth exponent of the shell capacities
    against the critical rate ``q**(j*(n-alpha))``; it is a heuristic read on
    finitely many truncated shells, hence the "Apparently" naming.
    """

    q: float
    shell_capacities: tuple
    partial_sums: tuple
    fitted_exponent: float
    verdict: str

    def csv_rows(self) -> list[dict]:
        return [
            {"shell": j, "capacity": c, "partial_sum": s}
            for j, (c, s) in enumerate(zip(self.shell_capacities, self.partial_sums))
        ]

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "shell_capacities": list(self.shell_capacities),
            "partial_sums": list(self.partial_sums),
            "fitted_exponent": self.fitted_exponent,
            "verdict": self.verdict,
        }


def thinness_series(
    spec: InstanceSpec, tol: float = 1e-8, exponent_margin: float = 0.2
) -> ThinnessReport:
    """Partial sums of ``c(A_j) / q**(j*(n-alpha))`` over the shells of a union.

    Each occupied shell is capacitated on its own nodes with the instance's
    kernel and regularization.  The fitted exponent t solves
    ``c(A_j) ~ q**(j*t)`` by least squares over the occupied shells (the
    later half when enough of them exist, to damp clipping at small radii);
    the series converges iff t < n - alpha, so the verdict compares t
    against that rate with a documented margin.
    """
    if not isinstance(spec.geometry, ShellUnion):
        raise ValueError("thinness series needs a shell_union geometry")
    if not isinstance(spec.kernel, RieszKernel):
        raise ValueError("thinness series is defined for Riesz kernels")
    g = spec.geometry
    n = spec.dimension
    alpha = spec.kernel.alpha
    caps: list[float] = []
    for j in range(len(g.counts)):
        if g.counts[j] == 0:
            caps.append(0.0)
            continue
        sub = InstanceSpec(
            dimension=n,
            kernel=spec.kernel,
            geometry=ShellUnion(g.q, tuple(0 if i != j else g.counts[i] for i in range(len(g.counts))), g.shrink),
            regularization=spec.regularization,
        )
        inst = assemble(sub)
        caps.append(capacitary_measure(inst.kernel, inst.support, tol=tol).capacity)
    rate = g.q ** (np.arange(len(caps)) * (n - alpha))
    terms = np.asarray(caps) / rate
    sums = tuple(float(s) for s in np.cumsum(terms))
    occupied = [(j, c) for j, c in enumerate(caps) if c > 0.0]
    if len(occupied) >= 2:
        tail = occupied[len(occupied) // 2 :] if len(occupied) >= 4 else occupied
        js = np.array([j for j, _ in tail], dtype=float)
        logs = np.log([c for _, c in tail]) / math.log(g.q)
        slope = float(np.polyfit(js, logs, 1)[0])
    else:
        slope = -math.inf
    verdict = APPARENTLY_THIN if slope < (n - alpha) - exponent_margin else APPARENTLY_NOT_THIN
    return ThinnessReport(
        q=g.q,
        shell_capacities=tuple(caps),
        partial_sums=sums,
        fitted_exponent=slope,
        verdict=verdict,
    )


def points_to_csv(points: np.ndarray, path) -> None:
    """Export a node cloud, one point per row."""
    np.savetxt(path, points, delimiter=",")
