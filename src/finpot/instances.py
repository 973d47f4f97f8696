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
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .core import KernelMatrix, Measure, Record, SupportSet, read_int, read_list, read_number, read_numbers
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


def _require_radius_and_count(radius: float, count: int) -> None:
    if not radius > 0.0:
        raise ValueError(f"radius must be positive, got {radius!r}")
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count!r}")


@dataclass(frozen=True)
class Sphere:
    radius: float
    count: int
    center: tuple | None = None  # the origin of the instance's dimension

    def __post_init__(self):
        _require_radius_and_count(self.radius, self.count)


@dataclass(frozen=True)
class Ball:
    radius: float
    count: int
    center: tuple | None = None  # the origin of the instance's dimension

    def __post_init__(self):
        _require_radius_and_count(self.radius, self.count)


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
    center: tuple | None = None  # the origin of the instance's dimension


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


_JSON_TYPES = {
    RieszKernel: "riesz", LogKernel: "log", NearestNeighborHalf: "nn-half", FixedLength: "fixed",
    Sphere: "sphere", Ball: "ball", Segment: "segment", Annulus: "annulus", ShellUnion: "shell_union",
}


def _tagged(descriptor) -> dict:
    """A descriptor as JSON: its type tag, then its fields, tuples as lists."""
    fields = {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(descriptor).items()}
    return {"type": _JSON_TYPES[type(descriptor)], **fields}


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
        g = self.geometry
        if isinstance(g, (Sphere, Ball, Annulus)):
            if g.center is None:
                object.__setattr__(self, "geometry", replace(g, center=(0.0,) * self.dimension))
            elif len(g.center) != self.dimension:
                raise ValueError(f"center {list(g.center)} does not have {self.dimension} coordinates")
        object.__setattr__(self, "charge", tuple(self.charge))
        for atom in self.charge:
            if len(atom.point) != self.dimension:
                raise ValueError("charge point dimension mismatch")

    def ugaheri_constant(self) -> float:
        return self.kernel.ugaheri_constant(self.dimension)

    def to_json(self) -> dict:
        return {
            "dimension": self.dimension,
            "kernel": _tagged(self.kernel),
            "geometry": _tagged(self.geometry),
            "regularization": _tagged(self.regularization),
            "charge": [{"point": list(a.point), "mass": a.mass} for a in self.charge],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "InstanceSpec":
        dimension = read_int(obj["dimension"], "dimension", 2)
        kern_obj = obj["kernel"]
        if kern_obj["type"] == "riesz":
            kernel = RieszKernel(read_number(kern_obj["alpha"], "alpha"))
        elif kern_obj["type"] == "log":
            kernel = LogKernel(read_number(kern_obj.get("disc_radius", 0.4), "disc_radius"))
        else:
            raise ValueError(f"unknown kernel type {kern_obj['type']!r}")
        g = obj["geometry"]
        kind = g["type"]
        if kind == "shell_union":
            counts = [read_int(c, "counts") for c in read_list(g["counts"], "counts", "shell counts")]
            shrink = None if g.get("shrink") is None else read_number(g["shrink"], "shrink")
            geometry = ShellUnion(read_number(g["q"], "q"), counts, shrink)
        elif kind == "segment":
            geometry = Segment(read_numbers(g["a"], "a"), read_numbers(g["b"], "b"), read_int(g["count"], "count", 1))
        elif kind in ("sphere", "ball", "annulus"):
            count = read_int(g["count"], "count", 1)
            center = None if "center" not in g else read_numbers(g["center"], "center")
            if kind == "annulus":
                r_inner, r_outer = read_number(g["r_inner"], "r_inner"), read_number(g["r_outer"], "r_outer")
                geometry = Annulus(r_inner, r_outer, count, center)
            else:
                geometry = (Sphere if kind == "sphere" else Ball)(read_number(g["radius"], "radius"), count, center)
        else:
            raise ValueError(f"unknown geometry type {kind!r}")
        reg_obj = obj.get("regularization", {"type": "nn-half"})
        if reg_obj["type"] == "nn-half":
            reg = NearestNeighborHalf()
        elif reg_obj["type"] == "fixed":
            reg = FixedLength(read_number(reg_obj["length"], "length"))
        else:
            raise ValueError(f"unknown regularization type {reg_obj['type']!r}")
        charge = [
            ChargeAtom(read_numbers(a["point"], "charge point"), read_number(a["mass"], "mass"))
            for a in read_list(obj.get("charge", []), "charge", "atoms", empty=True)
        ]
        return cls(dimension, kernel, geometry, reg, charge)


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
    layer = circle_points if dimension == 2 else fibonacci_sphere
    blocks = [
        layer(c, r, center, phase=GOLDEN_RATIO * (j + 1) % 1.0)
        for j, (r, c) in enumerate(_stratified_radii(count, r_inner, r_outer))
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
        pts = (circle_points if n == 2 else fibonacci_sphere)(g.count, g.radius, g.center)
    elif isinstance(g, Ball):
        pts = (disc_points if n == 2 else ball_points)(g.count, g.radius, g.center)
    elif isinstance(g, Segment):
        pts = segment_points(g.a, g.b, g.count)
        if pts.shape[1] != n:
            raise ValueError("segment endpoints must match the instance dimension")
    elif isinstance(g, Annulus):
        pts = annulus_points(g.count, g.r_inner, g.r_outer, g.center, n)
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
    """Euclidean distance matrix, built in one m×m buffer plus the gram matrix.

    ``points @ points.T`` is evaluated as a symmetric rank-k update, so the
    gram matrix, and with it every array derived from it entrywise, is
    exactly symmetric.
    """
    gram = points @ points.T
    sq = np.diagonal(gram).copy()
    d = np.add.outer(sq, sq)
    gram *= 2.0
    d -= gram
    del gram
    np.fill_diagonal(d, 0.0)
    np.maximum(d, 0.0, out=d)
    return np.sqrt(d, out=d)


def _apply_kernel(kernel, d: np.ndarray, dimension: int) -> None:
    """Replace the distances in ``d`` by kernel values, in place."""
    if isinstance(kernel, RieszKernel):
        d **= kernel.alpha - dimension
    else:
        np.log(d, out=d)
        np.negative(d, out=d)


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
    """Kernel matrix of ``points``, computed in the distance buffer and frozen."""
    entries = _pairwise_distances(points)
    # read while the diagonal is still zero; coincident points are reported first
    too_wide = isinstance(spec.kernel, LogKernel) and float(entries.max()) >= 1.0
    # off-diagonal minima: the duplicate test and the nearest-neighbor radii
    np.fill_diagonal(entries, np.inf)
    if float(entries.min()) < 1e-12:
        raise DuplicatePoints("two points coincide (or nearly so)")
    if too_wide:
        raise ValueError(
            "logarithmic kernel needs all pairwise distances below 1; "
            "reduce the disc radius (0.5 suffices for any shape)"
        )
    if isinstance(spec.regularization, FixedLength):
        radii = np.full(entries.shape[0], spec.regularization.length)
    elif entries.shape[0] == 1:
        raise ValueError("nearest-neighbor regularization needs at least two points")
    else:
        radii = entries.min(axis=1) / 2.0
    np.fill_diagonal(entries, 1.0)
    _apply_kernel(spec.kernel, entries, spec.dimension)
    _apply_kernel(spec.kernel, radii, spec.dimension)
    np.fill_diagonal(entries, radii)
    entries.setflags(write=False)
    return entries


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
    support = SupportSet(range(n_nodes))
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
class ThinnessReport(Record):
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
    """Export a node cloud, one point per row.

    Writes the bytes of ``np.savetxt(path, points, delimiter=",")`` (``%.18e``
    per coordinate), formatted by one ``%`` of the repeated row format rather
    than one per row.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]  # one value per row, as savetxt writes a vector
    row = ",".join(["%.18e"] * points.shape[1]) + "\n"
    with open(path, "w") as out:
        out.write((row * points.shape[0]) % tuple(points.ravel().tolist()))
