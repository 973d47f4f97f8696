import math

import numpy as np
import pytest

from finpot.balayage import pseudo_balayage
from finpot.core import potential
from finpot.gauss import capacitary_measure
from finpot.instances import (
    APPARENTLY_NOT_THIN,
    APPARENTLY_THIN,
    Annulus,
    Ball,
    ChargeAtom,
    ChargeOnNode,
    DuplicatePoints,
    FixedLength,
    InstanceSpec,
    LogKernel,
    RieszKernel,
    Segment,
    ShellUnion,
    GOLDEN_RATIO,
    Sphere,
    _stratified_radii,
    annulus_points,
    assemble,
    circle_points,
    fibonacci_sphere,
    generate_points,
    points_to_csv,
    thinness_series,
)


# ---------------------------------------------------------------------------
# kernel entries
# ---------------------------------------------------------------------------


def test_two_point_riesz_entry_is_exact():
    spec = InstanceSpec(
        3, RieszKernel(1.0), Segment((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), 2)
    )
    kernel = assemble(spec).kernel
    # |x - y| = 1 so the off-diagonal entry is 1 ** (alpha - n) = 1
    assert kernel.entries[0, 1] == pytest.approx(1.0)
    # nearest-neighbor half regularization: (1/2) ** (1 - 3) = 4
    assert kernel.entries[0, 0] == pytest.approx(4.0)


def test_log_kernel_entries_positive():
    spec = InstanceSpec(2, LogKernel(0.4), Sphere(1.0, 12, (0.0, 0.0)))
    kernel = assemble(spec).kernel
    assert float(kernel.entries.min()) > 0.0
    # assembly rescales the circle of radius 1 into the 0.4 disc, so the
    # largest pairwise distance is 0.8 and -log of it stays positive
    assert -math.log(0.8) == pytest.approx(
        float(np.min(kernel.entries[np.triu_indices(12, 1)])), rel=1e-6
    )


def test_log_kernel_exact_entry_at_distance():
    # five points spanning the 0.4 disc already, so the rescale is identity
    # and adjacent points sit at distance 0.2
    spec = InstanceSpec(
        2, LogKernel(0.4), Segment((-0.4, 0.0), (0.4, 0.0), 5)
    )
    kernel = assemble(spec).kernel
    assert kernel.entries[0, 1] == pytest.approx(-math.log(0.2), rel=1e-12)
    assert kernel.entries[0, 1] == pytest.approx(1.6094, abs=1e-4)


def test_fibonacci_sphere_matrix_is_pd_at_documented_resolution():
    spec = InstanceSpec(3, RieszKernel(2.0), Sphere(1.0, 100))
    kernel = assemble(spec).kernel
    assert kernel.pd_certificate.min_cholesky_pivot > 0.0


@pytest.mark.parametrize(
    "geometry",
    [
        Sphere(1.0, 60),
        Ball(1.0, 80),
        Annulus(0.5, 1.5, 70),
        Segment((0.0, 0.0, 0.0), (1.0, 1.0, 0.0), 30),
        ShellUnion(2.0, (30, 30, 30)),
    ],
)
def test_shipped_geometries_build_pd_matrices(geometry):
    spec = InstanceSpec(3, RieszKernel(1.5), geometry)
    kernel = assemble(spec).kernel
    assert kernel.pd_certificate.min_cholesky_pivot > 0.0
    if isinstance(geometry, ShellUnion):
        assert kernel.size == sum(geometry.counts)


def test_fixed_length_regularization():
    spec = InstanceSpec(
        3,
        RieszKernel(2.0),
        Segment((0.0, 0.0, 0.0), (3.0, 0.0, 0.0), 4),
        regularization=FixedLength(0.25),
    )
    kernel = assemble(spec).kernel
    assert np.allclose(np.diagonal(kernel.entries), 0.25 ** (2 - 3))


def test_duplicate_points_rejected():
    spec = InstanceSpec(
        3, RieszKernel(2.0), Segment((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), 3)
    )
    with pytest.raises(DuplicatePoints):
        assemble(spec)


def test_spec_validation():
    with pytest.raises(ValueError):
        InstanceSpec(3, RieszKernel(3.5), Sphere(1.0, 10))  # alpha >= n
    with pytest.raises(ValueError):
        InstanceSpec(2, LogKernel(1.5), Sphere(1.0, 10, (0, 0)))  # radius >= 1
    with pytest.raises(ValueError):
        InstanceSpec(4, RieszKernel(2.0), Sphere(1.0, 10))  # unsupported dim
    with pytest.raises(ValueError):
        InstanceSpec(3, LogKernel(0.4), Sphere(1.0, 10))  # log kernel is planar
    with pytest.raises(ValueError):
        ShellUnion(0.9, (10,))


@pytest.mark.parametrize("geometry", [Sphere, Ball])
@pytest.mark.parametrize("radius, count", [(-1.0, 10), (0.0, 10), (float("nan"), 10), (1.0, 0), (1.0, -3)])
def test_round_geometry_needs_a_positive_radius_and_count(geometry, radius, count):
    with pytest.raises(ValueError, match="radius must be positive|count must be at least 1"):
        geometry(radius, count)


# ---------------------------------------------------------------------------
# charges and fields
# ---------------------------------------------------------------------------


def test_zero_charge_gives_zero_field():
    spec = InstanceSpec(3, RieszKernel(2.0), Sphere(1.0, 20))
    inst = assemble(spec)
    assert np.all(potential(inst.kernel, inst.omega) == 0.0)
    assert inst.omega.mass == 0.0
    assert inst.kernel.size == inst.n_nodes == 20


def test_single_exterior_atom_field_is_negative():
    spec = InstanceSpec(
        3, RieszKernel(1.0), Sphere(1.0, 25), charge=(ChargeAtom((3.0, 0.0, 0.0), 1.0),)
    )
    inst = assemble(spec)
    field = -potential(inst.kernel, inst.omega)[: inst.n_nodes]
    assert np.all(field < 0.0)
    assert inst.omega.mass == pytest.approx(1.0)
    assert len(inst.omega) == inst.n_nodes + 1 == 26


def test_field_exactness_against_double_loop():
    atoms = (ChargeAtom((2.5, 0.1, -0.3), 0.7), ChargeAtom((-1.9, 0.4, 2.2), -1.1))
    spec = InstanceSpec(3, RieszKernel(2.0), Sphere(1.0, 30), charge=atoms)
    inst = assemble(spec)
    field = -potential(inst.kernel, inst.omega)[: inst.n_nodes]
    pts = generate_points(spec)
    expected = np.zeros(30)
    for i in range(30):
        for atom in atoms:
            d = math.dist(pts[i], atom.point)
            expected[i] -= atom.mass * d ** (2 - 3)
    assert np.max(np.abs(field - expected)) <= 1e-12


def test_log_rescale_maps_nodes_and_charges_together():
    # the disc rescale is one map for nodes and charge atoms: the field read
    # off the assembled matrix is the exact -log superposition over the
    # rescaled points, and the combined extent is the disc radius
    spec = InstanceSpec(
        2, LogKernel(0.4), Ball(1.0, 30, (0.0, 0.0)), charge=(ChargeAtom((3.0, 0.0), 1.0),)
    )
    inst = assemble(spec)
    field = -potential(inst.kernel, inst.omega)[:30]
    expected = np.zeros(30)
    for i in range(30):
        for j in range(30, len(inst.omega)):
            d = math.dist(inst.points[i], inst.points[j])
            expected[i] -= inst.omega.weights[j] * -math.log(d)
    assert np.max(np.abs(field - expected)) <= 1e-12
    extent = np.linalg.norm(inst.points - inst.points.mean(axis=0), axis=1).max()
    assert extent == pytest.approx(0.4, abs=1e-12)


def test_charge_on_node_rejected():
    pts = generate_points(InstanceSpec(3, RieszKernel(2.0), Sphere(1.0, 16)))
    spec = InstanceSpec(
        3, RieszKernel(2.0), Sphere(1.0, 16), charge=(ChargeAtom(tuple(pts[4]), 1.0),)
    )
    with pytest.raises(ChargeOnNode):
        assemble(spec)


# ---------------------------------------------------------------------------
# scaling covariance and refinement trend
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("alpha", [1.0, 2.0])
def test_riesz_capacity_scaling(alpha):
    # nearest-neighbor regularization scales with the geometry, so capacity
    # scales exactly like lambda ** (n - alpha); 3% is the loose contract
    lam = 2.5
    caps = {}
    for radius in (1.0, lam):
        spec = InstanceSpec(3, RieszKernel(alpha), Sphere(radius, 500))
        inst = assemble(spec)
        caps[radius] = capacitary_measure(inst.kernel, inst.support).capacity
    ratio = caps[lam] / caps[1.0]
    assert ratio == pytest.approx(lam ** (3 - alpha), rel=0.03)
    assert ratio == pytest.approx(lam ** (3 - alpha), rel=1e-10)


def test_refinement_deltas_shrink():
    values = []
    for m in (125, 250, 500):
        spec = InstanceSpec(
            3, RieszKernel(2.0), Sphere(1.0, m), charge=(ChargeAtom((2.0, 0.0, 0.0), 1.0),)
        )
        inst = assemble(spec)
        values.append(pseudo_balayage(inst.kernel, inst.omega, inst.support).value)
    assert abs(values[2] - values[1]) < abs(values[1] - values[0])


# ---------------------------------------------------------------------------
# thinness series
# ---------------------------------------------------------------------------


def test_thinness_empty_tail_is_thin():
    spec = InstanceSpec(3, RieszKernel(2.0), ShellUnion(2.0, (40, 0, 0, 0)))
    rep = thinness_series(spec)
    assert rep.verdict == APPARENTLY_THIN
    assert rep.shell_capacities[1:] == (0.0, 0.0, 0.0)
    assert all(s == rep.partial_sums[0] for s in rep.partial_sums)


def test_thinness_full_shells_not_thin():
    spec = InstanceSpec(3, RieszKernel(2.0), ShellUnion(2.0, (40,) * 5))
    rep = thinness_series(spec)
    assert rep.verdict == APPARENTLY_NOT_THIN
    # full-shell capacities grow at the critical rate, so the fitted
    # exponent matches n - alpha = 1 and the terms are constant
    assert rep.fitted_exponent == pytest.approx(1.0, abs=0.05)
    terms = np.diff(rep.partial_sums)
    assert np.allclose(terms, terms[0], rtol=0.05)


def test_thinness_shrinking_shells_thin():
    spec = InstanceSpec(3, RieszKernel(2.0), ShellUnion(2.0, (40,) * 5, shrink=0.5))
    rep = thinness_series(spec)
    assert rep.verdict == APPARENTLY_THIN
    assert rep.fitted_exponent < 1.0 - 0.2
    sums = np.asarray(rep.partial_sums)
    assert np.all(np.diff(sums) >= 0.0)
    # geometric tail: increments shrink
    inc = np.diff(sums)
    assert inc[-1] < inc[0]


def test_thinness_requires_shell_union():
    with pytest.raises(ValueError):
        thinness_series(InstanceSpec(3, RieszKernel(2.0), Sphere(1.0, 30)))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_spec_json_roundtrip():
    spec = InstanceSpec(
        3,
        RieszKernel(1.5),
        ShellUnion(2.0, (10, 0, 20), shrink=0.5),
        regularization=FixedLength(0.1),
        charge=(ChargeAtom((0.3, 0.0, 0.0), 1.25),),
    )
    again = InstanceSpec.from_json(spec.to_json())
    assert again == spec
    spec2 = InstanceSpec(2, LogKernel(0.45), Ball(1.0, 40, (0.0, 0.0)))
    assert InstanceSpec.from_json(spec2.to_json()) == spec2


@pytest.mark.parametrize("spec", [
    InstanceSpec(3, RieszKernel(2.0), Sphere(1.0, 30, (0.5, 0.0, -1.0))),
    InstanceSpec(3, RieszKernel(2.5), Ball(2.0, 40)),
    InstanceSpec(2, RieszKernel(1.0), Segment((0.0, 0.0), (1.0, 2.0), 7)),
    InstanceSpec(2, LogKernel(0.4), Annulus(0.5, 1.0, 25, (0.0, 0.0))),
    InstanceSpec(3, RieszKernel(2.0), ShellUnion(2.0, (8, 0, 8)), regularization=FixedLength(0.05)),
    InstanceSpec(3, RieszKernel(2.0), ShellUnion(3.0, (8, 8), shrink=0.5),
                 charge=(ChargeAtom((0.3, 0.0, 0.0), -1.5), ChargeAtom((0.0, 0.4, 0.0), 2.0))),
], ids=["sphere", "ball", "segment", "annulus", "shell-union", "shell-union-shrink"])
def test_spec_json_roundtrip_every_geometry(spec):
    assert InstanceSpec.from_json(spec.to_json()) == spec


def test_annulus_points_stack_one_layer_generator_per_dimension():
    # the layers of the stratified radii, each from the dimension's generator
    for dimension, layer in ((2, circle_points), (3, fibonacci_sphere)):
        center = (0.1, -0.2, 0.3)[:dimension]
        layers = _stratified_radii(50, 0.5, 1.5)
        expected = np.vstack([
            layer(c, r, center, phase=GOLDEN_RATIO * (j + 1) % 1.0) for j, (r, c) in enumerate(layers)
        ])
        assert np.array_equal(annulus_points(50, 0.5, 1.5, center, dimension), expected)


def test_generated_points_deterministic():
    spec = InstanceSpec(3, RieszKernel(2.0), Ball(1.0, 77))
    a = generate_points(spec)
    b = generate_points(spec)
    assert np.array_equal(a, b)
    assert a.shape == (77, 3)
    assert fibonacci_sphere(50).shape == (50, 3)
    assert np.allclose(np.linalg.norm(fibonacci_sphere(50), axis=1), 1.0)


# ---------------------------------------------------------------------------
# node export
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("spec", [
    InstanceSpec(3, RieszKernel(2.0), Sphere(1.0, 1000)),
    InstanceSpec(3, RieszKernel(2.9), Ball(1.0, 300)),
    InstanceSpec(2, LogKernel(0.4), Ball(1.0, 200, (0.0, 0.0)), charge=(ChargeAtom((1.5, 0.0), 1.0),)),
    InstanceSpec(3, RieszKernel(2.0), ShellUnion(2.0, (40, 40, 40))),
    InstanceSpec(3, RieszKernel(2.0), Sphere(1.0, 1), regularization=FixedLength(0.1)),
], ids=["sphere", "ball", "log-disc", "shell-union", "one-node"])
def test_points_to_csv_writes_the_bytes_of_savetxt(spec, tmp_path):
    points = assemble(spec).node_points()
    points_to_csv(points, tmp_path / "nodes.csv")
    np.savetxt(tmp_path / "ref.csv", points, delimiter=",")
    assert (tmp_path / "nodes.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
