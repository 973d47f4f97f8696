import json
from importlib.resources import files

import numpy as np
import pytest

from conftest import break_cone_solver, break_simplex_solver
from finpot.balayage import CharacterizationViolated, pseudo_balayage
from finpot.cli import _raw_problem
from finpot.core import (
    KernelMatrix,
    Measure,
    SupportSet,
    energy,
    energy_distance,
    potential,
)
from finpot.fixtures import mixed_instance, random_spd_kernel, random_support
from finpot.gauss import (
    SOLVABLE,
    SOLVABLE_VIA_BALAYAGE,
    UNSOLVABLE,
    capacitary_measure,
    solvability_check,
    solve_gauss,
)
from finpot.instances import ChargeAtom, InstanceSpec, RieszKernel, ShellUnion, Sphere, assemble
from finpot.qp import ConeQpProblem, SimplexQpProblem, brute_force_cone, brute_force_simplex


def nonvanishing_sweep(seed0: int, m: int):
    for seed in range(seed0, seed0 + 50):
        kernel, omega, support = mixed_instance(seed, m)
        bal = pseudo_balayage(kernel, omega, support)
        if bal.mass > 0.1:
            return kernel, omega, support, bal
    raise AssertionError("no seed produced a solidly nonzero sweep")


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def test_two_symmetric_nodes_split_evenly():
    K = KernelMatrix([[2.0, 0.5], [0.5, 2.0]])
    res = solve_gauss(K, Measure.zero(2), SupportSet([0, 1]))
    assert np.allclose(res.measure.weights, [0.5, 0.5], atol=1e-12)
    assert res.equilibrium_constant == pytest.approx((2.0 + 0.5) / 2.0)


def test_single_node_target():
    kernel = random_spd_kernel(2, 5)
    omega = Measure(np.linspace(-1, 1, 5))
    res = solve_gauss(kernel, omega, SupportSet([3]))
    assert res.measure.weights[3] == 1.0
    expected_c = kernel.entries[3, 3] - float((kernel.entries @ omega.weights)[3])
    assert res.equilibrium_constant == pytest.approx(expected_c, abs=1e-10)


def test_value_is_weighted_energy():
    kernel, omega, support, _ = nonvanishing_sweep(1, 10)
    res = solve_gauss(kernel, omega, support)
    lam = res.measure
    expected = energy(kernel, lam) - 2.0 * float(
        lam.weights @ (kernel.entries @ omega.weights)
    )
    assert res.value == pytest.approx(expected, abs=1e-10)
    assert lam.mass == pytest.approx(1.0, abs=1e-10)


def test_constant_routes_agree():
    kernel, omega, support, _ = nonvanishing_sweep(23, 12)
    res = solve_gauss(kernel, omega, support)
    weighted = potential(kernel, res.measure) - potential(kernel, omega)
    integral = float(res.measure.weights @ weighted)
    assert res.equilibrium_constant == pytest.approx(integral, abs=1e-9)
    assert res.kkt.multiplier == pytest.approx(integral, abs=1e-9)


def test_heavy_charge_gives_nonzero_equilibrium_constant():
    kernel, omega, support, bal = nonvanishing_sweep(101, 10)
    heavy = omega.scaled(2.5 / bal.mass)
    res = solve_gauss(kernel, heavy, support)
    assert res.measure.mass == pytest.approx(1.0, abs=1e-10)
    assert abs(res.equilibrium_constant) > 1e-6


def test_value_ordering_against_sweep():
    kernel, omega, support, bal = nonvanishing_sweep(31, 12)
    res = solve_gauss(kernel, omega, support)
    assert bal.value <= res.value + 1e-10


def test_certification_rejects_a_perturbed_minimizer(monkeypatch):
    kernel, omega, support, _ = nonvanishing_sweep(23, 12)
    break_simplex_solver(monkeypatch)
    with pytest.raises(CharacterizationViolated) as err:
        solve_gauss(kernel, omega, support)
    assert err.value.residuals["support_equality"] > 10 * 1e-8


# ---------------------------------------------------------------------------
# capacitary measures
# ---------------------------------------------------------------------------


def test_capacity_single_node():
    kernel = random_spd_kernel(3, 4)
    res = capacitary_measure(kernel, SupportSet([2]))
    kii = kernel.entries[2, 2]
    assert res.capacity == pytest.approx(1.0 / kii)
    assert res.gamma.weights[2] == pytest.approx(1.0 / kii)
    assert res.equilibrium_potential_range[0] == pytest.approx(1.0)


def test_capacity_two_symmetric_nodes():
    K = KernelMatrix([[3.0, 1.0], [1.0, 3.0]])
    res = capacitary_measure(K, SupportSet([0, 1]))
    c = 2.0 / (3.0 + 1.0)
    assert res.capacity == pytest.approx(c)
    assert np.allclose(res.gamma.weights, [c / 2, c / 2], atol=1e-12)
    pot = K.entries @ res.gamma.weights
    assert np.allclose(pot, 1.0, atol=1e-12)


def test_capacity_monotone_in_the_set():
    kernel = random_spd_kernel(5, 10)
    small = capacitary_measure(kernel, SupportSet(range(4)))
    large = capacitary_measure(kernel, SupportSet(range(8)))
    assert small.capacity <= large.capacity + 1e-10


def test_capacity_certification_rejects_a_perturbed_measure(monkeypatch):
    kernel = random_spd_kernel(5, 10)
    break_cone_solver(monkeypatch)
    with pytest.raises(CharacterizationViolated) as err:
        capacitary_measure(kernel, SupportSet(range(8)))
    assert err.value.residuals["support_equality"] > 10 * 1e-8


@pytest.mark.parametrize("per_shell", [24, 30, 50])
@pytest.mark.parametrize("q", [1.6, 2.0, 2.4])
def test_gauss_solve_seeded_with_the_capacitary_measure_is_the_cold_solve(q, per_shell):
    # the seeded solve's first step is an LU solve on the capacitary support;
    # the kernel's inverse stays for the later steps, so both solves end with
    # the same Schur step and agree bit for bit
    spec = InstanceSpec(3, RieszKernel(2.0), ShellUnion(q, (per_shell, per_shell)),
                        charge=(ChargeAtom((0.3, 0.0, 0.0), 1.0),))
    inst = assemble(spec)
    omega = inst.omega.scaled(0.3)
    gamma = capacitary_measure(inst.kernel, inst.support).gamma
    cold = solve_gauss(inst.kernel, omega, inst.support)
    seeded = solve_gauss(inst.kernel, omega, inst.support, w0=gamma.weights)
    assert seeded.kkt.iterations > 1
    assert np.array_equal(seeded.measure.weights, cold.measure.weights)
    assert (seeded.value, seeded.equilibrium_constant) == (cold.value, cold.equilibrium_constant)


def _capacity_matches_the_oracles(kernel, support):
    """The capacitary measure is the cone oracle's answer at ``b = 1``, within verify's bounds.

    Its capacity is also ``1 / min energy`` over probability measures on the
    set, the chargeless simplex oracle's answer.
    """
    res = capacitary_measure(kernel, support)
    idx = support.as_array()
    Q = kernel.restrict(support)
    cone = ConeQpProblem(Q, np.ones(idx.size))
    w, w_oracle = res.gamma.weights[idx], brute_force_cone(cone)
    assert float(np.max(np.abs(w - w_oracle))) <= 1e-8
    assert abs(cone.objective(w) - cone.objective(w_oracle)) <= 1e-10
    lam = brute_force_simplex(SimplexQpProblem(Q, np.zeros(idx.size)))
    assert res.capacity == pytest.approx(1.0 / float(lam @ Q @ lam), rel=1e-10, abs=0.0)


@pytest.mark.parametrize("seed", range(8))
def test_capacity_is_the_cone_oracle_at_the_unit_field_on_random_kernels(seed):
    kernel = random_spd_kernel(seed, 10)
    _capacity_matches_the_oracles(kernel, random_support(seed + 50, 10))


@pytest.mark.parametrize("name", ["atom_in_target", "mass_one", "mixed_small", "negative_omega"])
def test_capacity_is_the_cone_oracle_at_the_unit_field_on_the_fixtures(name):
    # riesz_sphere's 40-node support is beyond the enumeration limit
    fixture = json.loads((files("finpot") / "fixtures" / f"{name}.json").read_text())
    kernel, _, support, _ = _raw_problem(fixture)
    _capacity_matches_the_oracles(kernel, support)


def test_newtonian_sphere_capacity_near_radius():
    # unit-sphere capacity is 1 for the inverse-distance kernel; the m=500
    # discretization came in at 1.0234 when recorded, hence the 5% band
    spec = InstanceSpec(3, RieszKernel(2.0), Sphere(1.0, 500))
    inst = assemble(spec)
    res = capacitary_measure(inst.kernel, inst.support)
    assert res.capacity == pytest.approx(1.0, abs=0.05)
    assert res.equilibrium_potential_range[0] >= 1.0 - 1e-8


# ---------------------------------------------------------------------------
# identification with the sweep at unit mass
# ---------------------------------------------------------------------------


def test_mass_one_identification():
    kernel, omega, support, bal = nonvanishing_sweep(41, 12)
    rescaled = omega.scaled(1.0 / bal.mass)
    bal_unit = pseudo_balayage(kernel, rescaled, support)
    assert bal_unit.mass == pytest.approx(1.0, abs=1e-9)
    res = solve_gauss(kernel, rescaled, support)
    assert energy_distance(kernel, res.measure, bal_unit.measure) <= 1e-7


# ---------------------------------------------------------------------------
# solvability classification
# ---------------------------------------------------------------------------


def test_finite_regime_is_always_solvable():
    kernel, omega, support, _ = nonvanishing_sweep(51, 10)
    out = solvability_check(kernel, omega, support, capacity_finite=True)
    assert out.status == SOLVABLE
    assert out.gauss is not None


def test_truncation_regime_negative_charge_unsolvable():
    kernel = random_spd_kernel(9, 8)
    omega = Measure(-np.ones(8) / 4)
    out = solvability_check(kernel, omega, SupportSet(range(5)), capacity_finite=False)
    assert out.status == UNSOLVABLE
    assert out.gauss is None
    assert out.balayage.mass == 0.0
    w = out.balayage.measure.weights
    gap = potential(kernel, out.balayage.measure) - potential(kernel, omega)
    assert abs(w @ gap) <= 1e-12


def test_truncation_regime_mass_below_one_unsolvable():
    kernel, omega, support, bal = nonvanishing_sweep(61, 10)
    shrunk = omega.scaled(0.4 / bal.mass)
    out = solvability_check(kernel, shrunk, support, capacity_finite=False)
    assert out.status == UNSOLVABLE
    assert out.balayage.mass == pytest.approx(0.4, abs=1e-6)
    assert out.balayage.mass < 1.0


def test_truncation_regime_mass_one_identifies():
    kernel, omega, support, bal = nonvanishing_sweep(71, 10)
    unit = omega.scaled(1.0 / bal.mass)
    out = solvability_check(kernel, unit, support, capacity_finite=False)
    assert out.status == SOLVABLE_VIA_BALAYAGE
    assert out.lambda_equals_balayage
    big = omega.scaled(1.8 / bal.mass)
    out2 = solvability_check(kernel, big, support, capacity_finite=False)
    assert out2.status == SOLVABLE_VIA_BALAYAGE
    assert not out2.lambda_equals_balayage
