import numpy as np
import pytest

from conftest import break_cone_solver
from finpot.balayage import (
    CharacterizationViolated,
    mass_bound_check,
    pseudo_balayage,
    verify_ii1,
)
from finpot.core import (
    Measure,
    SizeMismatchError,
    SupportSet,
    energy_distance,
    gauss_functional,
    potential,
)
from finpot.fixtures import mixed_instance, random_signed_measure, random_spd_kernel
from finpot.instances import ChargeAtom, InstanceSpec, RieszKernel, Sphere, assemble
from finpot.gauss import solve_gauss


def first_nonvanishing(seed0: int, m: int):
    for seed in range(seed0, seed0 + 50):
        kernel, omega, support = mixed_instance(seed, m)
        result = pseudo_balayage(kernel, omega, support)
        if result.mass > 0.1:
            return kernel, omega, support, result
    raise AssertionError("no seed produced a solidly nonzero sweep")


# ---------------------------------------------------------------------------
# degenerate charges
# ---------------------------------------------------------------------------


def test_purely_negative_charge_sweeps_to_zero():
    kernel = random_spd_kernel(1, 9)
    rng = np.random.default_rng(2)
    omega = Measure(-rng.random(9))
    result = pseudo_balayage(kernel, omega, SupportSet(range(0, 9, 2)))
    assert np.all(result.measure.weights == 0.0)
    assert result.value == 0.0
    assert result.mass == 0.0


def test_positive_atom_inside_target_is_fixed():
    # sweeping onto a set that already carries the charge returns the charge
    kernel = random_spd_kernel(4, 8)
    omega = Measure.unit_atom(8, 5, mass=1.7)
    result = pseudo_balayage(kernel, omega, SupportSet([1, 3, 5]))
    assert np.max(np.abs(result.measure.weights - omega.weights)) <= 1e-10
    assert result.value == pytest.approx(-1.7**2 * kernel.entries[5, 5], rel=1e-12)


def test_strict_dominance_for_negative_charge():
    # with a purely negative nonzero charge the sweep is zero and the
    # potential gap is strictly positive at every node of the target
    kernel = random_spd_kernel(8, 7)
    omega = Measure(-np.abs(random_signed_measure(9, 7).weights) - 0.1)
    support = SupportSet([0, 2, 4, 6])
    result = pseudo_balayage(kernel, omega, support)
    gap = potential(kernel, result.measure) - potential(kernel, omega)
    assert np.all(gap[support.as_array()] > 0.0)


@pytest.mark.parametrize("q", [0.5, 2.0, 10.0])
def test_positive_scaling_equivariance(q):
    kernel, omega, support, result = first_nonvanishing(11, 10)
    scaled = pseudo_balayage(kernel, omega.scaled(q), support)
    assert np.max(np.abs(scaled.measure.weights - q * result.measure.weights)) <= 1e-8


# ---------------------------------------------------------------------------
# certification and the two-route check
# ---------------------------------------------------------------------------


def test_result_invariants_and_value_identity():
    kernel, omega, support, result = first_nonvanishing(3, 12)
    assert result.value <= 1e-10
    assert result.value == pytest.approx(
        gauss_functional(kernel, omega, result.measure), abs=1e-10
    )
    off = [i for i in range(kernel.size) if i not in support]
    assert all(result.measure.weights[i] == 0.0 for i in off)
    assert np.all(result.measure.weights >= 0.0)


def test_value_bracket():
    kernel, omega, support, result = first_nonvanishing(7, 14)
    idx = support.as_array()
    m_const = float(np.max((kernel.entries @ omega.total_variation.weights)[idx]))
    assert result.value >= -2.0 * m_const * result.mass - 1e-10
    assert result.value <= 1e-10


def test_verify_ii1_accepts_the_sweep():
    kernel, omega, support, result = first_nonvanishing(5, 10)
    check = verify_ii1(kernel, omega, support, result.measure)
    assert check.ok
    assert check.atom_gap_min >= -1e-8
    assert check.self_integral_abs <= 1e-8


def test_verify_ii1_rejects_zero_when_charge_has_positive_potential():
    kernel = random_spd_kernel(6, 8)
    omega = Measure(np.abs(random_signed_measure(7, 8).weights) + 0.05)
    support = SupportSet(range(4))
    check = verify_ii1(kernel, omega, support, Measure.zero(8))
    assert not check.ok
    assert check.atom_gap_min < 0.0


def test_verify_ii1_rejects_perturbations():
    kernel, omega, support, result = first_nonvanishing(9, 10)
    rng = np.random.default_rng(1)
    noise = np.zeros(kernel.size)
    idx = support.as_array()
    noise[idx] = rng.random(idx.size)
    nu = Measure(result.measure.weights + 1e-2 * noise)
    check = verify_ii1(kernel, omega, support, nu)
    assert not check.ok


def test_characterization_pins_down_the_sweep():
    # any measure passing both checks at tight tolerance is the sweep itself:
    # re-solving from a different start must land within 1e-7 in energy norm
    kernel, omega, support, result = first_nonvanishing(13, 11)
    rng = np.random.default_rng(3)
    other = pseudo_balayage(kernel, omega, support, w0=rng.random(kernel.size) * 2.0)
    assert verify_ii1(kernel, omega, support, other.measure).ok
    assert energy_distance(kernel, other.measure, result.measure) <= 1e-7


def test_certification_rejects_a_perturbed_minimizer(monkeypatch):
    kernel, omega, support, _ = first_nonvanishing(13, 11)
    break_cone_solver(monkeypatch)
    with pytest.raises(CharacterizationViolated) as err:
        pseudo_balayage(kernel, omega, support)
    assert err.value.residuals["support_equality"] > 10 * 1e-8


@pytest.mark.parametrize("solve", [pseudo_balayage, solve_gauss])
def test_charge_of_wrong_length_raises_size_mismatch(solve):
    kernel, omega, support = mixed_instance(3, 8)
    with pytest.raises(SizeMismatchError):
        solve(kernel, Measure(np.append(omega.weights, 1.0)), support)


# ---------------------------------------------------------------------------
# mass bounds
# ---------------------------------------------------------------------------


def test_mass_bound_trivial_and_skipped():
    kernel = random_spd_kernel(1, 6)
    omega = Measure(-np.ones(6))
    result = pseudo_balayage(kernel, omega, SupportSet(range(3)))
    report = mass_bound_check(result, 1.0, omega)
    assert report.passed is True
    skipped = mass_bound_check(result, None, omega)
    assert skipped.passed is None
    assert skipped.reason == "no-h-constant"
    with pytest.raises(ValueError):
        mass_bound_check(result, 0.5, omega)


def test_mass_bound_newtonian_sphere_exterior_charge():
    spec = InstanceSpec(
        3, RieszKernel(2.0), Sphere(1.0, 200), charge=(ChargeAtom((2.0, 0.0, 0.0), 1.0),)
    )
    inst = assemble(spec)
    result = pseudo_balayage(inst.kernel, inst.omega, inst.support, h=inst.h)
    assert result.mass_bound == pytest.approx(1.0)
    assert mass_bound_check(result, inst.h, inst.omega).passed is True
    # swept mass of a unit charge at distance 2 from a unit sphere tends to
    # 1/2; at this resolution the recorded value sits within 3 percent
    assert result.mass == pytest.approx(0.5, abs=0.03)
