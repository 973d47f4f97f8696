import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import double_loop_energy, double_loop_potential
from finpot.core import (
    KernelMatrix,
    Measure,
    NotPositiveDefinite,
    SizeMismatchError,
    SupportSet,
    check_energy_principle,
    energy,
    energy_distance,
    gauss_functional,
    mutual_energy,
    potential,
)
from finpot.fixtures import random_signed_measure, random_spd_kernel
from finpot.instances import InstanceSpec, RieszKernel, Sphere, assemble


# ---------------------------------------------------------------------------
# potentials and energies against the naive double-loop oracle
# ---------------------------------------------------------------------------


def test_potential_zero_measure(small_kernel):
    mu = Measure.zero(small_kernel.size)
    assert np.all(potential(small_kernel, mu) == 0.0)


def test_potential_single_node():
    K = KernelMatrix([[4.0]])
    assert potential(K, Measure([3.0]))[0] == pytest.approx(12.0)


def test_potential_matches_double_loop():
    K = random_spd_kernel(5, 3)
    mu = random_signed_measure(6, 3)
    expected = double_loop_potential(K.entries, mu.weights)
    assert np.allclose(potential(K, mu), expected, atol=1e-12)


def test_mutual_energy_zero_and_atom(small_kernel):
    m = small_kernel.size
    assert mutual_energy(small_kernel, Measure.zero(m), Measure.zero(m)) == 0.0
    atom = Measure.unit_atom(m, 2)
    assert mutual_energy(small_kernel, atom, atom) == pytest.approx(small_kernel.entries[2, 2])


def test_mutual_energy_matches_double_loop():
    K = random_spd_kernel(7, 5)
    mu = random_signed_measure(8, 5)
    nu = random_signed_measure(9, 5)
    expected = double_loop_energy(K.entries, mu.weights, nu.weights)
    assert mutual_energy(K, mu, nu) == pytest.approx(expected, abs=1e-12)
    assert mutual_energy(K, nu, mu) == pytest.approx(expected, abs=1e-12)


def test_gauss_functional_zero_and_no_charge(small_kernel):
    m = small_kernel.size
    omega = random_signed_measure(1, m)
    assert gauss_functional(small_kernel, omega, Measure.zero(m)) == 0.0
    mu = random_signed_measure(2, m)
    assert gauss_functional(small_kernel, Measure.zero(m), mu) == pytest.approx(
        energy(small_kernel, mu)
    )
    assert energy(small_kernel, mu) >= 0.0


def test_gauss_functional_is_shifted_square():
    # expand the square: I_f(mu) = ||omega - mu||^2 - ||omega||^2
    K = random_spd_kernel(11, 4)
    omega = random_signed_measure(12, 4)
    mu = random_signed_measure(13, 4)
    diff = Measure(omega.weights - mu.weights)
    expected = energy(K, diff) - energy(K, omega)
    assert gauss_functional(K, omega, mu) == pytest.approx(expected, abs=1e-10)


def test_size_mismatch_raises(small_kernel):
    with pytest.raises(SizeMismatchError):
        potential(small_kernel, Measure.zero(small_kernel.size + 1))


# ---------------------------------------------------------------------------
# energy principle checks
# ---------------------------------------------------------------------------


def test_check_energy_principle_diagonal():
    cert = check_energy_principle(np.diag([1.0, 2.0]))
    assert cert.min_cholesky_pivot > 0.0
    assert cert.eig_lower_bound == pytest.approx(1.0)


def test_check_energy_principle_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite) as err:
        check_energy_principle(np.array([[1.0, 2.0], [2.0, 1.0]]))
    w = err.value.witness
    assert w is not None
    assert float(w @ np.array([[1.0, 2.0], [2.0, 1.0]]) @ w) <= 0.0
    # the eigenvector for the negative eigenvalue is parallel to (1, -1)
    assert abs(abs(float(w[0])) - abs(float(w[1]))) < 1e-12


def test_regularized_riesz_sphere_matrix_is_pd():
    spec = InstanceSpec(3, RieszKernel(1.0), Sphere(1.0, 50))
    kernel = assemble(spec).kernel
    assert kernel.pd_certificate.min_cholesky_pivot > 0.0


def test_kernel_constructor_validations():
    with pytest.raises(ValueError):
        KernelMatrix([[1.0, 0.5], [0.4, 1.0]])  # not symmetric
    with pytest.raises(ValueError):
        KernelMatrix([[1.0, -0.1], [-0.1, 1.0]])  # negative entry
    with pytest.raises(NotPositiveDefinite):
        KernelMatrix([[1.0, 2.0], [2.0, 1.0]])


def test_energy_principle_random_vectors():
    rng = np.random.default_rng(123)
    for seed, m in ((0, 5), (1, 12), (2, 20)):
        K = random_spd_kernel(seed, m)
        for _ in range(1000):
            w = rng.standard_normal(m)
            if np.all(w == 0.0):
                continue
            assert float(w @ K.entries @ w) > 0.0


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------


@given(st.integers(0, 10**6), st.integers(2, 20))
@settings(max_examples=60, deadline=None)
def test_mutual_energy_bilinear(seed, m):
    K = random_spd_kernel(seed, m)
    rng = np.random.default_rng(seed + 1)
    mu, nu, eta = (Measure(rng.standard_normal(m)) for _ in range(3))
    a, b = rng.uniform(-2, 2, size=2)
    combo = Measure(a * mu.weights + b * nu.weights)
    lhs = mutual_energy(K, combo, eta)
    rhs = a * mutual_energy(K, mu, eta) + b * mutual_energy(K, nu, eta)
    assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(rhs)))


@given(st.integers(0, 10**6), st.integers(1, 15))
@settings(max_examples=60, deadline=None)
def test_cauchy_schwarz(seed, m):
    K = random_spd_kernel(seed, m)
    rng = np.random.default_rng(seed + 2)
    mu = Measure(rng.standard_normal(m))
    nu = Measure(rng.standard_normal(m))
    lhs = mutual_energy(K, mu, nu) ** 2
    rhs = energy(K, mu) * energy(K, nu)
    assert lhs <= rhs + 1e-10 * max(1.0, rhs)


@given(st.integers(0, 10**6), st.integers(1, 25))
@settings(max_examples=80)
def test_hahn_jordan_exact(seed, m):
    mu = random_signed_measure(seed, m)
    pos = mu.positive_part.weights
    neg = mu.negative_part.weights
    assert np.array_equal(mu.weights, pos - neg)
    assert np.all(np.minimum(pos, neg) == 0.0)
    assert np.array_equal(mu.total_variation.weights, pos + neg)


@given(st.integers(0, 10**6), st.integers(2, 12))
@settings(max_examples=40, deadline=None)
def test_energy_distance_is_metric_like(seed, m):
    K = random_spd_kernel(seed, m)
    rng = np.random.default_rng(seed + 3)
    mu = Measure(rng.standard_normal(m))
    nu = Measure(rng.standard_normal(m))
    assert energy_distance(K, mu, mu) == 0.0
    assert energy_distance(K, mu, nu) == pytest.approx(energy_distance(K, nu, mu))
    assert energy_distance(K, mu, nu) == pytest.approx(
        math.sqrt(energy(K, Measure(mu.weights - nu.weights)))
    )


# ---------------------------------------------------------------------------
# containers and serialization
# ---------------------------------------------------------------------------


def test_support_set_contract():
    s = SupportSet([4, 1, 7])
    assert s.indices == (1, 4, 7)
    assert 4 in s and 2 not in s
    with pytest.raises(ValueError):
        SupportSet([])
    with pytest.raises(ValueError):
        SupportSet([1, 1, 2])
    with pytest.raises(ValueError):
        SupportSet([-1, 0])
    assert SupportSet([0, 1]).issubset(SupportSet([0, 1, 2]))


def test_measure_immutable_and_roundtrip():
    mu = Measure([1.0, -2.0, 0.5])
    with pytest.raises(ValueError):
        mu.weights[0] = 3.0
    again = Measure.from_json(mu.to_json())
    assert np.array_equal(again.weights, mu.weights)


def test_kernel_roundtrip_and_csv(tmp_path, small_kernel):
    again = KernelMatrix.from_json(small_kernel.to_json())
    assert np.array_equal(again.entries, small_kernel.entries)
    path = tmp_path / "k.csv"
    np.savetxt(path, small_kernel.entries, delimiter=",")
    loaded = KernelMatrix.from_csv(path)
    assert np.allclose(loaded.entries, small_kernel.entries, atol=1e-12)
