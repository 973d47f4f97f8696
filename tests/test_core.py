import math
from dataclasses import dataclass, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import double_loop_energy, double_loop_potential
from finpot import core
from finpot.core import (
    ConfigError,
    KernelMatrix,
    Measure,
    NotPositiveDefinite,
    Record,
    SizeMismatchError,
    SupportSet,
    check_energy_principle,
    energy,
    energy_distance,
    gauss_functional,
    is_exactly_symmetric,
    mutual_energy,
    potential,
    read_flag,
    read_indices,
    read_int,
    read_list,
    read_number,
    read_numbers,
    read_str,
)
from finpot.balayage import mass_bound_check, pseudo_balayage
from finpot.experiments import monotone_up, solvability_scan
from finpot.fixtures import mixed_instance, nested_chain, random_signed_measure, random_spd_kernel
from finpot.gauss import capacitary_measure, solvability_check, solve_gauss
from finpot.instances import Ball, InstanceSpec, RieszKernel, ShellUnion, Sphere, assemble, thinness_series


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


# ---------------------------------------------------------------------------
# the certificate's inverse, kept by the kernel
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def factored_kernels():
    """Assembled kernels, each with its bound on the largest entry of G K - I.

    Measured: 7.2e-15 on the 1602-node Newtonian sphere (cond 3.1e2) and
    1.1e-13 on the 1000-node Riesz alpha = 2.9 ball (cond 4.1e4).
    """
    return {
        "newton-sphere": (assemble(InstanceSpec(3, RieszKernel(2.0), Sphere(1.0, 1602))).kernel, 1e-13),
        "riesz-2.9-ball": (assemble(InstanceSpec(3, RieszKernel(2.9), Ball(1.0, 1000))).kernel, 1e-12),
    }


@pytest.mark.parametrize("family", ["newton-sphere", "riesz-2.9-ball"])
def test_kernel_keeps_a_frozen_symmetric_inverse(factored_kernels, family):
    kernel, _ = factored_kernels[family]
    G = kernel.inverse
    assert G is kernel.pd_certificate.inverse
    assert G.shape == kernel.entries.shape and not G.flags.writeable
    assert np.array_equal(G, G.T)
    with pytest.raises(ValueError):
        G[0, 0] = 1.0


@pytest.mark.parametrize("family", ["newton-sphere", "riesz-2.9-ball"])
def test_kernel_inverse_inverts(factored_kernels, family):
    kernel, bound = factored_kernels[family]
    G, K = kernel.inverse, kernel.entries
    assert np.max(np.abs(G @ K - np.eye(kernel.size))) <= bound


@pytest.mark.parametrize("family", ["newton-sphere", "riesz-2.9-ball"])
def test_min_cholesky_pivot_is_read_off_the_inverse_cholesky_factor(factored_kernels, family, monkeypatch):
    # the certificate turns the factor into G only after reading the pivot
    # off it: min diag L of LAPACK's factor, or 1 / max diag R of numpy's
    # inverse factor R = L^-1
    kernel, _ = factored_kernels[family]
    if core._LAPACK is not None:
        L = np.array(kernel.entries)
        core._lapack("dpotrf", L)
        assert kernel.pd_certificate.min_cholesky_pivot == float(np.min(np.diagonal(L)))
    monkeypatch.setattr(core, "_LAPACK", None)
    R = core._inverse_cholesky(np.array(kernel.entries))
    pivot = check_energy_principle(kernel.entries).min_cholesky_pivot
    assert pivot == 1.0 / float(np.max(np.diagonal(R)))


@pytest.mark.parametrize("k", [1, 2, 127, 128, 129, 300])
def test_factor_to_inverse_forms_r_transpose_r(k):
    rng = np.random.default_rng(k)
    R = np.tril(rng.standard_normal((k, k)))
    G = core._factor_to_inverse(np.array(R))
    assert np.array_equal(G, G.T)
    assert np.max(np.abs(G - R.T @ R)) <= 1e-12 * max(1.0, float(np.max(np.abs(R.T @ R))))


@pytest.mark.parametrize("family", ["newton-sphere", "riesz-2.9-ball"])
def test_min_cholesky_pivot_matches_numpy_cholesky(factored_kernels, family):
    # measured: identical on the sphere, 1.6e-14 relative on the ball
    kernel, _ = factored_kernels[family]
    ref = float(np.min(np.diagonal(np.linalg.cholesky(kernel.entries))))
    assert abs(kernel.pd_certificate.min_cholesky_pivot - ref) <= 1e-13 * ref


@pytest.mark.parametrize("k", [2, 300])
def test_indefinite_kernel_raises_with_witness(k):
    # positive diagonal, indefinite only through the coupling of the first and
    # last index, which the factorization meets past its first leaf at k = 300
    A = np.eye(k)
    A[0, -1] = A[-1, 0] = 2.0
    for build in (check_energy_principle, KernelMatrix):
        with pytest.raises(NotPositiveDefinite) as err:
            build(A)
        w = err.value.witness
        assert w is not None and float(w @ A @ w) <= 0.0


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 60),
    st.sampled_from(["spd", "near-singular", "indefinite"]),
    st.floats(-8.0, 8.0),
)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_certificate_accepts_only_what_eigvalsh_accepts(seed, m, family, shift):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((m, m))
    if family == "spd":
        K = B @ B.T + rng.uniform(1e-3, 1.0) * np.eye(m)
    elif family == "near-singular":
        # rank-deficient PSD, shifted by a few m u max diag either way
        r = int(rng.integers(0, m))
        K = B[:, :r] @ B[:, :r].T
        K += shift * m * (np.finfo(float).eps / 2) * max(float(np.max(np.diagonal(K))), 1.0) * np.eye(m)
    else:
        K = (B * rng.uniform(-1.0, 1.0, m)) @ B.T
    K = (K + K.T) / 2.0
    lam = float(np.linalg.eigvalsh(K)[0])
    try:
        cert = check_energy_principle(K)
    except NotPositiveDefinite as err:
        assert family != "spd"
        assert err.witness is None or float(err.witness @ K @ err.witness) <= 0.0
        return
    assert lam > 0.0
    # eigvalsh's lambda is exact for some K + E with ||E||_2 about eps ||K||_2
    # (LAPACK Users' Guide, sec. 4.7), the size of a near-singular lambda itself
    eig_err = np.finfo(float).eps * float(np.linalg.norm(K, 2))
    assert 0.0 < cert.eig_lower_bound <= lam * (1.0 + 1e-12) + eig_err


@pytest.mark.parametrize("family", ["newton-sphere", "riesz-2.9-ball"])
def test_eig_lower_bound_is_the_inverse_row_sum_bound(factored_kernels, family):
    # 1602 and 1000 rows: the row sums run over several panels of _BLOCK rows
    kernel, _ = factored_kernels[family]
    bound = kernel.pd_certificate.eig_lower_bound
    assert bound == 1.0 / float(np.max(np.abs(kernel.inverse).sum(axis=1)))
    assert 0.0 < bound <= float(np.linalg.eigvalsh(kernel.entries)[0])


@pytest.mark.parametrize("family", ["newton-sphere", "riesz-2.9-ball"])
def test_inverse_row_sums_travel_with_the_inverse(factored_kernels, family):
    # formed in the certificate's panel pass over G, read-only; relative to
    # the sum of magnitudes, since the ball's row sums cancel (|G @ 1| is
    # 0.013 at most against |G| @ 1 of up to 71; measured 1.0e-15)
    kernel, _ = factored_kernels[family]
    G, row_sums = kernel.inverse, kernel.inverse_row_sums
    assert row_sums is kernel.pd_certificate.inverse_row_sums and not row_sums.flags.writeable
    ones = np.ones(kernel.size)
    assert np.all(np.abs(row_sums - G @ ones) <= 1e-12 * (np.abs(G) @ ones))


@pytest.mark.parametrize("m", [51, 400, 1602])
def test_potential_of_few_atoms_is_the_dense_product(m):
    # 400 and 1602 nodes take few atoms' potentials from their rows, 51 from
    # the whole product; either way within 4 ulps of |K| @ |w|
    kernel = assemble(InstanceSpec(3, RieszKernel(2.0), Sphere(1.0, m))).kernel
    K = kernel.entries
    rng = np.random.default_rng(m)
    zero = potential(kernel, Measure.zero(m))
    assert not zero.any() and not np.signbit(zero).any()
    for atoms in (1, 2, 3):
        w = np.zeros(m)
        w[rng.choice(m, size=atoms, replace=False)] = rng.standard_normal(atoms)
        u = potential(kernel, Measure(w))
        assert np.all(np.abs(u - K @ w) <= 4 * np.spacing(np.abs(K) @ np.abs(w)))
    w = rng.standard_normal(m)  # a charge of every node: the whole product
    assert np.array_equal(potential(kernel, Measure(w)), K @ w)


@pytest.mark.parametrize("k", [1, 5, 128, 300])
def test_exact_symmetry_check_agrees_with_array_equal(k):
    rng = np.random.default_rng(k)
    A = rng.standard_normal((k, k))
    A = A + A.T
    assert is_exactly_symmetric(A) and np.array_equal(A, A.T)
    # one asymmetric entry in the first panel, an interior one and the last,
    # partial panel (k = 300 has panels 0-127, 128-255 and 256-299), on
    # either side of the diagonal; and a NaN, on and off the diagonal
    cells = {(0, k - 1), (k - 1, 0), (k // 2, k // 3), (k // 3, k // 2), (k - 1, k - 2), (k - 2, k - 1)}
    for i, j in sorted(c for c in cells if min(c) >= 0 and c[0] != c[1]):
        B = A.copy()
        B[i, j] = np.nextafter(B[i, j], np.inf)
        assert not is_exactly_symmetric(B) and not np.array_equal(B, B.T)
    for i, j in {(0, 0), (k - 1, k - 1), (k // 2, k // 3)}:
        B = A.copy()
        B[i, j] = np.nan
        if i != j:
            B[j, i] = np.nan
        assert not is_exactly_symmetric(B) and not np.array_equal(B, B.T)


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
    neg = np.abs(mu.weights) - pos
    assert np.array_equal(mu.weights, pos - neg)
    assert np.all(np.minimum(pos, neg) == 0.0)


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
    arr = s.as_array()
    assert arr.dtype == np.intp and arr.tolist() == [1, 4, 7] and not arr.flags.writeable
    assert SupportSet(np.array([3, 0])).indices == (0, 3)
    with pytest.raises(ValueError):
        SupportSet([])
    with pytest.raises(ValueError):
        SupportSet([1, 1, 2])
    with pytest.raises(ValueError):
        SupportSet([-1, 0])
    with pytest.raises(ValueError):
        SupportSet([2**70])


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


def test_kernel_copies_a_writable_matrix_and_adopts_a_frozen_one(small_kernel):
    source = np.array(small_kernel.entries)
    K = KernelMatrix(source)
    source[0, 1] = source[1, 0] = 0.0
    assert np.array_equal(K.entries, small_kernel.entries)
    assert not K.entries.flags.writeable

    frozen = np.array(small_kernel.entries)
    frozen.setflags(write=False)
    assert np.shares_memory(KernelMatrix(frozen).entries, frozen)


def test_restrict_is_read_only_and_views_contiguous_supports(small_kernel):
    run = small_kernel.restrict(SupportSet([1, 2, 3]))
    assert not run.flags.writeable
    assert np.shares_memory(run, small_kernel.entries)
    assert np.array_equal(run, small_kernel.entries[1:4, 1:4])

    idx = [0, 2, 5]
    gathered = small_kernel.restrict(SupportSet(idx))
    assert not gathered.flags.writeable
    assert np.array_equal(gathered, small_kernel.entries[np.ix_(idx, idx)])
    with pytest.raises(SizeMismatchError):
        small_kernel.restrict(SupportSet([4, 6]))


@dataclass(frozen=True)
class _Leaf(Record):
    x: float
    label: str


@dataclass(frozen=True)
class _Node(Record):
    measure: Measure
    missing: float | None
    values: tuple
    leaves: tuple


def test_record_encodes_its_fields_by_name():
    node = _Node(Measure([0.5, 0.25]), None, (1.0, 2.5), (_Leaf(1.0, "a"), _Leaf(-2.0, "b")))
    assert node.to_json() == {
        "measure": {"m": 2, "weights": [0.5, 0.25]},
        "missing": None,
        "values": [1.0, 2.5],
        "leaves": [{"x": 1.0, "label": "a"}, {"x": -2.0, "label": "b"}],
    }


def test_every_result_record_reports_its_fields_in_order():
    kernel, omega, support = mixed_instance(3, 12)
    bal = pseudo_balayage(kernel, omega, support, h=2.0)
    shells = [assemble(InstanceSpec(3, RieszKernel(2.0), ShellUnion(2.0, (8,) * n))) for n in (2, 3)]
    table = solvability_scan(shells, [1.0])
    # a negative charge sweeps to nothing: the unsolvable outcome, with no minimizer
    unsolvable = solvability_check(kernel, Measure(-np.abs(omega.weights)), support, capacity_finite=False)
    assert unsolvable.gauss is None
    results = [
        bal, bal.kkt, mass_bound_check(bal), solve_gauss(kernel, omega, support),
        capacitary_measure(kernel, support), solvability_check(kernel, omega, support), unsolvable,
        monotone_up(kernel, omega, nested_chain(1, 12, 3)), table, table.rows[0], table.rows[0].cells[0],
        thinness_series(InstanceSpec(3, RieszKernel(2.0), ShellUnion(2.0, (8, 8)))),
    ]
    # every result class of the package is covered
    assert {type(r) for r in results} == {c for c in Record.__subclasses__() if c.__module__.startswith("finpot.")}
    assert len(results) == 12
    for result in results:
        encoded = result.to_json()
        assert list(encoded) == [f.name for f in fields(result)]
        core.dumps_canonical(encoded)  # plain JSON all the way down


# ---------------------------------------------------------------------------
# typed JSON readers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("read, value", [
    (read_number, True), (read_number, "1.5"), (read_number, None), (read_number, [1.0]),
    (read_number, math.nan), (read_number, -math.inf), (read_number, 10**400),
    (read_int, 2.0), (read_int, True), (read_int, "2"), (read_int, -1),
    (read_flag, 1), (read_flag, "no"), (read_flag, None),
    (read_str, 5), (read_str, None), (read_str, ["a"]),
    (read_numbers, []), (read_numbers, [1.0, True]), (read_numbers, [1.0, "2"]), (read_numbers, [[1.0]]),
    (read_numbers, [1.0, math.nan]), (read_numbers, 1.0), (read_numbers, [10**400]),
])
def test_readers_reject_what_json_does_not_mean(read, value):
    with pytest.raises(ConfigError, match="^x must be"):
        read(value, "x")


def test_readers_return_what_they_read():
    assert read_number(2, "x") == 2.0 and type(read_number(2, "x")) is float
    assert read_number("1e-6", "--tol", positive=True, text=True) == 1e-6
    assert read_int(0, "x") == 0 and read_flag(False, "x") is False and read_str("a", "x") == "a"
    assert read_numbers([1, 2.5], "x") == (1.0, 2.5)
    assert read_list([], "x", "things", empty=True) == []
    assert read_indices([2, 0], "x", 3).indices == (0, 2)
    with pytest.raises(ConfigError, match="x must be positive"):
        read_number(0.0, "x", positive=True)
    with pytest.raises(ConfigError, match="x must be at least 1"):
        read_number(0.5, "x", 1.0)
    for value in ([0.5], [True], [3], [], "all"):
        with pytest.raises(ConfigError):
            read_indices(value, "x", 3)
    with pytest.raises(ConfigError, match="x must be a nonempty list of things"):
        read_list([], "x", "things")
