import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finpot.instances import (
    Ball,
    ChargeAtom,
    InstanceSpec,
    LogKernel,
    RieszKernel,
    Sphere,
    assemble,
)
from finpot.qp import (
    ConeQpProblem,
    MaxIterExceeded,
    SimplexQpProblem,
    TooLarge,
    brute_force_cone,
    brute_force_simplex,
    solve_cone_qp,
    solve_simplex_qp,
)


def random_cone(seed, k=None, kmax=10):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, kmax + 1)) if k is None else k
    basis = rng.random((k, k + 2))
    Q = basis @ basis.T
    Q = (Q + Q.T) / 2.0
    Q[np.diag_indices(k)] += 0.5
    return ConeQpProblem(Q, rng.standard_normal(k))


def random_simplex(seed, k=None, kmax=10):
    p = random_cone(seed, k, kmax)
    rng = np.random.default_rng(seed + 10**7)
    return SimplexQpProblem(p.Q, rng.standard_normal(p.size))


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def test_cone_one_dimensional_closed_form():
    w, report = solve_cone_qp(ConeQpProblem([[2.0]], [3.0]))
    assert w[0] == pytest.approx(1.5)
    assert report.complementarity_residual <= 1e-12
    w, _ = solve_cone_qp(ConeQpProblem([[2.0]], [-3.0]))
    assert w[0] == 0.0


def test_cone_nonpositive_rhs_gives_zero():
    rng = np.random.default_rng(5)
    basis = rng.random((6, 8))
    Q = basis @ basis.T
    Q = (Q + Q.T) / 2.0 + 0.5 * np.eye(6)
    Q = (Q + Q.T) / 2.0
    w, report = solve_cone_qp(ConeQpProblem(Q, -rng.random(6)))
    assert np.all(w == 0.0)
    assert report.stationarity_residual == 0.0


def test_simplex_identity_symmetric_split():
    w, report = solve_simplex_qp(SimplexQpProblem(np.eye(2), np.zeros(2)))
    assert np.allclose(w, [0.5, 0.5], atol=1e-12)
    # multiplier convention: (Q w + f)_i >= c with equality on the support
    assert report.multiplier == pytest.approx(0.5, abs=1e-12)


def test_simplex_singleton():
    w, report = solve_simplex_qp(SimplexQpProblem([[3.0]], [1.5]))
    assert w[0] == 1.0
    assert report.multiplier == pytest.approx(4.5)


# ---------------------------------------------------------------------------
# oracle equivalence (smoke; the full 200-instance sweep is in acceptance)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(25))
def test_cone_solver_matches_oracle(seed):
    p = random_cone(seed)
    w, report = solve_cone_qp(p)
    ref = brute_force_cone(p)
    assert np.max(np.abs(w - ref)) <= 1e-8
    assert abs(p.objective(w) - p.objective(ref)) <= 1e-10
    assert report.stationarity_residual <= 1e-8
    assert report.complementarity_residual <= 1e-8


@pytest.mark.parametrize("seed", range(25))
def test_simplex_solver_matches_oracle(seed):
    p = random_simplex(seed)
    w, report = solve_simplex_qp(p)
    ref = brute_force_simplex(p)
    assert np.max(np.abs(w - ref)) <= 1e-8
    assert abs(p.objective(w) - p.objective(ref)) <= 1e-10
    assert abs(float(w.sum()) - 1.0) <= 1e-10


def test_brute_force_rejects_large_instances():
    with pytest.raises(TooLarge):
        brute_force_cone(random_cone(0, k=15, kmax=15))
    with pytest.raises(TooLarge):
        brute_force_simplex(random_simplex(0, k=15, kmax=15))


@given(st.integers(0, 10**9))
@settings(max_examples=30, deadline=None)
def test_cone_oracle_equivalence_property(seed):
    p = random_cone(seed)
    w, _ = solve_cone_qp(p)
    ref = brute_force_cone(p)
    assert np.max(np.abs(w - ref)) <= 1e-8
    assert abs(p.objective(w) - p.objective(ref)) <= 1e-10


@given(st.integers(0, 10**9))
@settings(max_examples=30, deadline=None)
def test_simplex_oracle_equivalence_property(seed):
    p = random_simplex(seed)
    w, _ = solve_simplex_qp(p)
    ref = brute_force_simplex(p)
    assert np.max(np.abs(w - ref)) <= 1e-8
    assert abs(p.objective(w) - p.objective(ref)) <= 1e-10


# Signed charges (one positive, one negative atom) off three node sets, so the
# restricted problems have partial supports.
GEOMETRIC_SPECS = {
    "newton-sphere": InstanceSpec(
        3, RieszKernel(2.0), Sphere(1.0, 60),
        charge=(ChargeAtom((1.3, 0.0, 0.0), 1.0), ChargeAtom((0.0, 0.8, 1.0), -0.8)),
    ),
    "riesz-ball": InstanceSpec(
        3, RieszKernel(1.5), Ball(1.0, 60),
        charge=(ChargeAtom((1.4, 0.3, 0.0), 1.0), ChargeAtom((-0.2, 1.3, 0.2), -0.7)),
    ),
    "log-disc": InstanceSpec(
        2, LogKernel(0.4), Ball(1.0, 60, (0.0, 0.0)),
        charge=(ChargeAtom((1.5, 0.0), 1.0), ChargeAtom((0.0, -1.4), -0.6)),
    ),
}


@pytest.mark.parametrize("name", sorted(GEOMETRIC_SPECS))
def test_geometric_restrictions_match_oracles(name):
    # seeded clusters of k <= 12 nearest nodes, with the charge's potential as data
    inst = assemble(GEOMETRIC_SPECS[name])
    K = inst.kernel.entries
    potential = K @ inst.omega.weights
    points = inst.node_points()
    rng = np.random.default_rng(7)
    for _ in range(10):
        k = int(rng.integers(2, 13))
        center = points[rng.integers(inst.n_nodes)]
        idx = np.sort(np.argsort(np.linalg.norm(points - center, axis=1))[:k])
        Q = K[np.ix_(idx, idx)]
        for p, solve, oracle in (
            (ConeQpProblem(Q, potential[idx]), solve_cone_qp, brute_force_cone),
            (SimplexQpProblem(Q, -potential[idx]), solve_simplex_qp, brute_force_simplex),
        ):
            w, _ = solve(p)
            ref = oracle(p)
            assert np.max(np.abs(w - ref)) <= 1e-8
            assert abs(p.objective(w) - p.objective(ref)) <= 1e-10


def test_single_pivot_backup_breaks_a_full_exchange_cycle():
    p = ConeQpProblem([[7.0, 6.0, -4.0], [6.0, 6.0, -5.0], [-4.0, -5.0, 7.0]], [1.0, 4.0, -6.0])
    # replay the plain full-exchange rule from the default free set b > 0: it
    # cycles {0,1} -> {1,2} -> {} -> {0,1} with two infeasible indices each time
    free = p.b > 0.0
    visited = []
    for _ in range(4):
        visited.append(tuple(free))
        w = np.zeros(3)
        idx = np.flatnonzero(free)
        if idx.size:
            w[idx] = np.linalg.solve(p.Q[np.ix_(idx, idx)], p.b[idx])
        y = p.Q @ w - p.b
        free = free ^ np.where(free, w < 0.0, y < 0.0)
    assert len(set(visited[:3])) == 3 and visited[3] == visited[0]

    w, report = solve_cone_qp(p)
    assert np.max(np.abs(w - brute_force_cone(p))) <= 1e-8
    assert np.max(np.abs(w - [0.0, 2.0 / 3.0, 0.0])) <= 1e-12
    # four full exchanges without a fall, one single pivot, the final solve
    assert report.iterations == 6


# ---------------------------------------------------------------------------
# solver behavior contracts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(8))
def test_uniqueness_from_distinct_starts(seed):
    p = random_cone(seed, k=7, kmax=7)
    rng = np.random.default_rng(seed + 99)
    sols = []
    for _ in range(5):
        w0 = rng.random(7) * 3.0
        w, _ = solve_cone_qp(p, w0=w0)
        sols.append(w)
    for a in sols:
        for b in sols:
            assert np.max(np.abs(a - b)) <= 1e-7

    ps = random_simplex(seed, k=7, kmax=7)
    sols = []
    for _ in range(5):
        w0 = rng.random(7) * (rng.random(7) < 0.6)
        w, _ = solve_simplex_qp(ps, w0=w0)
        sols.append(w)
    for a in sols:
        for b in sols:
            assert np.max(np.abs(a - b)) <= 1e-7


@pytest.mark.parametrize("q", [0.5, 2.0, 10.0])
def test_cone_scaling_equivariance(q):
    p = random_cone(17, k=6, kmax=6)
    w, _ = solve_cone_qp(p)
    wq, _ = solve_cone_qp(ConeQpProblem(p.Q, q * p.b))
    assert np.max(np.abs(wq - q * w)) <= 1e-8 * max(1.0, q)


def test_max_iter_exceeded_carries_best_iterate():
    # a wide dense instance cannot reach exactly-zero residuals, so an
    # unattainable tolerance must surface as the documented error
    rng = np.random.default_rng(42)
    k = 40
    basis = rng.random((k, k + 3))
    Q = basis @ basis.T
    Q = (Q + Q.T) / 2.0
    Q[np.diag_indices(k)] += 0.5
    p = ConeQpProblem(Q, rng.standard_normal(k) * 10.0)
    w, _ = solve_cone_qp(p)
    with pytest.raises(MaxIterExceeded) as err:
        solve_cone_qp(p, tol=1e-300)
    assert err.value.best_w.shape == (k,)
    assert np.max(np.abs(err.value.best_w - w)) <= 1e-10
    assert err.value.report.complementarity_residual > 0.0


def test_problem_validation():
    with pytest.raises(ValueError):
        ConeQpProblem([[1.0, 0.2], [0.1, 1.0]], [0.0, 0.0])
    with pytest.raises(ValueError):
        SimplexQpProblem(np.eye(2), [0.0])
    with pytest.raises(ValueError):
        solve_cone_qp(random_cone(0), tol=0.0)
