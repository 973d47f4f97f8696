import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finpot.balayage
import finpot.gauss
from finpot import core, qp
from finpot.balayage import pseudo_balayage
from finpot.core import SupportSet
from finpot.fixtures import random_spd_kernel
from finpot.gauss import solve_gauss
from finpot.instances import (
    Ball,
    ChargeAtom,
    InstanceSpec,
    LogKernel,
    RieszKernel,
    ShellUnion,
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
def test_geometric_restrictions_match_oracles(name, monkeypatch):
    # seeded clusters of k <= 12 nearest nodes, with the charge's potential as
    # data; with the gate at 1 every step after the first runs on the factor
    monkeypatch.setattr(qp, "_FACTOR_MIN", 1)
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


def test_single_pivot_backup_breaks_a_full_exchange_cycle(monkeypatch):
    monkeypatch.setattr(qp, "_FACTOR_MIN", 1)  # the engine's steps run on the factor
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
        w0 = rng.random(7) * (rng.random(7) < 0.6)
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


@pytest.mark.parametrize("cls", [ConeQpProblem, SimplexQpProblem])
@pytest.mark.parametrize("Q, match", [
    ([[1.0, 0.2], [0.1, 1.0]], "symmetric"),
    ([[1.0, np.nan], [np.nan, 1.0]], "finite"),
    ([[np.inf, 0.0], [0.0, 1.0]], "finite"),
], ids=["asymmetric", "nan", "inf"])
def test_raw_constructor_checks_everything_it_is_given(cls, Q, match):
    with pytest.raises(ValueError, match=match):
        cls(Q, np.zeros(len(Q)))


@pytest.mark.parametrize("cls", [ConeQpProblem, SimplexQpProblem])
def test_only_on_kernel_seeds_an_inverse(cls):
    assert cls(np.eye(2), np.zeros(2)).inverse is None
    with pytest.raises(TypeError, match="inverse"):
        cls(np.eye(2), np.zeros(2), inverse=np.eye(2), inverse_index=[0, 1])


@pytest.mark.parametrize("tol", [float("nan"), float("inf")])
@pytest.mark.parametrize(
    "solve, problem", [(solve_cone_qp, random_cone), (solve_simplex_qp, random_simplex)]
)
def test_non_finite_tol_is_rejected(solve, problem, tol):
    # every ``residual > tol`` test is false at NaN or inf, so such a tol
    # would certify any iterate
    with pytest.raises(ValueError, match="positive and finite"):
        solve(problem(0), tol=tol)


@pytest.mark.parametrize("solve, problem", [(solve_cone_qp, random_cone), (solve_simplex_qp, random_simplex)])
def test_a_nan_residual_fails_the_tol_gate(solve, problem, monkeypatch):
    # Python's max drops a NaN that is not its first argument
    monkeypatch.setattr(qp, "_residuals", lambda w, eta, mass: (0.0, float("nan"), 0.0))
    with pytest.raises(MaxIterExceeded, match="residuals nan exceed"):
        solve(problem(0, k=4))


@pytest.mark.parametrize("cls", [ConeQpProblem, SimplexQpProblem])
def test_problem_copies_a_writable_matrix_and_adopts_a_frozen_one(cls):
    Q = random_cone(3, k=5).Q.copy()
    before = Q.copy()
    p = cls(Q, np.ones(5))
    Q[0, 0] += 1.0
    Q[1, 2] = Q[2, 1] = 0.0
    assert np.array_equal(p.Q, before)
    assert not p.Q.flags.writeable

    frozen = before.copy()
    frozen.setflags(write=False)
    assert np.shares_memory(cls(frozen, np.ones(5)).Q, frozen)
    # a read-only view of a writable buffer can still change under the problem
    view = before.view()
    view.setflags(write=False)
    assert not np.shares_memory(cls(view, np.ones(5)).Q, before)


# ---------------------------------------------------------------------------
# the engine's reduced simplex solve against the oracle's bordered one
# ---------------------------------------------------------------------------


def _newton_sphere_simplex(k):
    inst = assemble(InstanceSpec(
        3, RieszKernel(2.0), Sphere(1.0, k),
        charge=(ChargeAtom((1.3, 0.0, 0.0), 1.0), ChargeAtom((0.0, 0.8, 1.0), -0.8)),
    ))
    field = (inst.kernel.entries @ inst.omega.weights)[:k]
    return inst.kernel.restrict(inst.support), -field


def _random_spd_simplex(k):
    rng = np.random.default_rng(k)
    basis = rng.random((k, k + 3))
    Q = basis @ basis.T
    Q[np.diag_indices(k)] += 0.5 * (1.0 + rng.random(k))
    return Q, rng.standard_normal(k)


@pytest.mark.parametrize("k", [60, 400])
@pytest.mark.parametrize("make", [_newton_sphere_simplex, _random_spd_simplex])
def test_reduced_simplex_solve_matches_bordered_system(make, k):
    Q, f = make(k)
    free = np.ones(k, dtype=bool)
    z, _, c = qp._pivot_step(qp._FreeSetSolver(Q), -f, np.column_stack((-f, np.ones(k))), free)
    z_ref, c_ref = qp._bordered_simplex_solve(Q, f, free)
    assert np.max(np.abs(z - z_ref)) <= 1e-12 * max(1.0, float(np.max(np.abs(z_ref))))
    assert abs(c - c_ref) <= 1e-12 * abs(c_ref)


# ---------------------------------------------------------------------------
# the factor path: inverse Cholesky, and Schur steps against LU every step
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def factor_families():
    """Three SPD families up to k = 1000, each with its bound on R Q R^T - I.

    Largest entries measured over the sizes below: 1.1e-15 (Newtonian sphere,
    cond 2.1e2 at k = 1000), 4.4e-16 (random, cond about 5) and 5.3e-14
    (Riesz alpha = 2.9 ball, cond 4.1e4).
    """

    def random_spd(k):
        rng = np.random.default_rng(k)
        basis = rng.standard_normal((k, k)) / np.sqrt(k)
        return basis @ basis.T + np.eye(k)

    sphere = assemble(InstanceSpec(3, RieszKernel(2.0), Sphere(1.0, 1000))).kernel.entries
    ball = assemble(InstanceSpec(3, RieszKernel(2.9), Ball(1.0, 1000))).kernel.entries
    return {
        "newton-sphere": (lambda k: sphere[:k, :k], 1e-14),
        "random": (random_spd, 1e-14),
        "riesz-2.9-ball": (lambda k: ball[:k, :k], 1e-12),
    }


@pytest.mark.parametrize("k", [1, 2, 95, 96, 97, 191, 1000])
@pytest.mark.parametrize("family", ["newton-sphere", "random", "riesz-2.9-ball"])
def test_inverse_cholesky_inverts(factor_families, family, k):
    make, bound = factor_families[family]
    Q = make(k)
    R = core._inverse_cholesky(np.array(Q))
    assert np.max(np.abs(R @ Q @ R.T - np.eye(k))) <= bound
    assert not np.triu(R, 1).any()


@pytest.mark.parametrize("k", [2, 300])
def test_inverse_cholesky_rejects_indefinite(k):
    # positive diagonal, indefinite through the coupling of the first and last
    # index, which the recursion meets in a trailing Schur complement
    A = np.eye(k)
    A[0, -1] = A[-1, 0] = 2.0
    with pytest.raises(np.linalg.LinAlgError):
        core._inverse_cholesky(A)


@pytest.fixture(scope="module")
def mixed_charge_universes():
    """1600 nodes and a charge +1 at (2, 0, 0), -0.5 at (0, 0, 1.3)."""
    charge = (ChargeAtom((2.0, 0.0, 0.0), 1.0), ChargeAtom((0.0, 0.0, 1.3), -0.5))
    return {
        "newton-sphere": assemble(InstanceSpec(3, RieszKernel(2.0), Sphere(1.0, 1600), charge=charge)),
        "riesz-2.9-ball": assemble(InstanceSpec(3, RieszKernel(2.9), Ball(1.0, 1600), charge=charge)),
    }


@pytest.mark.parametrize("solve, make", [
    (solve_cone_qp, lambda Q, field: ConeQpProblem(Q, field)),
    (solve_simplex_qp, lambda Q, field: SimplexQpProblem(Q, -field)),
])
def test_factor_path_matches_lu_every_step(mixed_charge_universes, solve, make, monkeypatch):
    # whole 1600-node sphere, mixed charge, no inverse handed in: each problem
    # takes 9 steps and solves each free set afresh by Cholesky, against LU
    # solves (the crossover raised above every k)
    inst = mixed_charge_universes["newton-sphere"]
    n = inst.n_nodes
    p = make(inst.kernel.entries[:n, :n], (inst.kernel.entries @ inst.omega.weights)[:n])
    factored = []
    spd_solve = qp._spd_solve
    monkeypatch.setattr(qp, "_spd_solve", lambda A, B: factored.append(A.shape[0]) or spd_solve(A, B))
    w, report = solve(p)
    assert min(factored) >= core._CHOLESKY_MIN and max(factored) >= qp._FACTOR_MIN
    monkeypatch.setattr(core, "_CHOLESKY_MIN", n + 1)
    w_lu, report_lu = solve(p)
    assert np.array_equal(w > 0.0, w_lu > 0.0)
    assert report.iterations == report_lu.iterations > 2
    assert np.max(np.abs(w - w_lu)) <= 1e-12 * max(1.0, float(np.max(np.abs(w_lu))))


# ---------------------------------------------------------------------------
# the kernel's inverse seeds QPs on every support
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("spec", [
    InstanceSpec(3, RieszKernel(2.0), Sphere(1.0, 400)),
    InstanceSpec(3, RieszKernel(2.9), Ball(1.0, 400)),
    InstanceSpec(2, LogKernel(0.4), Ball(1.0, 400, (0.0, 0.0)), charge=(ChargeAtom((1.5, 0.0), 1.0),)),
    InstanceSpec(3, RieszKernel(2.0), ShellUnion(2.0, (90, 90, 90))),
], ids=["newton-sphere", "riesz-2.9-ball", "log-disc", "shell-union"])
def test_largest_kernel_entry_is_on_the_diagonal(spec):
    # so the simplex solver's dual_eps may read max diag Q for max |Q_ij|
    K = assemble(spec).kernel.entries
    assert np.max(np.abs(K)) == np.max(np.diagonal(K))
    Q = K[np.ix_(np.arange(0, K.shape[0], 3), np.arange(0, K.shape[0], 3))]
    assert np.max(np.abs(Q)) == np.max(np.diagonal(Q))


def test_seeded_solver_starts_from_the_factor():
    # the kernel hands its inverse G and its row sums to the solver, and G
    # serves any support; the right-hand side has a general column, the mass
    # column of the simplex (1 everywhere) and a zero one
    kernel = assemble(InstanceSpec(3, RieszKernel(2.0), Sphere(1.0, 1000))).kernel
    K, G, row_sums = kernel.entries, kernel.inverse, kernel.inverse_row_sums
    rng = np.random.default_rng(3)
    r = np.column_stack((rng.standard_normal(1000), np.ones(1000), np.zeros(1000)))

    def check(solve, free, served=True):
        idx, x, Qz = solve(free, r[:free.size])
        assert np.array_equal(idx, np.flatnonzero(free)) and (Qz is not None) is served
        ref = np.linalg.solve(solve.Q[np.ix_(idx, idx)], r[idx])
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert not x[:, 2].any()
        return x

    # the first step is a Schur step on the inverse handed in, for a leading,
    # an offset and a gathered support alike ...
    for ix in (np.arange(900), np.arange(100, 1000), np.flatnonzero(np.arange(1000) % 10)):
        solve = qp._FreeSetSolver(K[np.ix_(ix, ix)], qp._Inverse(G, row_sums, ix))
        free = np.ones(ix.size, dtype=bool)
        check(solve, free)
        free[::17] = False
        check(solve, free)
        assert solve.kept.G is G
    # ... when the rest of the universe outweighs the free set, solving Q_FF
    # afresh costs fewer flops than a Schur step: each such step is one fresh
    # Cholesky solve, which brings no products Q z, and the solver builds no
    # inverse of its own; the kernel's inverse stays for the whole QP
    kept = qp._Inverse(G, row_sums, np.arange(1000))
    solve = qp._FreeSetSolver(K, kept)
    for k in (450, 420, 400):
        check(solve, np.arange(1000) < k, served=False)
        assert solve.kept is kept and solve.factor is None
    # a free set that the kernel's inverse serves again is solved from it, bit
    # for bit as a first step on it
    free = np.arange(1000) >= 100
    x = check(solve, free)
    assert solve.kept is kept
    assert np.array_equal(x, qp._FreeSetSolver(K, kept)(free, r)[1])
    # a later step that leaves the kernel's inverse is a fresh solve, above
    # the gate and below it alike
    for k in (450, qp._FACTOR_MIN - 1):
        solve = qp._FreeSetSolver(K, kept)
        check(solve, np.ones(1000, dtype=bool))
        check(solve, np.arange(1000) < k, served=False)
        assert solve.kept is kept


class _Served(qp._FreeSetSolver):
    """The solver, keeping its last step and whether the kernel's inverse served each (it brings ``Q z``)."""

    def __init__(self, Q, kept=None):
        super().__init__(Q, kept)
        self.served = []

    def __call__(self, free, r):
        self.last = super().__call__(free, r)
        self.served.append(self.last[2] is not None)
        return self.last


def _unseeded(p):
    """``p`` built by the raw constructor, which seeds no inverse."""
    return type(p)(p.Q, p.b if isinstance(p, ConeQpProblem) else p.f)


@pytest.mark.parametrize("family", ["newton-sphere", "riesz-2.9-ball"])
@pytest.mark.parametrize("solve, make", [
    (solve_cone_qp, lambda kernel, ix, field: ConeQpProblem.on_kernel(kernel, SupportSet(ix), field)),
    (solve_simplex_qp, lambda kernel, ix, field: SimplexQpProblem.on_kernel(kernel, SupportSet(ix), -field)),
])
def test_seeded_factor_matches_lu_every_step(mixed_charge_universes, family, solve, make, monkeypatch):
    # whole-support (leading) QPs: seeded with the kernel's inverse, against no
    # inverse and the gate above every k (9 to 21 steps each)
    inst = mixed_charge_universes[family]
    n, kernel = inst.n_nodes, inst.kernel
    support = SupportSet(range(n))
    field = (kernel.entries @ inst.omega.weights)[:n]
    p = make(kernel, support.as_array(), field)
    w, report = solve(p)
    monkeypatch.setattr(qp, "_FACTOR_MIN", n + 1)
    w_lu, report_lu = solve(_unseeded(p))
    assert np.array_equal(w > 0.0, w_lu > 0.0)
    assert report.iterations == report_lu.iterations > 2
    assert np.max(np.abs(w - w_lu)) <= 1e-12 * max(1.0, float(np.max(np.abs(w_lu))))


def _warm_solve_sphere():
    """1600-node Newtonian sphere with 8 unit atoms at radii 1.1 to 3."""
    rng = np.random.default_rng(8)
    atoms = []
    for j in range(8):
        x = rng.standard_normal(3)
        radius = 1.1 + 1.9 * (j + rng.random()) / 8
        atoms.append(ChargeAtom(tuple(radius * x / np.linalg.norm(x)), 1.0))
    return assemble(InstanceSpec(3, RieszKernel(2.0), Sphere(1.0, 1600), charge=tuple(atoms)))


@pytest.fixture(scope="module")
def cap_universes(mixed_charge_universes):
    """The 8-atom sphere with +1, -0.7, +0.5 on three atoms, and the mixed-charge ball."""
    sphere = _warm_solve_sphere()
    omega = np.zeros(sphere.kernel.size)
    omega[sphere.n_nodes + np.array([0, 3, 6])] = [1.0, -0.7, 0.5]
    ball = mixed_charge_universes["riesz-2.9-ball"]
    return {
        "warm-solve-sphere": (sphere, omega),
        "riesz-2.9-ball": (ball, ball.omega.weights),
    }


def _cap(inst, frac):
    """Indices of the ``frac`` share of the nodes highest along a fixed axis."""
    height = inst.node_points() @ np.array([0.36, -0.48, 0.8])
    return np.sort(np.argsort(-height, kind="stable")[:int(round(frac * inst.n_nodes))])


@pytest.mark.parametrize("support", ["offset", "cap-0.70", "cap-0.80", "cap-0.90"])
@pytest.mark.parametrize("family", ["warm-solve-sphere", "riesz-2.9-ball"])
@pytest.mark.parametrize("solve, make", [
    (solve_cone_qp, lambda kernel, ix, field: ConeQpProblem.on_kernel(kernel, SupportSet(ix), field)),
    (solve_simplex_qp, lambda kernel, ix, field: SimplexQpProblem.on_kernel(kernel, SupportSet(ix), -field)),
])
def test_kernel_inverse_matches_lu_every_step_off_the_leading_block(
    cap_universes, family, support, solve, make, monkeypatch
):
    # offset runs and gathered caps of 70-90%: seeded with the kernel's
    # inverse, whose first step is a Schur step, against no inverse and the
    # gate above every k
    inst, omega = cap_universes[family]
    n, kernel = inst.n_nodes, inst.kernel
    ix = np.arange(n // 10, n) if support == "offset" else _cap(inst, float(support[4:]))
    field = (kernel.entries @ omega)[ix]
    solvers = []
    monkeypatch.setattr(qp, "_FreeSetSolver", lambda Q, kept: solvers.append(_Served(Q, kept)) or solvers[-1])
    p = make(kernel, ix, field)
    w, report = solve(p)
    assert solvers[0].kept.G is kernel.inverse and solvers[0].served[0]
    monkeypatch.setattr(qp, "_FACTOR_MIN", n + 1)
    w_lu, report_lu = solve(_unseeded(p))
    assert np.array_equal(w > 0.0, w_lu > 0.0)
    assert report.iterations == report_lu.iterations
    assert np.max(np.abs(w - w_lu)) <= 1e-12 * max(1.0, float(np.max(np.abs(w_lu))))


@pytest.mark.parametrize("mass", [False, True], ids=["cone", "simplex"])
def test_kept_factor_matches_lu_at_every_step(cap_universes, mass):
    # a gathered 80% cap of the warm-solve sphere, whose problem holds no Q:
    # the kernel's inverse serves the large free sets, keeping its factor of
    # G_DD from step to step; a free set it serves at a higher cost than a
    # fresh solve is solved afresh by Cholesky, and the factor stays
    inst, omega = cap_universes["warm-solve-sphere"]
    kernel = inst.kernel
    u = kernel.entries @ omega
    ix = _cap(inst, 0.8)
    b = u[ix]
    cls = SimplexQpProblem if mass else ConeQpProblem
    p = cls.on_kernel(kernel, SupportSet(ix), -b if mass else b, _charge=(omega, u))
    assert p._matrix is None
    Q = p.Q
    r = np.column_stack((b, np.ones(b.size)))[:, :1 + mass]
    solve = _Served(None, p.inverse)
    rng = np.random.default_rng(5)

    def step(free, served):
        w, y, c = qp._pivot_step(solve, b, r, free)
        idx, x, _ = solve.last
        assert solve.served[-1] is served and np.array_equal(idx, np.flatnonzero(free))
        assert idx.size >= qp._FACTOR_MIN
        ref = np.linalg.solve(Q[np.ix_(idx, idx)], r[idx])
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))
        ref = Q @ w - b - (c if mass else 0.0)
        scale = max(1.0, float(np.max(np.abs(Q @ w))), float(np.max(np.abs(b))))
        assert np.max(np.abs(y - ref)[~free], initial=0.0) <= 1e-12 * scale

    def leave(free, count):
        out = rng.choice(np.flatnonzero(free), size=count, replace=False)
        free = free.copy()
        free[out] = False
        return free, out

    # the whole cap: D, the rest of the universe, is factored from scratch
    free = np.ones(ix.size, dtype=bool)
    step(free, True)
    factor = solve.factor
    first = factor.order.copy()
    assert first.size == kernel.size - ix.size
    # 100 indices leave F: D keeps its order and grows by bordering
    free, out = leave(free, 100)
    step(free, True)
    assert solve.factor is factor and factor.order.size == first.size + 100
    assert np.array_equal(factor.order[:first.size], first) and len(factor.blocks) > 1
    grown = factor.order.copy()
    # 10 of them return and 40 more leave: D keeps the prefix before the
    # first returning index and borders the rest of D anew
    free[out[:10]] = True
    free, _ = leave(free, 40)
    step(free, True)
    cut = int(np.flatnonzero(np.isin(grown, ix[out[:10]]))[0])
    assert first.size <= cut < grown.size
    assert np.array_equal(factor.order[:cut], grown[:cut]) and factor.order.size == grown.size + 30
    assert not np.isin(factor.order, ix[free]).any()
    # a free set of 560, and the free sets inside it, leave the kernel's
    # inverse for fresh solves, which leave its factor as it was
    order = factor.order.copy()
    free = np.arange(ix.size) < 560
    step(free, False)
    free, out = leave(free, 80)
    step(free, False)
    free[out[:5]] = True
    free, _ = leave(free, 10)
    step(free, False)
    assert solve.factor is factor and np.array_equal(factor.order, order)
    # a D of at most 1/8 of the universe is solved afresh from its rows of G,
    # and keeps no factor: 168 indices on the kernel's inverse for a 90% cap
    ix = _cap(inst, 0.9)
    b = u[ix]
    p = cls.on_kernel(kernel, SupportSet(ix), -b if mass else b, _charge=(omega, u))
    Q, solve = p.Q, _Served(None, p.inverse)
    r = np.column_stack((b, np.ones(b.size)))[:, :1 + mass]
    step(np.ones(ix.size, dtype=bool), True)
    assert solve.factor is None


def _support(kind: str, n: int, rng) -> SupportSet:
    k = int(rng.integers(2, 13))
    if kind == "leading":
        return SupportSet(range(k))
    if kind == "offset":
        start = int(rng.integers(1, n - k + 1))
        return SupportSet(range(start, start + k))
    return SupportSet(rng.choice(n, size=k, replace=False))


@pytest.mark.parametrize("kind", ["leading", "offset", "gathered"])
@pytest.mark.parametrize("name", sorted(GEOMETRIC_SPECS))
def test_library_solves_match_oracles_on_every_support_kind(name, kind, monkeypatch):
    # every kind of support hands its QPs the kernel's inverse and its indices
    inst = assemble(GEOMETRIC_SPECS[name])
    kernel = inst.kernel
    potential = kernel.entries @ inst.omega.weights
    seen = []
    for module, solver in ((finpot.balayage, "solve_cone_qp"), (finpot.gauss, "solve_simplex_qp")):
        real = getattr(module, solver)
        monkeypatch.setattr(module, solver, lambda p, real=real, **kw: seen.append(p) or real(p, **kw))
    rng = np.random.default_rng(11)
    for _ in range(6):
        support = _support(kind, inst.n_nodes, rng)
        idx = support.as_array()
        Q = kernel.restrict(support)
        for p, solve, oracle in (
            (ConeQpProblem(Q, potential[idx]), pseudo_balayage, brute_force_cone),
            (SimplexQpProblem(Q, -potential[idx]), solve_gauss, brute_force_simplex),
        ):
            w = solve(kernel, inst.omega, support).measure.weights[idx]
            assert seen[-1].inverse.G is kernel.inverse
            assert np.array_equal(seen[-1].inverse.where, idx)
            ref = oracle(p)
            assert np.max(np.abs(w - ref)) <= 1e-8
            assert abs(p.objective(w) - p.objective(ref)) <= 1e-10


# ---------------------------------------------------------------------------
# problems on a certified kernel
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def sphere_400():
    """400 nodes and a charge +1 at (2, 0, 0), -0.5 at (0, 0, 1.3)."""
    charge = (ChargeAtom((2.0, 0.0, 0.0), 1.0), ChargeAtom((0.0, 0.0, 1.3), -0.5))
    return assemble(InstanceSpec(3, RieszKernel(2.0), Sphere(1.0, 400), charge=charge))


_KERNEL_SUPPORTS = {
    "leading": SupportSet(range(300)),
    "offset": SupportSet(range(60, 400)),
    "gathered": SupportSet(i for i in range(400) if i % 7),
}


@pytest.mark.parametrize("kind", sorted(_KERNEL_SUPPORTS))
@pytest.mark.parametrize("cls, solve, sign", [
    (ConeQpProblem, solve_cone_qp, 1.0), (SimplexQpProblem, solve_simplex_qp, -1.0),
])
def test_on_kernel_problem_solves_as_the_raw_one(sphere_400, kind, cls, solve, sign):
    # what on_kernel does not check holds: the raw constructor's checks pass
    # on the same data, and only the seeded inverse tells the two apart
    kernel, support = sphere_400.kernel, _KERNEL_SUPPORTS[kind]
    idx = support.as_array()
    field = sign * (kernel.entries @ sphere_400.omega.weights)[idx]
    p = cls.on_kernel(kernel, support, field)
    raw = cls(kernel.restrict(support), field)
    for name in ("Q", "b" if cls is ConeQpProblem else "f"):
        assert np.array_equal(getattr(p, name), getattr(raw, name))
    assert raw.inverse is None
    assert p.inverse.G is kernel.inverse and p.inverse.row_sums is kernel.inverse_row_sums
    assert p.inverse.where is idx
    assert not p.Q.flags.writeable and not p.inverse.where.flags.writeable
    w, report = solve(p)
    w_raw, report_raw = solve(raw)
    assert np.array_equal(w > 0.0, w_raw > 0.0)
    assert report.iterations == report_raw.iterations > 1
    assert np.max(np.abs(w - w_raw)) <= 1e-12 * max(1.0, float(np.max(np.abs(w_raw))))


def test_on_kernel_checks_its_vector_and_support(sphere_400):
    kernel = sphere_400.kernel
    with pytest.raises(ValueError, match="finite"):
        ConeQpProblem.on_kernel(kernel, SupportSet(range(3)), [1.0, np.nan, 0.0])
    with pytest.raises(ValueError, match="length 3"):
        SimplexQpProblem.on_kernel(kernel, SupportSet(range(3)), np.zeros(4))
    with pytest.raises(core.SizeMismatchError):
        ConeQpProblem.on_kernel(kernel, SupportSet([0, kernel.size]), np.zeros(2))


def _gradient_residuals(p, w, report):
    """The report's residuals, recomputed from a fresh gradient."""
    g = p.gradient(w)
    negative = float(max(0.0, -float(w.min())))
    if report.multiplier is None:
        feasibility = negative
    else:
        g = g - 2.0 * report.multiplier
        feasibility = float(max(abs(float(w.sum()) - 1.0), negative))
    return float(max(0.0, -float(g.min()))), float(np.max(np.abs(w * g))), feasibility


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("make, solve", [
    (random_cone, solve_cone_qp), (random_simplex, solve_simplex_qp),
])
def test_reported_residuals_are_those_of_a_fresh_gradient(make, solve, seed):
    p = make(seed, kmax=40)
    w, report = solve(p)
    assert (report.stationarity_residual, report.complementarity_residual,
            report.feasibility_residual) == _gradient_residuals(p, w, report)


@pytest.mark.parametrize("budget", [1, qp._MAX_SOLVES])
@pytest.mark.parametrize("make, solve", [
    (random_cone, solve_cone_qp), (random_simplex, solve_simplex_qp),
])
def test_max_iter_exceeded_residuals_are_those_of_a_fresh_gradient(make, solve, budget, monkeypatch):
    # an unattainable tol raises on the accepted iterate; a budget of one
    # solve from an infeasible start raises on the fewest-infeasible one
    monkeypatch.setattr(qp, "_MAX_SOLVES", budget)
    p = make(3, k=40)
    w0 = np.ones(p.size) if budget == 1 else None
    with pytest.raises(MaxIterExceeded) as err:
        solve(p, tol=1e-300, w0=w0)
    w, report = err.value.best_w, err.value.report
    if budget == 1:
        assert report.iterations == 1 and (w < 0.0).any()
    assert (report.stationarity_residual, report.complementarity_residual,
            report.feasibility_residual) == _gradient_residuals(p, w, report)


def test_fewest_infeasible_iterate_reports_its_own_residuals(monkeypatch):
    # the cycling instance of the single-pivot test: each full exchange leaves
    # two infeasible indices, so with three solves the first iterate, on
    # {0, 1}, is the one returned, and its residuals are not the last step's
    monkeypatch.setattr(qp, "_MAX_SOLVES", 3)
    p = ConeQpProblem([[7.0, 6.0, -4.0], [6.0, 6.0, -5.0], [-4.0, -5.0, 7.0]], [1.0, 4.0, -6.0])
    with pytest.raises(MaxIterExceeded) as err:
        solve_cone_qp(p)
    w, report = err.value.best_w, err.value.report
    assert w[0] < 0.0 < w[1] and w[2] == 0.0
    assert (report.stationarity_residual, report.complementarity_residual,
            report.feasibility_residual) == _gradient_residuals(p, w, report)


@pytest.mark.parametrize("kind", sorted(_KERNEL_SUPPORTS))
def test_solve_values_are_the_gauss_functional(sphere_400, kind):
    kernel, omega, support = sphere_400.kernel, sphere_400.omega, _KERNEL_SUPPORTS[kind]
    zero = core.Measure.zero(kernel.size)
    for charge, res in (
        (omega, pseudo_balayage(kernel, omega, support)),
        (omega, solve_gauss(kernel, omega, support)),
        (zero, solve_gauss(kernel, zero, support)),
    ):
        assert res.value == core.gauss_functional(kernel, charge, res.measure)


def test_library_solves_do_not_revalidate_the_kernel(sphere_400, monkeypatch):
    from finpot.gauss import capacitary_measure, solvability_check

    checked = []
    real = qp._as_sym_matrix
    monkeypatch.setattr(qp, "_as_sym_matrix", lambda Q: checked.append(Q) or real(Q))
    kernel, omega = sphere_400.kernel, sphere_400.omega
    for support in _KERNEL_SUPPORTS.values():
        pseudo_balayage(kernel, omega, support)
        solve_gauss(kernel, omega, support)
        capacitary_measure(kernel, support)
        solvability_check(kernel, omega, support)
    assert not checked
    ConeQpProblem(np.eye(2), np.ones(2))
    assert len(checked) == 1


class _Counted(np.ndarray):
    """A view of a kernel matrix that logs each product reading most of it.

    A product counts when one factor is a 2-D view of the matrix with both
    sides above half of its ``m``: the matrix or a principal block of it,
    never a few gathered rows.  The result of any ufunc is a plain array.
    """

    def __array_finalize__(self, obj):
        self.name = getattr(obj, "name", None)
        self.log = getattr(obj, "log", None)
        self.m = getattr(obj, "m", None)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            self.log.extend(x.name for x in inputs
                            if isinstance(x, _Counted) and x.ndim == 2 and min(x.shape) > x.m // 2)
        plain = tuple(np.asarray(x) for x in inputs)
        if "out" in kwargs:
            kwargs["out"] = tuple(np.asarray(x) for x in kwargs["out"])
        return getattr(ufunc, method)(*plain, **kwargs)


def _counted(a: np.ndarray, name: str, log: list) -> _Counted:
    view = a.view(_Counted)
    view.name, view.log, view.m = name, log, a.shape[0]
    return view


def test_one_step_whole_support_solves_make_one_kernel_product_and_none_with_the_inverse():
    # a positive charge off the sphere sweeps onto every node, so each solve
    # settles in one Schur step on the kernel's inverse: it gathers the rows
    # of the rest D (the charge's node), and its final gradient K @ w is the
    # potential that certifies the answer
    inst = assemble(InstanceSpec(3, RieszKernel(2.0), Sphere(1.0, 400),
                                 charge=(ChargeAtom((2.0, 0.0, 0.0), 1.0),)))
    kernel, omega, support = inst.kernel, inst.omega, inst.support
    log = []
    kernel.entries = _counted(kernel.entries, "K", log)
    kernel.pd_certificate = dataclasses.replace(
        kernel.pd_certificate, inverse=_counted(kernel.inverse, "G", log)
    )
    from finpot.gauss import capacitary_measure

    for solve in (lambda: pseudo_balayage(kernel, omega, support),
                  lambda: solve_gauss(kernel, omega, support),
                  lambda: capacitary_measure(kernel, support)):
        log.clear()
        assert solve().kkt.iterations == 1
        assert log == ["K"]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("mass", [False, True], ids=["cone", "simplex"])
def test_kernel_step_dual_is_that_of_q(seed, mass):
    # a Schur step on the kernel's inverse reads its dual off F from its own
    # Schur solve, and a vector that is the potential of a charge is solved
    # from the charge: both agree with Q @ w - b - c
    m = 120
    kernel = random_spd_kernel(seed, m)
    rng = np.random.default_rng(seed + 100)
    support = SupportSet(np.sort(rng.choice(m, size=110, replace=False)))
    omega = rng.standard_normal(m) * (rng.random(m) < 0.3)
    u = kernel.entries @ omega
    idx = support.as_array()
    cls = SimplexQpProblem if mass else ConeQpProblem
    p = cls.on_kernel(kernel, support, -u[idx] if mass else u[idx], _charge=(omega, u))
    b = u[idx]
    r = np.column_stack((b, np.ones(b.size))) if mass else b[:, None]
    Q = kernel.restrict(support)
    for _ in range(4):
        free = rng.random(idx.size) < 0.9
        solve = _Served(p.Q, p.inverse)
        w, y, c = qp._pivot_step(solve, b, r, free)
        assert solve.served == [True]
        ref = Q @ w - b - (c if mass else 0.0)
        scale = max(1.0, float(np.max(np.abs(Q @ w))), float(np.max(np.abs(b))))
        assert np.max(np.abs(y - ref)[~free]) <= 1e-12 * scale
        w_lu, _, c_lu = qp._pivot_step(qp._FreeSetSolver(Q), b, r, free)
        assert np.max(np.abs(w - w_lu)) <= 1e-12 * max(1.0, float(np.max(np.abs(w_lu))))


@pytest.mark.parametrize("kind", sorted(_KERNEL_SUPPORTS))
def test_the_solve_hands_its_product_only_to_the_answer_it_returned(sphere_400, kind):
    kernel, support = sphere_400.kernel, _KERNEL_SUPPORTS[kind]
    idx = support.as_array()
    u = kernel.entries @ sphere_400.omega.weights

    def embedded(w):
        full = np.zeros(kernel.size)
        full[idx] = w
        return core.potential(kernel, core.Measure(full))

    p = ConeQpProblem.on_kernel(kernel, support, u[idx], _charge=(sphere_400.omega.weights, u))
    w, _ = solve_cone_qp(p)
    assert not w.flags.writeable
    kept = p._product[1]
    assert p._potential(w) is kept and p._product is None
    assert np.array_equal(kept, embedded(w))
    # the same weights in another array, or the answer asked for twice, get a product of their own
    for other in (w.copy(), w):
        assert p._potential(other) is not kept
    w, _ = solve_cone_qp(p)
    nudged = w.copy()
    nudged[0] += 0.01
    assert np.array_equal(p._potential(nudged), embedded(nudged))
