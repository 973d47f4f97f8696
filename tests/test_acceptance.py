"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole suite is seeded and deterministic.
"""

import time

import numpy as np
import pytest

from finpot import qp
from finpot.balayage import pseudo_balayage
from finpot.core import Measure, SupportSet, energy_distance
from finpot.experiments import LEAKS, STABILIZES, monotone_down, monotone_up, solvability_scan
from finpot.fixtures import mixed_instance, nested_chain, random_spd_kernel
from finpot.gauss import capacitary_measure, solve_gauss
from finpot.instances import (
    ChargeAtom,
    InstanceSpec,
    RieszKernel,
    ShellUnion,
    Sphere,
    assemble,
)
from finpot.qp import (
    ConeQpProblem,
    SimplexQpProblem,
    brute_force_cone,
    brute_force_simplex,
    solve_cone_qp,
    solve_simplex_qp,
)


def announce(number: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def characterization_instances(count=50, seed0=1000):
    """Seeded mixed-sign instances with m <= 60 shared by criteria 2 and 5."""
    out = []
    master = np.random.default_rng(487)
    sizes = master.integers(10, 61, size=count)
    for j in range(count):
        out.append(mixed_instance(seed0 + j, int(sizes[j])))
    return out


# ---------------------------------------------------------------------------


def test_criterion_1_oracle_equivalence(monkeypatch):
    # with the gate at 1 every step after an instance's first runs on the factor
    monkeypatch.setattr(qp, "_FACTOR_MIN", 1)
    t0 = time.time()
    rng = np.random.default_rng(20240501)
    worst_w, worst_obj = 0.0, 0.0
    for _ in range(200):
        k = int(rng.integers(1, 11))
        basis = rng.random((k, k + 2))
        Q = basis @ basis.T
        Q = (Q + Q.T) / 2.0
        Q[np.diag_indices(k)] += 0.5
        p = ConeQpProblem(Q, rng.standard_normal(k))
        w, _ = solve_cone_qp(p)
        ref = brute_force_cone(p)
        worst_w = max(worst_w, float(np.max(np.abs(w - ref))))
        worst_obj = max(worst_obj, abs(p.objective(w) - p.objective(ref)))
    for _ in range(200):
        k = int(rng.integers(1, 11))
        basis = rng.random((k, k + 2))
        Q = basis @ basis.T
        Q = (Q + Q.T) / 2.0
        Q[np.diag_indices(k)] += 0.5
        p = SimplexQpProblem(Q, rng.standard_normal(k))
        w, _ = solve_simplex_qp(p)
        ref = brute_force_simplex(p)
        worst_w = max(worst_w, float(np.max(np.abs(w - ref))))
        worst_obj = max(worst_obj, abs(p.objective(w) - p.objective(ref)))
    elapsed = time.time() - t0
    ok = worst_w <= 1e-8 and worst_obj <= 1e-10 and elapsed < 30.0
    announce(
        1,
        ok,
        f"400 instances vs enumeration: weights {worst_w:.2e} (<=1e-8), "
        f"objective {worst_obj:.2e} (<=1e-10), {elapsed:.1f}s (<30s)",
    )


def test_criterion_2_characterization_suite():
    t0 = time.time()
    worst_def1 = 0.0
    worst_comp = 0.0
    worst_def2p = 0.0
    worst_value = -np.inf
    for kernel, omega, support in characterization_instances():
        bal = pseudo_balayage(kernel, omega, support)
        idx = support.as_array()
        gap = kernel.entries @ bal.measure.weights - kernel.entries @ omega.weights
        worst_def1 = max(worst_def1, float(max(0.0, -gap[idx].min())))
        worst_comp = max(worst_comp, bal.kkt.complementarity_residual)
        worst_def2p = max(worst_def2p, abs(float(bal.measure.weights @ gap)))
        worst_value = max(worst_value, bal.value)
        assert bal.value > -1e6
    elapsed = time.time() - t0
    ok = (
        worst_def1 <= 1e-8
        and worst_comp <= 1e-8
        and worst_def2p <= 1e-8
        and worst_value <= 1e-10
        and elapsed < 60.0
    )
    announce(
        2,
        ok,
        f"50 instances: dominance gap {worst_def1:.2e}, complementarity "
        f"{worst_comp:.2e}, gap integral {worst_def2p:.2e} (all <=1e-8), "
        f"max value {worst_value:.2e} (<=1e-10), {elapsed:.1f}s (<60s)",
    )


def test_criterion_3_degenerate_exactness():
    worst_zero = 0.0
    rng = np.random.default_rng(77)
    for seed in range(10):
        m = int(rng.integers(5, 30))
        kernel = random_spd_kernel(seed + 300, m)
        omega = Measure(-np.abs(np.random.default_rng(seed).random(m)) - 0.01)
        support = SupportSet(sorted(np.random.default_rng(seed + 1).choice(m, size=max(1, m // 2), replace=False)))
        bal = pseudo_balayage(kernel, omega, support)
        worst_zero = max(worst_zero, float(np.max(np.abs(bal.measure.weights))), abs(bal.value))
    worst_scale = 0.0
    checked = 0
    for seed in range(2000, 2100):
        kernel, omega, support = mixed_instance(seed, 14)
        base = pseudo_balayage(kernel, omega, support)
        if base.mass <= 0.05:
            continue
        for q in (0.5, 2.0, 10.0):
            scaled = pseudo_balayage(kernel, omega.scaled(q), support)
            worst_scale = max(
                worst_scale, float(np.max(np.abs(scaled.measure.weights - q * base.measure.weights)))
            )
        checked += 1
        if checked == 10:
            break
    ok = worst_zero <= 1e-12 and worst_scale <= 1e-8 and checked == 10
    announce(
        3,
        ok,
        f"negative charges sweep to {worst_zero:.2e} (<=1e-12); scaling "
        f"equivariance over q in {{0.5,2,10}} within {worst_scale:.2e} (<=1e-8)",
    )


def test_criterion_4_strong_cauchy_chains():
    # the reports compare every stage against an independent cold solve of
    # the final set, so final_distance pits the chained route against the
    # direct one rather than a value against itself
    worst_slack = 0.0
    worst_final = 0.0
    m, stages = 60, 5
    for seed in range(3000, 3010):
        kernel, omega, _ = mixed_instance(seed, m)
        chain = nested_chain(seed + 17, m, stages)
        rep = monotone_up(kernel, omega, chain)
        worst_slack = max(worst_slack, -min(rep.fund_slack))
        worst_final = max(worst_final, rep.final_distance)
    for seed in range(3100, 3110):
        kernel, omega, _ = mixed_instance(seed, m)
        chain = nested_chain(seed + 31, m, stages)[::-1]
        rep = monotone_down(kernel, omega, chain)
        worst_slack = max(worst_slack, -min(rep.fund_slack))
        worst_final = max(worst_final, rep.final_distance)
    ok = worst_slack <= 1e-8 and worst_final <= 1e-8
    announce(
        4,
        ok,
        f"20 five-stage chains: strong-Cauchy slack >= -{worst_slack:.2e} "
        f"(tol 1e-8), final-stage distance {worst_final:.2e} (<=1e-8)",
    )


def test_criterion_5_gauss_suite():
    worst_dom = 0.0
    worst_supp = 0.0
    worst_const = 0.0
    worst_order = -np.inf
    for kernel, omega, support in characterization_instances():
        res = solve_gauss(kernel, omega, support)
        bal = pseudo_balayage(kernel, omega, support)
        idx = support.as_array()
        lam = res.measure.weights
        weighted = kernel.entries @ lam - kernel.entries @ omega.weights
        c = res.equilibrium_constant
        worst_dom = max(worst_dom, float(max(0.0, c - weighted[idx].min())))
        on_support = idx[lam[idx] > 1e-7]
        if on_support.size:
            worst_supp = max(worst_supp, float(np.max(np.abs(weighted[on_support] - c))))
        worst_const = max(worst_const, abs(float(res.kkt.multiplier) - float(lam @ weighted)))
        worst_order = max(worst_order, bal.value - res.value)
    ok = (
        worst_dom <= 1e-8
        and worst_supp <= 1e-8
        and worst_const <= 1e-9
        and worst_order <= 1e-10
    )
    announce(
        5,
        ok,
        f"equilibrium dominance {worst_dom:.2e}, support equality {worst_supp:.2e} "
        f"(<=1e-8), constant routes {worst_const:.2e} (<=1e-9), "
        f"value ordering slack {worst_order:.2e} (<=1e-10)",
    )


def test_criterion_6_mass_one_identification():
    worst = 0.0
    checked = 0
    for seed in range(4000, 4200):
        kernel, omega, support = mixed_instance(seed, 16)
        bal = pseudo_balayage(kernel, omega, support)
        if bal.mass <= 0.05:
            continue
        unit = omega.scaled(1.0 / bal.mass)
        bal_unit = pseudo_balayage(kernel, unit, support)
        res = solve_gauss(kernel, unit, support)
        worst = max(worst, energy_distance(kernel, res.measure, bal_unit.measure))
        checked += 1
        if checked == 20:
            break
    ok = checked == 20 and worst <= 1e-7
    announce(
        6,
        ok,
        f"20 rescaled instances: ||minimizer - sweep|| {worst:.2e} (<=1e-7)",
    )


def aitken_limit(values):
    c1, c2, c3 = values
    denom = c2 - c1
    if denom == 0.0:
        return c3
    r = (c3 - c2) / denom
    if not 0.0 < abs(r) < 1.0:
        return c3
    return c3 + (c3 - c2) * r / (1.0 - r)


def midpoint_probe(nodes, radius):
    d = np.linalg.norm(nodes[:, None, :] - nodes[None, :, :], axis=2)
    np.fill_diagonal(d, np.inf)
    nn = np.argmin(d, axis=1)
    mids = (nodes + nodes[nn]) / 2.0
    return radius * mids / np.linalg.norm(mids, axis=1, keepdims=True)


def test_criterion_7_newtonian_desk_scale():
    t0 = time.time()
    caps, masses, frost = [], [], []
    for m in (500, 1000, 2000):
        spec = InstanceSpec(
            3, RieszKernel(2.0), Sphere(1.0, m), charge=(ChargeAtom((2.0, 0.0, 0.0), 1.0),)
        )
        inst = assemble(spec)
        cap = capacitary_measure(inst.kernel, inst.support)
        caps.append(cap.capacity)
        bal = pseudo_balayage(inst.kernel, inst.omega, inst.support)
        masses.append(bal.mass)
        nodes = inst.node_points()
        probe = midpoint_probe(nodes, 1.0)
        dist = np.linalg.norm(probe[:, None, :] - nodes[None, :, :], axis=2)
        pot = (1.0 / dist) @ cap.gamma.weights[: inst.n_nodes]
        frost.append(float(pot.max() - 1.0))
    cap_limit = aitken_limit(caps)
    mass_limit = aitken_limit(masses)
    cap_dev = abs(caps[-1] - cap_limit) / abs(cap_limit)
    mass_dev = abs(masses[-1] - mass_limit) / abs(mass_limit)
    decreasing = all(frost[j + 1] < frost[j] + 1e-3 for j in range(2))
    elapsed = time.time() - t0
    ok = cap_dev <= 0.02 and mass_dev <= 0.02 and decreasing and elapsed < 300.0
    announce(
        7,
        ok,
        f"m=2000 sphere: capacity {caps[-1]:.4f} within {100 * cap_dev:.2f}% of "
        f"limit {cap_limit:.4f}; swept mass {masses[-1]:.4f} within "
        f"{100 * mass_dev:.2f}% of limit {mass_limit:.4f} (both <=2%); "
        f"equilibrium overshoot {frost} decreasing; {elapsed:.0f}s (<300s)",
    )


def test_criterion_8_mass_bounds():
    fixtures = [
        # (spec, h) pairs: order <= 2 carries the sharp constant 1
        (InstanceSpec(3, RieszKernel(2.0), Sphere(1.0, 1200),
                      charge=(ChargeAtom((0.3, 0.0, 0.0), 1.0),)), 1.0),
        (InstanceSpec(3, RieszKernel(2.0), Sphere(1.0, 500),
                      charge=(ChargeAtom((2.0, 0.0, 0.0), 1.0),)), 1.0),
        (InstanceSpec(3, RieszKernel(1.0), Sphere(1.0, 250),
                      charge=(ChargeAtom((2.0, 0.0, 0.0), 1.0),)), 1.0),
        (InstanceSpec(2, RieszKernel(1.5), Sphere(1.0, 200, (0.0, 0.0)),
                      charge=(ChargeAtom((1.8, 0.0), 1.0),)), 1.0),
        (InstanceSpec(3, RieszKernel(2.0), Sphere(1.0, 500),
                      charge=(ChargeAtom((0.3, 0.0, 0.0), 1.0),
                              ChargeAtom((0.0, 2.0, 0.0), -0.7))), 1.0),
        # order above 2: the constant is 2 ** (n - alpha)
        (InstanceSpec(3, RieszKernel(2.5), Sphere(1.0, 250),
                      charge=(ChargeAtom((0.3, 0.0, 0.0), 1.0),)), 2.0 ** (3 - 2.5)),
    ]
    details = []
    ok = True
    for spec, h in fixtures:
        inst = assemble(spec)
        assert inst.h == pytest.approx(h)
        bal = pseudo_balayage(inst.kernel, inst.omega, inst.support)
        bound = h * inst.omega.positive_part.mass * 1.02
        ok = ok and bal.mass <= bound
        details.append(f"{bal.mass:.4f}<={bound:.4f}")
    announce(8, ok, "swept mass within h * (positive mass) * 1.02 on all Riesz fixtures: " + ", ".join(details))


def test_criterion_9_solvability_scan():
    t0 = time.time()
    # truncations are sized so the outermost 20% of nodes covers at least the
    # outermost shell at the two final stages, where the verdict is read
    family = []
    for shells in (4, 5, 6):
        spec = InstanceSpec(
            3,
            RieszKernel(2.0),
            ShellUnion(2.0, (48,) * shells),
            charge=(ChargeAtom((0.3, 0.0, 0.0), 1.0),),
        )
        family.append(assemble(spec))
    table = solvability_scan(family, scalings=[0.2, 0.4, 1.0, 1.5])
    verdicts = {row.scaling: row.verdict for row in table.rows}
    interior_ok = all(
        all(c.interior_mass_fraction >= 0.5 for c in row.cells[-2:])
        for row in table.rows
        if row.omega_plus_mass >= 1.0
    )
    leak_ok = all(
        row.verdict == LEAKS for row in table.rows if row.omega_plus_mass < 1.0
    )
    stable_ok = all(
        row.verdict == STABILIZES for row in table.rows if row.omega_plus_mass >= 1.0
    )
    elapsed = time.time() - t0
    ok = interior_ok and leak_ok and stable_ok and elapsed < 300.0
    announce(
        9,
        ok,
        f"not-thin shell family: verdicts {verdicts} (sub-unit mass leaks, "
        f"mass >= 1 stabilizes with interior fraction >= 0.5); {elapsed:.0f}s (<300s)",
    )
