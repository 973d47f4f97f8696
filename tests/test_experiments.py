import numpy as np
import pytest

from finpot.core import KernelMatrix, Measure, NotNested, SupportSet
from finpot.experiments import (
    LEAKS,
    STABILIZES,
    fund_inequality_slack,
    monotone_down,
    monotone_up,
    solvability_scan,
    ugaheri_estimate,
)
from finpot.fixtures import mixed_instance, nested_chain, random_spd_kernel
from finpot.instances import (
    Ball,
    ChargeAtom,
    InstanceSpec,
    RieszKernel,
    ShellUnion,
    Sphere,
    assemble,
)


def shell_family(truncations=(3, 4, 5), per_shell=48, mass=1.0, extra=()):
    out = []
    for shells in truncations:
        spec = InstanceSpec(
            3,
            RieszKernel(2.0),
            ShellUnion(2.0, (per_shell,) * shells),
            charge=(ChargeAtom((0.3, 0.0, 0.0), mass), *extra),
        )
        out.append(assemble(spec))
    return out


# ---------------------------------------------------------------------------
# monotone chains
# ---------------------------------------------------------------------------


def test_single_stage_chain_is_trivial():
    kernel, omega, support = mixed_instance(2, 10)
    rep = monotone_up(kernel, omega, [support])
    assert rep.final_distance == 0.0
    assert rep.stage_norms == (0.0,)
    assert rep.fund_slack == ()


def test_five_stage_up_chain():
    kernel, omega, _ = mixed_instance(5, 60)
    chain = nested_chain(6, 60, 5)
    rep = monotone_up(kernel, omega, chain)
    assert len(rep.stage_values) == len(chain)
    assert min(rep.fund_slack) >= -1e-8
    assert all(
        rep.stage_values[j + 1] <= rep.stage_values[j] + 1e-10
        for j in range(len(chain) - 1)
    )
    assert rep.final_distance <= 1e-8
    # distances to the final sweep shrink along the chain overall
    assert rep.stage_norms[-1] <= rep.stage_norms[0]


def test_five_stage_down_chain():
    kernel, omega, _ = mixed_instance(7, 60)
    chain = nested_chain(8, 60, 5)[::-1]
    rep = monotone_down(kernel, omega, chain)
    assert min(rep.fund_slack) >= -1e-8
    assert all(
        rep.stage_values[j] <= rep.stage_values[j + 1] + 1e-10
        for j in range(len(chain) - 1)
    )
    assert rep.final_distance <= 1e-8


def test_negative_charge_chain_is_identically_zero():
    kernel = random_spd_kernel(4, 20)
    omega = Measure(-np.abs(np.random.default_rng(5).random(20)))
    chain = nested_chain(9, 20, 4)
    rep = monotone_up(kernel, omega, chain)
    assert all(v == 0.0 for v in rep.stage_values)
    assert all(d == 0.0 for d in rep.stage_norms)
    rep_down = monotone_down(kernel, omega, chain[::-1])
    assert all(v == 0.0 for v in rep_down.stage_values)


def test_chain_direction_validation():
    kernel, omega, _ = mixed_instance(11, 12)
    chain = nested_chain(12, 12, 3)
    with pytest.raises(NotNested):
        monotone_up(kernel, omega, chain[::-1])
    with pytest.raises(NotNested):
        monotone_down(kernel, omega, chain)
    with pytest.raises(ValueError):
        monotone_up(kernel, omega, [])


def test_chain_direction_messages():
    kernel, omega, _ = mixed_instance(11, 12)
    chain = nested_chain(12, 12, 3)
    with pytest.raises(NotNested, match="^chain must be strictly increasing$"):
        monotone_up(kernel, omega, chain[::-1])
    with pytest.raises(NotNested, match="^chain must be strictly decreasing$"):
        monotone_down(kernel, omega, chain)
    for runner in (monotone_up, monotone_down):
        with pytest.raises(ValueError, match="^chain must be nonempty$") as exc:
            runner(kernel, omega, [])
        assert type(exc.value) is ValueError


def test_fund_slack_single_pair():
    kernel, omega, support = mixed_instance(13, 16)
    inner = SupportSet(support.indices[: max(1, len(support) // 2)])
    slack = fund_inequality_slack(kernel, omega, inner, support)
    assert slack >= -1e-8
    with pytest.raises(NotNested):
        fund_inequality_slack(kernel, omega, support, inner)


# ---------------------------------------------------------------------------
# solvability scan
# ---------------------------------------------------------------------------


def test_scan_signatures():
    family = shell_family()
    table = solvability_scan(family, scalings=[0.25, 1.0, 1.5])
    verdicts = {row.scaling: row.verdict for row in table.rows}
    assert verdicts[0.25] == LEAKS
    assert verdicts[1.0] == STABILIZES
    assert verdicts[1.5] == STABILIZES
    # the swept mass of an enclosed charge is preserved along the family
    row = table.rows[0]
    masses = [c.balayage_mass for c in row.cells]
    assert max(masses) - min(masses) <= 1e-6
    # mass >= 1 rows keep the minimizer off the outer rim entirely here
    assert all(c.interior_mass_fraction >= 0.99 for c in table.rows[1].cells)


def test_scan_zero_charge_reduces_to_capacitary_leakage():
    # with no charge the minimizer is the normalized capacitary measure of
    # the union, which sits on the outermost shell: the leak signature fires
    family = shell_family(truncations=(4, 5), per_shell=32)
    table = solvability_scan(family, scalings=[0.0])
    row = table.rows[0]
    assert row.verdict == LEAKS
    assert all(c.balayage_mass == 0.0 for c in row.cells)
    # the 20% rim covers 26 of the 32 outer-shell nodes at 4 shells and all
    # 32 at 5, so the captured fraction sits at ~0.81 then ~1.0
    assert all(c.outer_mass_fraction >= 0.75 for c in row.cells)


def test_scan_mass_one_scaling_identifies_at_each_truncation():
    from finpot.balayage import pseudo_balayage
    from finpot.core import energy_distance
    from finpot.gauss import solve_gauss

    family = shell_family(truncations=(3, 4), per_shell=32)
    base = pseudo_balayage(family[-1].kernel, family[-1].omega, family[-1].support)
    q = 1.0 / base.mass
    for inst in family:
        omega = inst.omega.scaled(q)
        bal = pseudo_balayage(inst.kernel, omega, inst.support)
        # the enclosed charge sweeps its full mass at every truncation, so
        # the unit rescaling holds along the whole family
        assert bal.mass == pytest.approx(1.0, abs=1e-6)
        res = solve_gauss(inst.kernel, omega, inst.support)
        assert energy_distance(inst.kernel, res.measure, bal.measure) <= 1e-7


def test_scan_determinism():
    family = shell_family(truncations=(2, 3), per_shell=32)
    t1 = solvability_scan(family, scalings=[0.3, 1.2])
    t2 = solvability_scan(family, scalings=[0.3, 1.2])
    assert t1.to_json() == t2.to_json()


def test_scan_thread_cap():
    family = shell_family(truncations=(2, 3), per_shell=24)
    table = solvability_scan(family, scalings=[1.0])
    assert table.rows[0].verdict == STABILIZES


# the -0.6 charge sits between the shells of radius 1.5 and 3
@pytest.mark.parametrize("extra", [(), (ChargeAtom((0.0, 0.0, 2.2), -0.6),)], ids=["positive", "mixed"])
def test_scan_is_its_cells_in_scaling_major_order(extra):
    # cells warm-started from the previous scaling equal cold solves bit for
    # bit; the cells after the zero scaling and after the sign change are
    # solved cold, and -1.5 is warm-started from -0.7
    from finpot.balayage import pseudo_balayage
    from finpot.gauss import solve_gauss

    family = shell_family(truncations=(2, 3, 4), per_shell=24, extra=extra)
    scalings = [0.0, 0.3, 1.0, 2.5, -0.7, -1.5]
    table = solvability_scan(family, scalings)
    cells = [c for row in table.rows for c in row.cells]
    assert [(c.scaling, c.truncation) for c in cells] == [
        (s, t) for s in scalings for t in range(len(family))
    ]
    for c in cells:
        inst = family[c.truncation]
        omega = inst.omega.scaled(c.scaling)
        bal = pseudo_balayage(inst.kernel, omega, inst.support)
        res = solve_gauss(inst.kernel, omega, inst.support)
        assert c.balayage_mass == bal.mass
        assert c.gauss_value == res.value
        assert c.equilibrium_constant == res.equilibrium_constant


def test_scan_sweeps_settle_in_one_step_after_the_first_scaling(monkeypatch):
    import finpot.balayage

    real = finpot.balayage.solve_cone_qp
    iterations = []

    def counted(*args, **kwargs):
        w, report = real(*args, **kwargs)
        iterations.append(report.iterations)
        return w, report

    monkeypatch.setattr(finpot.balayage, "solve_cone_qp", counted)
    family = shell_family(truncations=(2, 3, 4), per_shell=24)
    solvability_scan(family, scalings=[0.3, 1.0, 2.5])
    assert len(iterations) == 3 * len(family)
    # sweep(q omega) = q sweep(omega): the support the previous scaling found is final
    assert max(iterations[: len(family)]) > 1
    assert iterations[len(family):] == [1] * (2 * len(family))


def test_scan_cell_failure_propagates(monkeypatch):
    import finpot.experiments
    from finpot.balayage import CharacterizationViolated

    real = finpot.experiments.solve_gauss
    raised = CharacterizationViolated("gate fired", {"support_equality": 1.0})
    calls = []

    def solve(*args, **kwargs):
        calls.append(args)
        if len(calls) == 4:  # the second scaling's first cell
            raise raised
        return real(*args, **kwargs)

    monkeypatch.setattr(finpot.experiments, "solve_gauss", solve)
    family = shell_family(truncations=(2, 3, 4), per_shell=24)
    with pytest.raises(CharacterizationViolated) as err:
        solvability_scan(family, scalings=[0.3, 1.0, 2.5])
    assert err.value is raised


# ---------------------------------------------------------------------------
# maximum-principle probe
# ---------------------------------------------------------------------------


def test_ugaheri_diagonal_kernel_is_one():
    K = KernelMatrix(np.diag([1.0, 2.0, 3.0, 4.0]))
    est = ugaheri_estimate(K, trials=20, seed=1)
    assert est.h_hat == 1.0
    assert est.samples == 20


def test_ugaheri_newtonian_sphere_within_frostman_slack():
    # recorded: the inverse-distance sphere matrix probed at 1.0 exactly over
    # 100 random subsets; 2% is the documented slack for the discretization
    spec = InstanceSpec(3, RieszKernel(1.0), Sphere(1.0, 120))
    inst = assemble(spec)
    est = ugaheri_estimate(inst.kernel, trials=100, seed=3)
    assert est.h_hat <= 1.02


def test_ugaheri_order_above_two_recorded_band():
    # recorded 1.0665 at this seed; the theoretical ceiling for order 2.5 in
    # dimension 3 is 2 ** 0.5, asserted with slack and never asserted tight
    spec = InstanceSpec(3, RieszKernel(2.5), Ball(1.0, 150))
    inst = assemble(spec)
    est = ugaheri_estimate(inst.kernel, trials=100, seed=3)
    assert 1.0 <= est.h_hat <= 2**0.5 * 1.05
    assert len(est.witnesses) >= 1


def test_ugaheri_determinism_and_validation():
    K = random_spd_kernel(6, 10)
    a = ugaheri_estimate(K, trials=30, seed=7)
    b = ugaheri_estimate(K, trials=30, seed=7)
    assert a.to_json() == b.to_json()
    with pytest.raises(ValueError):
        ugaheri_estimate(K, trials=0)
