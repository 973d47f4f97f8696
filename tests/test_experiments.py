from dataclasses import replace

import numpy as np
import pytest

import finpot.experiments
from finpot.balayage import CharacterizationViolated, gate, pseudo_balayage
from finpot.core import SOLVER_TOL, Measure, NotNested, SupportSet, energy_distance
from finpot.experiments import (
    LEAKS,
    STABILIZES,
    monotone_down,
    monotone_up,
    solvability_scan,
)
from finpot.fixtures import mixed_instance, nested_chain, random_spd_kernel
from finpot.instances import ChargeAtom, InstanceSpec, RieszKernel, ShellUnion, assemble


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


def test_single_stage_chain_equals_direct_solve():
    kernel, omega, support = mixed_instance(81, 10)
    rep = monotone_up(kernel, omega, [support])
    assert rep.stage_values == (pseudo_balayage(kernel, omega, support).value,)
    assert rep.stage_sizes == (len(support),)


def test_three_stage_chain_values_decrease():
    # a seed whose three stages have distinct values
    kernel, omega, support = mixed_instance(96, 12)
    order = list(support.indices)
    chain = [SupportSet(order[:4]), SupportSet(order[:7]), support]
    rep = monotone_up(kernel, omega, chain)
    vals = rep.stage_values
    assert all(vals[j + 1] < vals[j] for j in range(len(vals) - 1))
    # the warm-started final stage reproduces the direct solve
    direct = pseudo_balayage(kernel, omega, support)
    assert vals[-1] == pytest.approx(direct.value, abs=1e-10)
    assert rep.final_distance <= 1e-8


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


def test_not_nested_chain_rejected():
    kernel, omega, support = mixed_instance(111, 10)
    order = list(support.indices)
    crossing = [SupportSet(order[:4]), SupportSet(order[2:5])]
    for runner in (monotone_up, monotone_down):
        with pytest.raises(NotNested):
            runner(kernel, omega, [support, support])
        with pytest.raises(NotNested):
            runner(kernel, omega, crossing)


def test_fund_slack_single_pair():
    # a seed whose two sweeps differ, so the slack is not trivially zero
    kernel, omega, support = mixed_instance(17, 16)
    inner = SupportSet(support.indices[: max(1, len(support) // 2)])
    up = monotone_up(kernel, omega, [inner, support])
    assert up.stage_values[1] < up.stage_values[0]
    small = pseudo_balayage(kernel, omega, inner)
    large = pseudo_balayage(kernel, omega, support)
    d2 = energy_distance(kernel, small.measure, large.measure) ** 2
    assert up.fund_slack[0] == pytest.approx(2.0 * small.value - 2.0 * large.value - d2, abs=1e-8)
    assert up.fund_slack[0] >= -1e-8
    # the slack is oriented by inclusion, so the reversed chain gives the same pair's slack
    down = monotone_down(kernel, omega, [support, inner])
    assert down.fund_slack[0] == pytest.approx(up.fund_slack[0], abs=1e-8)


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


@pytest.mark.parametrize(
    "key, call, edit",
    [
        # the first stage doubled: its distance to the second breaks the strong-Cauchy inequality
        ("fund_slack", 0, lambda r: replace(r, measure=r.measure.scaled(2.0))),
        # the last stage's value raised above 0, which bounds every sweep's value:
        # the value rises along the growing chain
        ("value_drift", 2, lambda r: replace(r, value=1.0)),
        # the cold reference solve on the final set moved off the chained last stage
        ("final_distance", 3, lambda r: replace(r, measure=r.measure.scaled(1.01))),
    ],
)
def test_chain_gate_fires_on_each_residual(monkeypatch, key, call, edit):
    kernel, omega, support = mixed_instance(96, 12)
    order = list(support.indices)
    chain = [SupportSet(order[:4]), SupportSet(order[:7]), support]
    calls = []

    def perturbed(*args, **kwargs):
        res = pseudo_balayage(*args, **kwargs)
        calls.append(res)
        return edit(res) if len(calls) - 1 == call else res

    monkeypatch.setattr(finpot.experiments, "pseudo_balayage", perturbed)
    with pytest.raises(CharacterizationViolated) as err:
        monotone_up(kernel, omega, chain)
    assert len(calls) == len(chain) + 1
    assert err.value.residuals[key] > gate(SOLVER_TOL)
    assert key in str(err.value)


def test_down_chain_solves_each_stage_once(monkeypatch):
    kernel, omega, _ = mixed_instance(7, 30)
    chain = nested_chain(8, 30, 4)[::-1]
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return pseudo_balayage(*args, **kwargs)

    monkeypatch.setattr(finpot.experiments, "pseudo_balayage", counted)
    rep = monotone_down(kernel, omega, chain)
    # the last stage, solved cold, is the reference itself
    assert len(calls) == len(chain)
    assert rep.final_distance == 0.0


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


def test_two_truncation_scan_stabilizes():
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
