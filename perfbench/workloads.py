"""The three workloads: seeded requests, one op per request, independent checks.

Every input (request list, and warm-solve's instance) is a pure function of
the seed and the size preset, so two runs with one seed see identical inputs;
:func:`request_hash` fingerprints them.  Requests are laid out in blocks
that each hold the same design (request kinds in their stated proportions,
crossed with size strata).  The seed moves the continuous parameters inside
each stratum and the order within a block, so a run that stops mid-stream
still sees nearly the same mix of work.

A workload object is built by its set-up (request generation, and for
``warm-solve`` the kernel assembly).  ``prepare`` makes one op's inputs
untimed, ``op`` is the timed call into finpot, and ``check`` tests the output
with the benchmark's own numpy code, never with finpot's certification.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

import finpot.balayage as balayage
import finpot.cli as cli
import finpot.core as core
import finpot.experiments as experiments
import finpot.gauss as gauss
import finpot.instances as instances
import finpot.qp as qp

TOL = core.SOLVER_TOL
GATE = 10.0 * TOL
NEWTON = instances.RieszKernel(2.0)
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# "full" is what the benchmark measures; "tiny" serves the benchmark's own tests.
SIZES = {
    "full": {"sphere_m": 1600, "cli_m": (500, 1000), "shell_nodes": 50, "ball_m": (200, 400)},
    "tiny": {"sphere_m": 120, "cli_m": (60, 90), "shell_nodes": 8, "ball_m": (30, 50)},
}
# more than any run of at most 60 s completes; a longer run wraps around
N_REQUESTS = 1200


class CheckFailed(Exception):
    """An op's output failed the benchmark's independent check."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _rng(salt: int, seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, salt, stream]))


def _unit(rng: np.random.Generator) -> list[float]:
    v = rng.normal(size=3)
    return (v / np.linalg.norm(v)).tolist()


def _blocks(rng: np.random.Generator, design: list, count: int) -> list:
    """``count`` (item, u) pairs cycling through ``design``, shuffled per block.

    ``u`` in [0, 1) places the request inside its stratum.  For each design
    slot it follows a golden-ratio sequence from a seeded phase, so every run
    covers each stratum evenly after a few blocks, whatever the seed.
    """
    phases = rng.uniform(size=len(design))
    out: list = []
    block = 0
    while len(out) < count:
        out.extend((design[i], (phases[i] + block * GOLDEN) % 1.0) for i in rng.permutation(len(design)))
        block += 1
    return out[:count]


def request_hash(inputs) -> str:
    blob = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _signed_masses(rng: np.random.Generator, n: int) -> list[float]:
    """First atom positive, second negative, third of either sign."""
    masses = [float(rng.uniform(0.5, 1.5))]
    if n > 1:
        masses.append(-float(rng.uniform(0.2, 1.0)))
    if n > 2:
        masses.append(float(rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 1.0)))
    return masses


def check_solution(kind: str, target, w, value: float, K=None, omega=None) -> None:
    """Test a returned measure against the problem's characterization.

    ``value`` is the reported swept mass (balayage), equilibrium constant
    (gauss) or capacity (capacity); ``target`` is a boolean mask.  Without a
    kernel ``K`` only the sign, support and mass conditions are tested.
    """
    w = np.asarray(w)
    _require(bool(np.all(w >= 0.0)), "measure has a negative atom")
    _require(bool(np.all(w[~target] == 0.0)), "measure charges a node outside the target")
    mass = float(w.sum())
    if kind == "gauss":
        _require(abs(mass - 1.0) <= GATE, "Gauss minimizer is not a probability measure")
    else:
        _require(abs(mass - value) <= 1e-9 * max(1.0, value), "reported mass is not the measure's")
    if K is None:
        return
    K = np.asarray(K)
    on_support = target & (w > GATE)
    if kind == "balayage":
        gap = K @ (w - np.asarray(omega))
        _require(float(gap[target].min()) >= -GATE, "sweep potential drops below the charge's")
        _require(not on_support.any() or float(np.abs(gap[on_support]).max()) <= GATE,
                 "sweep potential differs from the charge's on the support")
    elif kind == "gauss":
        weighted = K @ (w - np.asarray(omega))
        c = float(w @ weighted)
        _require(abs(c - value) <= GATE, "equilibrium constant mismatch")
        _require(float(weighted[target].min()) >= c - GATE, "weighted potential drops below c")
        _require(not on_support.any() or float(np.abs(weighted[on_support] - c).max()) <= GATE,
                 "weighted potential differs from c on the support")
    else:
        _require(float((K @ w)[target].min()) >= 1.0 - GATE, "capacitary potential drops below 1")


class Workload:
    """Common shape of a workload; ``__init__`` is its timed set-up.

    A subclass builds ``requests`` (and ``inputs``, everything the seed
    generated) and defines ``op`` and ``check``.
    """

    # ops per run whose output is re-solved or checked against its potentials,
    # where that costs a sizeable share of an op
    full_checks = 8

    def prepare(self, req: dict):
        """The op's inputs, built untimed."""
        return None

    def fingerprint(self, result) -> bytes:
        """Bytes that a deterministic replay of the op must reproduce."""
        return json.dumps(result.to_json(), sort_keys=True).encode()

    def counters(self, result) -> dict:
        """Per-op counters reported by the traced run."""
        return {}

    def _full_check(self) -> bool:
        self.full_checks -= 1
        return self.full_checks >= 0


class WarmSolve(Workload):
    """One assembled sphere and charge atoms; each op is one large-k solve."""

    why = ("one assembled 1608-node kernel, then sweep/Gauss/capacity solves on the whole sphere "
           "or on caps of 3-90%: QP engine and certification dominate")
    salt = 11
    atoms = 8
    # One block of 10 requests: whole sphere 50%, caps of 40-90% 20%, caps of
    # 3-17% 30%, with sweep/Gauss/capacity at 40/40/20.  The median op is a
    # whole-sphere solve and the 90th percentile a full-support sweep or Gauss
    # solve.  Blocks whose median fell on small caps (about 0.02 s, mostly
    # interpreter overhead) swung by up to 28% between runs with the host's
    # speed; large-cap sweeps are left out because they take 0.02 s or 0.13 s
    # depending on the active set.
    cap_bands = ((0.03, 0.17), (0.40, 0.90))
    design = (
        [(None, "balayage")] * 2 + [(None, "gauss")] * 2 + [(None, "capacity")]
        + [(1, "gauss"), (1, "capacity")]
        + [(0, "balayage")] * 2 + [(0, "gauss")]
    )

    def __init__(self, seed: int, size: str, workdir: Path):
        self.requests = self.make_requests(seed, size)
        spec = self.spec(seed, size)
        self.inputs = {"instance": spec.to_json(), "requests": self.requests}
        self.inst = instances.assemble(spec)
        self.points = self.inst.node_points()
        self.max_kernel_nodes = self.inst.kernel.size

    @classmethod
    def spec(cls, seed: int, size: str) -> instances.InstanceSpec:
        """Newtonian unit sphere plus charge atoms at stratified radii in [1.1, 3]."""
        rng = _rng(cls.salt, seed, 1)
        atoms = []
        for j in range(cls.atoms):
            radius = 1.1 + 1.9 * (j + rng.uniform()) / cls.atoms
            atoms.append(instances.ChargeAtom(tuple(radius * x for x in _unit(rng)), 1.0))
        return instances.InstanceSpec(
            3, NEWTON, instances.Sphere(1.0, SIZES[size]["sphere_m"]), charge=tuple(atoms)
        )

    @classmethod
    def make_requests(cls, seed: int, size: str) -> list[dict]:
        rng = _rng(cls.salt, seed, 2)
        out = []
        for (band, kind), u in _blocks(rng, cls.design, N_REQUESTS):
            req: dict = {"kind": kind, "cap": None}
            if band is not None:
                lo, hi = cls.cap_bands[band]
                frac = lo * (hi / lo) ** u
                req["cap"] = {"axis": _unit(rng), "frac": frac}
            if kind != "capacity":
                n = int(rng.integers(1, 4))
                req["atoms"] = [int(a) for a in rng.choice(cls.atoms, size=n, replace=False)]
                req["masses"] = _signed_masses(rng, n)
            out.append(req)
        return out

    def prepare(self, req: dict):
        inst = self.inst
        w = np.zeros(inst.kernel.size)
        for atom, mass in zip(req.get("atoms", ()), req.get("masses", ())):
            w[inst.n_nodes + atom] += mass
        if req["cap"] is None:
            idx = np.arange(inst.n_nodes)
        else:
            # on the unit sphere the cap {x . axis >= 1 - 2f} holds a share f of the area
            height = self.points @ np.asarray(req["cap"]["axis"])
            idx = np.flatnonzero(height >= 1.0 - 2.0 * req["cap"]["frac"])
            if idx.size == 0:
                idx = np.array([int(np.argmax(height))])
        return core.Measure(w), core.SupportSet(idx)

    def op(self, req: dict, prepared):
        omega, support = prepared
        kernel = self.inst.kernel
        if req["kind"] == "balayage":
            return balayage.pseudo_balayage(kernel, omega, support, tol=TOL, h=1.0)
        if req["kind"] == "gauss":
            return gauss.solve_gauss(kernel, omega, support, tol=TOL)
        return gauss.capacitary_measure(kernel, support, tol=TOL)

    def check(self, req: dict, prepared, result) -> None:
        omega, support = prepared
        target = np.zeros(self.inst.kernel.size, dtype=bool)
        target[support.as_array()] = True
        if req["kind"] == "balayage":
            w, value = result.measure.weights, result.mass
        elif req["kind"] == "gauss":
            w, value = result.measure.weights, result.equilibrium_constant
        else:
            w, value = result.gamma.weights, result.capacity
        check_solution(req["kind"], target, w, value, self.inst.kernel.entries, omega.weights)


class ColdCli(Workload):
    """Each op is one `finpot balayage|gauss|capacity` run on a new config."""

    why = ("one finpot command per op on a new 500-1000 node config: assembly, PD certificate "
           "and report emission; nothing is shared between calls")
    salt = 23
    commands = ("balayage", "gauss", "capacity")
    design = [(cmd, stratum) for cmd in commands for stratum in range(3)]

    def __init__(self, seed: int, size: str, workdir: Path):
        self.requests = self.inputs = self.make_requests(seed, size)
        self.workdir = workdir
        # the universe holds the sphere nodes plus the two charge atoms
        self.max_kernel_nodes = SIZES[size]["cli_m"][1] + 2

    @classmethod
    def make_requests(cls, seed: int, size: str) -> list[dict]:
        rng = _rng(cls.salt, seed, 2)
        lo, hi = SIZES[size]["cli_m"]
        out = []
        for (cmd, stratum), u in _blocks(rng, cls.design, N_REQUESTS):
            m = int(lo + (hi - lo) * (stratum + u) / 3)
            pos = [float(rng.uniform(1.2, 3.0)) * x for x in _unit(rng)]
            neg = [float(rng.uniform(1.2, 3.0)) * x for x in _unit(rng)]
            instance = {
                "dimension": 3,
                "kernel": {"type": "riesz", "alpha": 2.0},
                "geometry": {"type": "sphere", "radius": 1.0, "count": m, "center": [0.0, 0.0, 0.0]},
                "regularization": {"type": "nn-half"},
                "charge": [
                    {"point": pos, "mass": float(rng.uniform(0.5, 1.5))},
                    {"point": neg, "mass": -float(rng.uniform(0.2, 1.0))},
                ],
            }
            out.append({"command": cmd,
                        "config": {"schema": cli.CONFIG_SCHEMA, "instance": instance, "tol": TOL}})
        return out

    def prepare(self, req: dict) -> list[str]:
        path = self.workdir / "config.json"
        path.write_text(json.dumps(req["config"]))
        return [req["command"], "--config", str(path), "--out", str(self.workdir / "out")]

    def op(self, req: dict, argv: list[str]):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        report = self.workdir / "out" / f"{req['command']}-report.json"
        return code, report.read_bytes() if code == 0 else b""

    def fingerprint(self, result) -> bytes:
        return result[1]

    def counters(self, result) -> dict:
        return {"cli.report_bytes": len(result[1])}

    def check(self, req: dict, argv, result) -> None:
        code, raw = result
        _require(code == 0, f"exit code {code}")
        report = json.loads(raw)
        try:
            cli.validate_report(report)
        except ValueError as exc:
            raise CheckFailed(f"report fails validation: {exc}") from None
        _require(report["command"] == req["command"], "report names another command")
        blob = json.dumps(req["config"], sort_keys=True, separators=(",", ":")).encode()
        _require(report["config_sha256"] == hashlib.sha256(blob).hexdigest(), "config hash mismatch")
        res = report["result"]
        if req["command"] == "balayage":
            w, value = res["measure"]["weights"], res["mass"]
            _require(res["value"] <= GATE, "sweep value is positive")
        elif req["command"] == "gauss":
            w, value = res["gauss"]["measure"]["weights"], res["gauss"]["equilibrium_constant"]
        else:
            w, value = res["gamma"]["weights"], res["capacity"]
            _require(res["equilibrium_potential_range"][0] >= 1.0 - GATE, "potential drops below 1")
        instance = req["config"]["instance"]
        m = instance["geometry"]["count"]
        _require(len(w) == m + len(instance["charge"]), "measure has the wrong length")
        target = np.arange(len(w)) < m
        if not self._full_check():
            check_solution(req["command"], target, w, value)
            return
        inst = instances.assemble(instances.InstanceSpec.from_json(instance))
        omega = np.zeros(len(w)) if req["command"] == "capacity" else inst.omega.weights
        check_solution(req["command"], target, w, value, inst.kernel.entries, omega)


class ShellScan(Workload):
    """Small problems: truncation-family scans and warm-started chains."""

    why = ("many small problems (k <= 250): solvability scans on the thread pool and "
           "warm-started chains, where per-call overhead and validation copies show")
    salt = 37
    scalings = (0.25, 1.0, 4.0)
    max_shells = 5
    # two thirds scans of 3-5 stages, one third chains over three ball-size strata
    design = [("scan", 3), ("scan", 4), ("scan", 5)] * 2 + [("chain", 0), ("chain", 1), ("chain", 2)]

    def __init__(self, seed: int, size: str, workdir: Path):
        self.requests = self.inputs = self.make_requests(seed, size)
        self.shell_nodes = SIZES[size]["shell_nodes"]
        self.max_kernel_nodes = max(self.max_shells * self.shell_nodes + 1, SIZES[size]["ball_m"][1] + 2)

    @classmethod
    def make_requests(cls, seed: int, size: str) -> list[dict]:
        rng = _rng(cls.salt, seed, 2)
        lo, hi = SIZES[size]["ball_m"]
        out = []
        for (kind, param), u in _blocks(rng, cls.design, N_REQUESTS):
            if kind == "scan":
                out.append({"kind": "scan", "stages": param, "q": 1.6 + 0.8 * u})
                continue
            m = int(lo + (hi - lo) * (param + u) / 3)
            cuts = sorted(int(c) for c in rng.choice(np.arange(1, m), size=3, replace=False))
            charge = [
                {"point": [float(rng.uniform(1.2, 2.5)) * x for x in _unit(rng)], "mass": mass}
                for mass in _signed_masses(rng, 2)
            ]
            out.append({"kind": "chain", "m": m, "order": rng.permutation(m).tolist(),
                        "cuts": cuts, "charge": charge})
        return out

    def _shells(self, q: float, shells: int) -> instances.Instance:
        return instances.assemble(instances.InstanceSpec(
            3, NEWTON, instances.ShellUnion(q, (self.shell_nodes,) * shells),
            charge=(instances.ChargeAtom((0.0, 0.0, 0.0), 1.0),),
        ))

    def _ball(self, req: dict) -> instances.Instance:
        return instances.assemble(instances.InstanceSpec(
            3, NEWTON, instances.Ball(1.0, req["m"]),
            charge=tuple(instances.ChargeAtom(tuple(a["point"]), a["mass"]) for a in req["charge"]),
        ))

    def op(self, req: dict, prepared):
        if req["kind"] == "scan":
            first = self.max_shells - req["stages"] + 1
            family = [self._shells(req["q"], n) for n in range(first, self.max_shells + 1)]
            return experiments.solvability_scan(family, self.scalings, tol=TOL)
        inst = self._ball(req)
        chain = [core.SupportSet(req["order"][:c]) for c in req["cuts"]] + [inst.support]
        return experiments.monotone_up(inst.kernel, inst.omega, chain, tol=TOL)

    def check(self, req: dict, prepared, result) -> None:
        if req["kind"] == "chain":
            self._check_chain(req, result)
        else:
            self._check_scan(req, result)

    def _check_chain(self, req: dict, result) -> None:
        _require(list(result.stage_sizes) == [*req["cuts"], req["m"]], "chain stage sizes")
        _require(bool(np.all(np.diff(result.stage_values) <= GATE)),
                 "values increase along a growing chain")
        _require(min(result.fund_slack) >= -GATE, "strong-Cauchy slack is negative")
        _require(0.0 <= result.final_distance <= GATE, "last stage does not reproduce the sweep")
        if not self._full_check():
            return
        # the last stage is the whole ball: its sweep, checked here, fixes the last value
        inst = self._ball(req)
        K, omega = np.asarray(inst.kernel.entries), np.asarray(inst.omega.weights)
        bal = balayage.pseudo_balayage(inst.kernel, inst.omega, inst.support, tol=TOL)
        w = np.asarray(bal.measure.weights)
        check_solution("balayage", np.arange(w.size) < inst.n_nodes, w, bal.mass, K, omega)
        value = float(w @ K @ w - 2.0 * (w @ K @ omega))
        _require(abs(value - result.stage_values[-1]) <= GATE, "last stage value is not the sweep's")

    def _check_scan(self, req: dict, result) -> None:
        _require(len(result.rows) == len(self.scalings), "scan row count")
        unit_masses = []
        for row in result.rows:
            _require(len(row.cells) == req["stages"], "scan cell count")
            for c in row.cells:
                _require(abs(c.interior_mass_fraction + c.outer_mass_fraction - 1.0) <= 1e-9,
                         "mass fractions do not sum to 1")
                _require(-GATE <= c.outer_mass_fraction <= 1.0 + GATE, "outer fraction out of range")
                _require(c.balayage_mass >= 0.0, "negative swept mass")
            last = row.cells[-2:]
            if all(c.interior_mass_fraction >= result.threshold for c in last):
                verdict = experiments.STABILIZES
            elif all(c.outer_mass_fraction >= result.threshold for c in last):
                verdict = experiments.LEAKS
            else:
                verdict = experiments.INCONCLUSIVE
            _require(row.verdict == verdict, "verdict does not follow from the cells")
            unit_masses.append(np.array([c.balayage_mass / row.scaling for c in row.cells]))
        # the sweep is positively homogeneous: mass(s * omega) = s * mass(omega)
        for masses in unit_masses[1:]:
            _require(bool(np.all(np.abs(masses - unit_masses[0]) <= 1e-6 * np.maximum(unit_masses[0], 1e-3))),
                     "swept mass is not proportional to the charge scaling")
        if not self._full_check():
            return
        # re-solve the largest truncation and recompute its cells from the measures
        inst = self._shells(req["q"], self.max_shells)
        K = np.asarray(inst.kernel.entries)
        target = np.arange(K.shape[0]) < inst.n_nodes
        radii = np.linalg.norm(inst.node_points(), axis=1)
        n_outer = max(1, math.ceil(result.outer_fraction * inst.n_nodes))
        outer_nodes = np.argsort(radii)[-n_outer:]
        for row in result.rows:
            cell = row.cells[-1]
            omega = inst.omega.scaled(row.scaling)
            bal = balayage.pseudo_balayage(inst.kernel, omega, inst.support, tol=TOL)
            check_solution("balayage", target, bal.measure.weights, bal.mass, K, omega.weights)
            _require(abs(bal.mass - cell.balayage_mass) <= 1e-9 * max(1.0, bal.mass),
                     "scan swept mass is not the sweep's")
            res = gauss.solve_gauss(inst.kernel, omega, inst.support, tol=TOL)
            lam = np.asarray(res.measure.weights)
            check_solution("gauss", target, lam, res.equilibrium_constant, K, omega.weights)
            _require(abs(float(lam[outer_nodes].sum()) - cell.outer_mass_fraction) <= 1e-9,
                     "scan outer mass fraction is not the minimizer's")


WORKLOADS = {"warm-solve": WarmSolve, "cold-cli": ColdCli, "shell-scan": ShellScan}


def oracle_check(seed: int, cases: int = 3) -> list[str]:
    """Solve tiny seeded QPs (k <= 10) and compare with the exhaustive oracles.

    Returns the failures; weights must agree to 1e-8 and objectives to 1e-10.
    """
    rng = _rng(0, seed, 3)
    spec = instances.InstanceSpec(
        3, NEWTON, instances.Sphere(1.0, 60),
        charge=(instances.ChargeAtom(tuple(1.3 * x for x in _unit(rng)), 1.0),
                instances.ChargeAtom(tuple(1.6 * x for x in _unit(rng)), -0.6)),
    )
    inst = instances.assemble(spec)
    K = np.asarray(inst.kernel.entries)
    field = K @ np.asarray(inst.omega.weights)
    failures = []
    for case in range(cases):
        k = int(rng.integers(6, 11))
        idx = np.sort(rng.choice(inst.n_nodes, size=k, replace=False))
        Q = K[np.ix_(idx, idx)]
        for label, problem, solve, oracle in (
            ("cone", qp.ConeQpProblem(Q, field[idx]), qp.solve_cone_qp, qp.brute_force_cone),
            ("simplex", qp.SimplexQpProblem(Q, -field[idx]), qp.solve_simplex_qp, qp.brute_force_simplex),
        ):
            try:
                w, _ = solve(problem, tol=TOL)
            except qp.MaxIterExceeded as exc:
                failures.append(f"{label} case {case} (k={k}): {exc}")
                continue
            ref = oracle(problem)
            if (float(np.max(np.abs(w - ref))) > 1e-8
                    or abs(problem.objective(w) - problem.objective(ref)) > 1e-10):
                failures.append(f"{label} case {case} (k={k}) disagrees with the oracle")
    return failures
