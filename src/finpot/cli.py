"""Batch command-line surface: JSON configs in, JSON/CSV reports out.

Subcommands: ``balayage``, ``gauss``, ``capacity``, ``solvability``,
``converge-up``, ``converge-down``, ``thinness``, ``verify``.  Each consumes
a JSON config naming exactly one instance source (a geometric ``instance``
spec or a raw ``kernel`` with ``omega`` and ``support``), writes a
deterministic JSON report embedding the config hash, and a CSV where the
operation defines one.  Wall-clock metadata goes to a sidecar ``.meta.json``
so the main report is byte-identical across runs of the same config.

Exit codes: 0 success, 2 violated invariant (certification or verify
failure), 3 solver failure, 4 config or usage error (an instance too large to
allocate is a config error).  Every config value is read once, by the typed
readers of :mod:`finpot.core`.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from importlib import resources
from pathlib import Path

import numpy as np

from .balayage import CharacterizationViolated, mass_bound_check, pseudo_balayage, verify_ii1
from .core import (
    SOLVER_TOL,
    ConfigError,
    KernelMatrix,
    Measure,
    NotNested,
    NotPositiveDefinite,
    SizeMismatchError,
    SupportSet,
    dumps_canonical,
    read_flag,
    read_indices,
    read_int,
    read_list,
    read_number,
    read_numbers,
    read_str,
)
from .experiments import monotone_down, monotone_up, solvability_scan
from .gauss import capacitary_measure, minimizer_is_sweep, solvability_check, solve_gauss
from .instances import ChargeOnNode, DuplicatePoints, InstanceSpec, assemble, points_to_csv, thinness_series
from .qp import (
    ConeQpProblem,
    MaxIterExceeded,
    SimplexQpProblem,
    brute_force_cone,
    brute_force_simplex,
    solve_cone_qp,
    solve_simplex_qp,
)

EXIT_OK = 0
EXIT_INVARIANT = 2
EXIT_SOLVER = 3
EXIT_CONFIG = 4

CONFIG_SCHEMA = "finpot-config/1"
REPORT_SCHEMA = "finpot-report/1"
FIXTURE_SCHEMA = "finpot-fixture/1"


def validate_report(report: dict) -> None:
    """Schema gate applied to every report before writing and after reading."""
    if report.get("schema") != REPORT_SCHEMA:
        raise ValueError(f"unknown report schema {report.get('schema')!r}")
    for key in ("command", "config_sha256", "result"):
        if key not in report:
            raise ValueError(f"report is missing the {key!r} key")
    command = report["command"]
    if command not in COMMANDS:
        raise ValueError(f"unknown command {command!r} in report")
    _, required = COMMANDS[command]
    result = report["result"]
    if not isinstance(result, dict):
        raise ValueError("report result must be an object")
    if command == "solvability":
        if not ({"status"} <= set(result) or {"rows", "threshold"} <= set(result)):
            raise ValueError("solvability result must be an outcome or a scan table")
    missing = required - set(result)
    if missing:
        raise ValueError(f"report result is missing keys {sorted(missing)}")


def config_hash(cfg: dict) -> str:
    effective = {k: v for k, v in cfg.items() if k not in ("out",) and not k.startswith("_")}
    return hashlib.sha256(
        json.dumps(effective, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def _read_config(args) -> dict:
    """The config object, plus the run options read once under unhashed ``_`` keys."""
    if args.config is None:
        if args.command != "verify":
            raise ConfigError("--config is required")
        cfg: dict = {}
    else:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            cfg = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
        if not isinstance(cfg, dict):
            raise ConfigError("config must be a JSON object")
        schema = cfg.get("schema", CONFIG_SCHEMA)
        if schema != CONFIG_SCHEMA:
            raise ConfigError(f"unsupported config schema {schema!r} (expected {CONFIG_SCHEMA})")
    if args.tol is not None:
        cfg["tol"] = cfg["_tol"] = read_number(args.tol, "--tol", positive=True, text=True)
    else:
        cfg["_tol"] = read_number(cfg.get("tol", SOLVER_TOL), "tol", positive=True)
    if args.out is not None:
        cfg["out"] = args.out
    cfg["_out"] = Path(read_str(cfg.get("out", "."), "out"))
    cfg["_summary"] = args.summary
    return cfg


def _raw_problem(obj: dict, need_omega: bool = True):
    """A raw-kernel problem, from a config or a fixture, as (kernel, omega, support, h)."""
    kobj = obj["kernel"]
    try:
        if isinstance(kobj, dict) and "csv" in kobj:
            kernel = KernelMatrix.from_csv(read_str(kobj["csv"], "csv"))
        else:
            kernel = KernelMatrix.from_json(kobj)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid kernel: {exc}") from None
    if "omega" in obj:
        try:
            omega = Measure.from_json(obj["omega"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid omega: {exc}") from None
    elif need_omega:
        raise ConfigError("raw-kernel configs need an 'omega' measure")
    else:
        omega = Measure.zero(kernel.size)
    if len(omega) != kernel.size:
        raise ConfigError("omega length does not match the kernel size")
    sup = obj.get("support", "all")
    support = SupportSet.full(kernel.size) if sup == "all" else read_indices(sup, "support", kernel.size)
    h = None if obj.get("h") is None else read_number(obj["h"], "h", 1.0)
    return kernel, omega, support, h


def _assemble_specs(objs: list, name: str) -> list:
    try:
        return [assemble(InstanceSpec.from_json(obj)) for obj in objs]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # a huge q overflows a shell radius
        raise ConfigError(f"invalid {name}: {exc}") from None


def _require_finite_scaling(scales, omegas) -> None:
    """Each scaled charge stays finite: its largest weight is the largest scale times weight."""
    peak = max(map(abs, scales)) * max(float(np.max(np.abs(omega.weights))) for omega in omegas)
    if not np.isfinite(peak):
        raise ConfigError(f"scaling the charge by {max(map(abs, scales)):g} overflows it")


def _load_problem(cfg: dict, command: str, need_omega: bool = True):
    """Resolve the single instance source into (kernel, omega, support, h).

    An instance's node cloud is exported as ``<command>-nodes.csv``, one point per row.
    """
    if ("instance" in cfg) == ("kernel" in cfg):
        raise ConfigError("exactly one of 'instance' or 'kernel' must be given")
    scale = None if cfg.get("omega_scale") is None else read_number(cfg["omega_scale"], "omega_scale")
    if "kernel" in cfg:
        kernel, omega, support, h = _raw_problem(cfg, need_omega)
    else:
        [inst] = _assemble_specs([cfg["instance"]], "instance spec")
        kernel, omega, support, h = inst.kernel, inst.omega, inst.support, inst.h
        points_to_csv(inst.node_points(), _out_dir(cfg) / f"{command}-nodes.csv")
    if scale is not None:
        _require_finite_scaling([scale], [omega])
        omega = omega.scaled(scale)
    return kernel, omega, support, h


def _out_dir(cfg: dict) -> Path:
    out = cfg["_out"]
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output directory is not writable: {exc}") from None
    return out


def _emit(cfg: dict, command: str, result: dict, csv_rows=None) -> Path:
    out = _out_dir(cfg)
    report = {
        "schema": REPORT_SCHEMA,
        "command": command,
        "config_sha256": config_hash(cfg),
        "result": result,
    }
    validate_report(report)
    path = out / f"{command}-report.json"
    path.write_text(dumps_canonical(report) + "\n")
    meta = {"report": path.name, "written_at_unix": time.time()}
    (out / f"{command}-report.meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    if csv_rows:
        csv_path = out / f"{command}-report.csv"
        with csv_path.open("w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(csv_rows[0].keys()))
            writer.writeheader()
            writer.writerows(csv_rows)
    return path


def _chain_from_config(cfg: dict, size: int, support: SupportSet, decreasing: bool):
    if "chain" in cfg:
        return [read_indices(ix, "chain stage", size) for ix in read_list(cfg["chain"], "chain", "index lists")]
    order = list(support.indices)
    # more stages than nodes give the same chain as one stage per node: 1, 2, ..., k
    stages_n = min(read_int(cfg.get("stages", 4), "stages", 1), len(order))
    sizes = sorted({max(1, round(len(order) * (j + 1) / stages_n)) for j in range(stages_n)})
    chain = [SupportSet(order[:s]) for s in sizes]
    return chain[::-1] if decreasing else chain


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------


def _cmd_balayage(cfg: dict) -> int:
    tol = cfg["_tol"]
    kernel, omega, support, h = _load_problem(cfg, "balayage")
    result = pseudo_balayage(kernel, omega, support, tol=tol, h=h)
    payload = result.to_json()
    payload["mass_bound_check"] = mass_bound_check(result, h, omega).to_json()
    _emit(cfg, "balayage", payload)
    print(
        f"balayage: value={result.value:.6e} mass={result.mass:.6f} "
        f"kkt={max(result.kkt.stationarity_residual, result.kkt.complementarity_residual):.2e} OK"
    )
    if cfg["_summary"]:
        print(f"  potential dominance on target: residual within {10 * tol:.1e}")
        print(f"  gap integral against the sweep: within {10 * tol:.1e}")
    return EXIT_OK


def _cmd_gauss(cfg: dict) -> int:
    tol = cfg["_tol"]
    kernel, omega, support, h = _load_problem(cfg, "gauss")
    res = solve_gauss(kernel, omega, support, tol=tol)
    bal = pseudo_balayage(kernel, omega, support, tol=tol, h=h)
    matches = minimizer_is_sweep(kernel, res, bal, tol)
    payload = {
        "gauss": res.to_json(),
        "balayage_mass": bal.mass,
        "lambda_equals_balayage": bool(matches),
    }
    _emit(cfg, "gauss", payload)
    print(
        f"gauss: value={res.value:.6e} constant={res.equilibrium_constant:.6e} "
        f"balayage_mass={bal.mass:.6f} identified={matches}"
    )
    return EXIT_OK


def _cmd_capacity(cfg: dict) -> int:
    kernel, _, support, _ = _load_problem(cfg, "capacity", need_omega=False)
    res = capacitary_measure(kernel, support, tol=cfg["_tol"])
    _emit(cfg, "capacity", res.to_json())
    lo, hi = res.equilibrium_potential_range
    print(f"capacity: c={res.capacity:.6f} potential_range=[{lo:.6f}, {hi:.6f}]")
    return EXIT_OK


def _cmd_solvability(cfg: dict) -> int:
    tol = cfg["_tol"]
    if "family" in cfg:
        scalings = read_numbers(cfg.get("scalings", [1.0]), "scalings")
        family = _assemble_specs(read_list(cfg["family"], "family", "instance specs"), "family")
        _require_finite_scaling(scalings, [inst.omega for inst in family])
        table = solvability_scan(family, scalings, tol=tol)
        _emit(cfg, "solvability", table.to_json(), csv_rows=table.csv_rows())
        for row in table.rows:
            print(
                f"solvability: scaling={row.scaling:g} omega_plus={row.omega_plus_mass:.4f} "
                f"verdict={row.verdict}"
            )
        return EXIT_OK
    capacity_finite = read_flag(cfg.get("capacity_finite", True), "capacity_finite")
    kernel, omega, support, _ = _load_problem(cfg, "solvability")
    outcome = solvability_check(kernel, omega, support, tol=tol, capacity_finite=capacity_finite)
    _emit(cfg, "solvability", outcome.to_json())
    print(
        f"solvability: status={outcome.status} balayage_mass={outcome.balayage.mass:.6f} "
        f"identified={outcome.lambda_equals_balayage}"
    )
    return EXIT_OK


_CONVERGE_KEYS = {"direction", "stage_values", "stage_norms", "fund_slack", "final_distance"}


def _cmd_converge(cfg: dict, direction: str) -> int:
    tol = cfg["_tol"]
    kernel, omega, support, _ = _load_problem(cfg, f"converge-{direction}")
    chain = _chain_from_config(cfg, kernel.size, support, decreasing=(direction == "down"))
    runner = monotone_up if direction == "up" else monotone_down
    report = runner(kernel, omega, chain, tol=tol)
    _emit(cfg, f"converge-{direction}", report.to_json(), csv_rows=report.csv_rows())
    print(
        f"converge-{direction}: stages={len(report.stage_sizes)} "
        f"final_distance={report.final_distance:.3e} "
        f"min_slack={min(report.fund_slack, default=0.0):.3e}"
    )
    if cfg["_summary"]:
        ok = min(report.fund_slack, default=0.0) >= -10 * tol
        print(f"  strong-Cauchy slack nonnegative: {'pass' if ok else 'fail'}")
        print(f"  final stage reproduces the target sweep: {'pass' if report.final_distance <= 10 * tol else 'fail'}")
    return EXIT_OK


def _cmd_thinness(cfg: dict) -> int:
    if "instance" not in cfg:
        raise ConfigError("thinness needs a shell_union instance spec")
    try:
        spec = InstanceSpec.from_json(cfg["instance"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid instance spec: {exc}") from None
    try:
        report = thinness_series(spec, tol=cfg["_tol"])
    except (ValueError, OverflowError) as exc:
        raise ConfigError(str(exc)) from None
    _emit(cfg, "thinness", report.to_json(), csv_rows=report.csv_rows())
    print(
        f"thinness: verdict={report.verdict} fitted_exponent={report.fitted_exponent:.3f} "
        f"critical={spec.dimension - spec.kernel.alpha:.3f}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify: bundled-fixture invariant suite
# ---------------------------------------------------------------------------


def _fixture_paths(cfg: dict) -> list[Path]:
    if "fixtures_dir" in cfg:
        root = Path(read_str(cfg["fixtures_dir"], "fixtures_dir"))
    else:
        root = Path(str(resources.files("finpot") / "fixtures"))
    if not root.is_dir():
        raise ConfigError(f"fixture directory not found: {root}")
    paths = sorted(root.glob("*.json"))
    if not paths:
        raise ConfigError(f"fixture directory is empty: {root}")
    return paths


def _verify_fixture(path: Path, tol_override: float | None) -> list[dict]:
    checks: list[dict] = []

    def record(name: str, passed: bool, detail: str = ""):
        checks.append({"fixture": path.name, "check": name, "passed": bool(passed), "detail": detail})

    try:
        obj = json.loads(path.read_text())
        schema = obj.get("schema") if isinstance(obj, dict) else None
        if schema != FIXTURE_SCHEMA:
            raise ValueError(f"bad fixture schema {schema!r}")
        kernel, omega, support, h = _raw_problem(obj)
        if tol_override is None:
            tol = read_number(obj.get("tol", SOLVER_TOL), "tol", positive=True)
        else:
            tol = tol_override
    except (OSError, KeyError, ValueError) as exc:  # ConfigError and JSONDecodeError are ValueErrors
        record("fixture-readable", False, str(exc))
        return checks
    record("fixture-readable", True)

    idx = support.as_array()
    try:
        bal = pseudo_balayage(kernel, omega, support, tol=tol, h=h)
        record("balayage-characterization", True)
    except (CharacterizationViolated, MaxIterExceeded) as exc:
        record("balayage-characterization", False, str(exc))
        return checks
    record("balayage-value-sign", bal.value <= 10 * tol, f"value={bal.value:.3e}")
    m_const = float(np.max((kernel.entries @ omega.total_variation.weights)[idx]))
    bracket = -2.0 * m_const * max(bal.mass, 0.0) - 10 * tol
    record("balayage-value-bracket", bal.value >= bracket, f"value={bal.value:.3e} floor={bracket:.3e}")
    chk = verify_ii1(kernel, omega, support, bal.measure, tol=10 * tol)
    record("two-route-check", chk.ok, f"gap_min={chk.atom_gap_min:.3e} self={chk.self_integral_abs:.3e}")

    try:
        res = solve_gauss(kernel, omega, support, tol=tol)
        record("gauss-equilibrium", True)
        record("value-ordering", bal.value <= res.value + 10 * tol,
               f"swept={bal.value:.3e} constrained={res.value:.3e}")
    except (CharacterizationViolated, MaxIterExceeded) as exc:
        record("gauss-equilibrium", False, str(exc))

    if len(support) <= 12:
        b = (kernel.entries @ omega.weights)[idx]
        for name, problem, solve, oracle in (
            ("cone-oracle", ConeQpProblem.on_kernel(kernel, support, b), solve_cone_qp, brute_force_cone),
            ("simplex-oracle", SimplexQpProblem.on_kernel(kernel, support, -b), solve_simplex_qp,
             brute_force_simplex),
        ):
            w_solver, _ = solve(problem, tol=tol)
            w_oracle = oracle(problem)
            record(
                name,
                float(np.max(np.abs(w_solver - w_oracle))) <= 1e-8
                and abs(problem.objective(w_solver) - problem.objective(w_oracle)) <= 1e-10,
            )

    if len(support) >= 3:
        order = list(support.indices)
        chain = [SupportSet(order[: max(1, len(order) // 3)]),
                 SupportSet(order[: max(2, (2 * len(order)) // 3)]),
                 support]
        try:
            rep = monotone_up(kernel, omega, chain, tol=tol)
            record("strong-cauchy-chain", min(rep.fund_slack, default=0.0) >= -10 * tol)
        except CharacterizationViolated as exc:
            record("strong-cauchy-chain", False, str(exc))

    if h is not None:
        mb = mass_bound_check(bal, h, omega)
        record("mass-bound", bool(mb.passed), f"mass={mb.mass:.4f} bound={mb.bound:.4f}")
    return checks


def _cmd_verify(cfg: dict) -> int:
    paths = _fixture_paths(cfg)
    tol_override = cfg["_tol"] if "tol" in cfg else None
    all_checks: list[dict] = []
    for path in paths:
        all_checks.extend(_verify_fixture(path, tol_override))
    passed = all(c["passed"] for c in all_checks)
    payload = {"checks": all_checks, "passed": passed}
    _emit(cfg, "verify", payload)
    failures = [c for c in all_checks if not c["passed"]]
    if cfg["_summary"]:
        for c in all_checks:
            print(f"  [{'pass' if c['passed'] else 'FAIL'}] {c['fixture']}: {c['check']} {c['detail']}")
    if failures:
        first = failures[0]
        print(f"verify: FAIL {first['fixture']}:{first['check']} {first['detail']}", file=sys.stderr)
        return EXIT_INVARIANT
    print(f"verify: {len(all_checks)} checks over {len(paths)} fixtures, all passed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

# name -> (handler, keys that every result of the command carries)
COMMANDS = {
    "balayage": (_cmd_balayage, {"measure", "value", "mass", "kkt"}),
    "gauss": (_cmd_gauss, {"gauss", "balayage_mass", "lambda_equals_balayage"}),
    "capacity": (_cmd_capacity, {"gamma", "capacity", "equilibrium_potential_range"}),
    "solvability": (_cmd_solvability, set()),  # an outcome or a scan table; see validate_report
    "converge-up": (lambda cfg: _cmd_converge(cfg, "up"), _CONVERGE_KEYS),
    "converge-down": (lambda cfg: _cmd_converge(cfg, "down"), _CONVERGE_KEYS),
    "thinness": (_cmd_thinness, {"q", "shell_capacities", "partial_sums", "verdict"}),
    "verify": (_cmd_verify, {"checks", "passed"}),
}


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 4, as config errors do, with argparse's message."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="finpot",
        description="Finite-node potential theory: sweep charges, solve weighted equilibria, run experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="path to the JSON run config")
        p.add_argument("--tol", default=None, help="override the solver tolerance")
        p.add_argument("--out", default=None, help="output directory for reports")
        p.add_argument("--summary", action="store_true", help="print per-invariant pass/fail lines")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        run, _ = COMMANDS[args.command]
        return run(_read_config(args))
    except (ConfigError, NotPositiveDefinite, DuplicatePoints, ChargeOnNode, NotNested,
            SizeMismatchError, MemoryError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CharacterizationViolated as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except MaxIterExceeded as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
