"""finpot benchmark: one workload per process, a closed loop with one client.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload warm-solve --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics named in ``BENCHMARK.json``
with tracing off.  ``--trace 1`` spends half the time untraced and half with
the span wrappers of ``spans.py`` installed, then probes working memory with
tracemalloc on a few requests, and reports the per-layer metrics.  ``all``
runs every workload in its own child process and prints one table.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it
print the metrics with units, the request hash and the environment; the
full record (spans included, for a traced run) is written under
``.perfbench-out/`` in the checkout.

Settings are recorded, not changed: every op runs at finpot's default
tolerance 1e-8, with the scan pool width and BLAS threads left to finpot and
the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# set-up repetitions whose median is reported as setup_s
SETUP_REPS = 5
# requests replayed under tracemalloc for the working-memory ratios
MEMORY_PROBES = 6


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def import_seconds() -> float:
    """Wall time of a fresh interpreter importing finpot's command line."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import finpot.cli"], env=child_env(), check=True,
                   timeout=120, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def run_phase(wl, seconds: float, tracer=None) -> dict:
    """Closed loop: the next op starts when the previous one ends."""
    outcomes, latencies = [], []
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while True:
        req = wl.requests[i % len(wl.requests)]
        prepared = wl.prepare(req)
        if tracer is not None:
            tracer.begin_op(i)
        t0 = time.perf_counter()
        try:
            result, error = wl.op(req, prepared), None
        except Exception:  # a failing op is counted, and the loop goes on
            result, error = None, traceback.format_exc(limit=3)
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.end_op(i, t1 - t0)
            if error is None:
                for key, value in wl.counters(result).items():
                    tracer.count(key, value)
        latencies.append(t1 - t0)
        outcomes.append((req, prepared, result, error))
        i += 1
        if t1 >= deadline:
            break
    return {"latencies": latencies, "wall": t1 - start, "outcomes": outcomes}


def check_outcomes(wl, outcomes, checks_mod) -> list[str]:
    failures = []
    for n, (req, prepared, result, error) in enumerate(outcomes):
        if error is None:
            try:
                wl.check(req, prepared, result)
            except checks_mod.CheckFailed as exc:
                error = f"check failed: {exc}"
            except Exception:  # a malformed result fails its op rather than the run
                error = "check raised: " + traceback.format_exc(limit=3)
        if error is not None:
            failures.append(f"op {n}: {error}")
    return failures


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """Set up, measure and check one workload; returns the full record."""
    import envinfo
    import numpy as np
    import spans
    import workloads

    cls = workloads.WORKLOADS[name]
    out_dir = ROOT / ".perfbench-out"
    workdir = out_dir / f"work-{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_samples = []
        for _ in range(1 if trace else SETUP_REPS):
            t_import = import_seconds()
            t0 = time.perf_counter()
            wl = cls(seed, size, workdir)
            setup_samples.append(t_import + time.perf_counter() - t0)
        record: dict = {
            "workload": name,
            "seed": seed,
            "size": size,
            "seconds": seconds,
            "trace": trace,
            "request_hash": workloads.request_hash(wl.inputs),
            "setup_samples_s": setup_samples,
        }
        if trace:
            plain = run_phase(wl, seconds / 2)
            tracer = spans.Tracer()
            with tracer.install():
                traced = run_phase(wl, seconds / 2, tracer)
            probe = spans.Tracer(memory=True)
            tracemalloc.start()
            try:
                with probe.install():
                    cls(seed, size, workdir)  # warm-solve assembles its kernel here
                    for req in wl.requests[:MEMORY_PROBES]:
                        wl.op(req, wl.prepare(req))
            except Exception:  # the timed phases already count failing ops
                record["probe_error"] = traceback.format_exc(limit=3)
            finally:
                tracemalloc.stop()
            phases = [plain, traced]
            layers = spans.layer_metrics(tracer)
            layers.update({k: v for k, v in spans.layer_metrics(probe).items() if "peak_ratio" in k})
            # both phases start at request 0: compare medians over the requests both ran
            n = min(len(plain["latencies"]), len(traced["latencies"]))
            layers["trace.overhead"] = (
                statistics.median(traced["latencies"][:n]) / statistics.median(plain["latencies"][:n]) - 1.0
            )
            record["metrics"] = layers
            record["unmeasured"] = tracer.unmeasured
            record["spans"] = [vars(s) for s in tracer.spans]
        else:
            phase = run_phase(wl, seconds)
            phases = [phase]
            lat = phase["latencies"]
            record["metrics"] = {
                "op_s.p50": statistics.median(lat),
                "op_s.p90": float(np.percentile(lat, 90)),
                "ops_per_s": len(lat) / phase["wall"],
                "setup_s": statistics.median(setup_samples),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
        failures = []
        for phase in phases:
            failures += check_outcomes(wl, phase["outcomes"], workloads)
        attempted = sum(len(p["outcomes"]) for p in phases)

        # determinism: the first request, replayed, must give identical output
        req0, _, result0, error0 = phases[0]["outcomes"][0]
        replay_ok = False
        if error0 is None:
            try:
                replay_ok = wl.fingerprint(wl.op(req0, wl.prepare(req0))) == wl.fingerprint(result0)
            except Exception:  # a replay that raises is a determinism failure
                record["replay_error"] = traceback.format_exc(limit=3)
        oracle_failures = workloads.oracle_check(seed)

        record.update({
            "attempted": attempted,
            "failed": len(failures),
            "fail_share": len(failures) / attempted,
            "failures": failures[:20],
            "replay_identical": replay_ok,
            "oracle_failures": oracle_failures,
            "correct": not failures and replay_ok and not oracle_failures,
            "samples": [len(p["latencies"]) for p in phases],
            "latencies_s": [p["latencies"] for p in phases],
            "environment": envinfo.environment(
                ROOT, seed, workloads.TOL, 8 * wl.max_kernel_nodes**2, _scan_pool_width()
            ),
        })
        return record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _scan_pool_width():
    import finpot.experiments as experiments

    width = getattr(experiments, "_thread_count", None)
    return width(None) if width else None


def print_record(record: dict, declared: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  trace {int(record['trace'])}  "
          f"requests sha256 {record['request_hash']}")
    print(f"  ops measured per phase: {record['samples']}  attempted {record['attempted']}  "
          f"failed {record['failed']}  fail_share {record['fail_share']:.4f} (share)")
    print(f"  replay identical: {record['replay_identical']}  oracle failures: "
          f"{len(record['oracle_failures'])}")
    unmeasured = tuple(f"{span}." for span in record.get("unmeasured", ()))
    for name, unit in declared.items():
        value = "unmeasured" if name.startswith(unmeasured) else f"{record['metrics'][name]:.6g}"
        print(f"  {name:48s} {value:>14s} {unit}")
    for line in record["failures"][:5]:
        print(f"  FAIL {line.splitlines()[0]}", file=sys.stderr)
    env = record["environment"]
    print(f"  env: nproc {env['nproc']}, {env['cpu_model']}, LLC {env['llc_bytes']} B, "
          f"python {env['python']}, numpy {env['numpy']}, BLAS {env['blas']['name']} "
          f"{env['blas']['version']} x{env['blas']['threads']} threads, scan pool "
          f"{env['scan_pool_width']}, commit {env['git_commit']}, kernel {env['kernel_bytes_computed']} B "
          f"(computed, {env['kernel_over_llc']:.3f} of LLC)")


def run_all(args, spec: dict) -> int:
    """Run every workload in its own child process and print one table."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for wl in spec["workloads"]:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl["name"], "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write("".join(proc.stdout.splitlines(keepends=True)[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"workload {wl['name']} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        last = json.loads(proc.stdout.splitlines()[-1])
        merged["correct"] &= last["correct"]
        merged["attempted"] += last["attempted"]
        merged["failed"] += last["failed"]
        for key, value in last["metrics"].items():
            merged["metrics"][f"{wl['name']}/{key}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "finpot" / "__init__.py").is_file():
        print(f"finpot sources not found under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload == "all":
        return run_all(args, spec)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    key = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[key]}
    missing = set(declared) - set(record["metrics"])
    if missing:
        print(f"benchmark does not compute declared metrics {sorted(missing)}", file=sys.stderr)
        return 2
    print_record(record, declared)

    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, default=float) + "\n")
    print(f"  record written to {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {n: {"value": record["metrics"][n], "unit": u} for n, u in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
