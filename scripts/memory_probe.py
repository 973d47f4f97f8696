#!/usr/bin/env python3
"""The program's own memory peak over the first requests of a benchmark workload.

Builds the workload of ``perfbench/workloads.py`` for a seed, replays its
first N requests in this process and keeps no outcome: each op's result is
dropped before the next op starts.  So what it reads is finpot's working
memory, without the requests, inputs and results that the benchmark's
closed loop keeps until its run ends.  It replays the requests twice:

* untraced, then prints ``ru_maxrss`` of the process (the set-up included)
  and, for each request kind, the median wall time of its ops;
* under tracemalloc, then prints for each request kind the number of ops and
  the largest traced peak of one op above what was live when it started.

A shell-scan scan's kind names its stage count (``scan-3`` ... ``scan-5``),
so the time of each scan length shows apart.

Usage, from the root of a checkout::

    python scripts/memory_probe.py --workload warm-solve --seed 1 --requests 600
"""

from __future__ import annotations

import argparse
import resource
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _kind(req: dict) -> str:
    """``kind`` or ``command`` of a request; whole or cap for warm-solve, the stage count for a scan."""
    kind = req.get("kind") or req["command"]
    if "cap" in req:
        kind += "-whole" if req["cap"] is None else "-cap"
    if "stages" in req:
        kind += f"-{req['stages']}"
    return kind


def probe(workload, requests: int) -> tuple[float, dict, dict]:
    """``ru_maxrss`` in MB and ``{kind: median op seconds}`` of an untraced replay, and
    ``{kind: (ops, peak bytes)}`` of a traced one."""
    reqs = workload.requests[:requests]
    times: dict = {}
    for req in reqs:
        prepared = workload.prepare(req)
        start = time.perf_counter()
        workload.op(req, prepared)
        times.setdefault(_kind(req), []).append(time.perf_counter() - start)
        del prepared
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    medians = {kind: statistics.median(seconds) for kind, seconds in times.items()}
    peaks: dict = {}
    tracemalloc.start()
    try:
        for req in reqs:
            prepared = workload.prepare(req)
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            workload.op(req, prepared)
            peak = tracemalloc.get_traced_memory()[1] - base
            del prepared
            ops, most = peaks.get(_kind(req), (0, 0))
            peaks[_kind(req)] = (ops + 1, max(most, peak))
    finally:
        tracemalloc.stop()
    return rss_mb, medians, peaks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="warm-solve")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--requests", type=int, default=600)
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    args = parser.parse_args(argv)
    for path in (ROOT / "src", ROOT / "perfbench"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import workloads

    with tempfile.TemporaryDirectory() as workdir:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.size, Path(workdir))
        rss_mb, medians, peaks = probe(workload, args.requests)
    print(f"{args.workload} seed {args.seed}, first {args.requests} requests")
    print(f"ru_maxrss {rss_mb:.1f} MB")
    print(f"{'kind':>16} {'ops':>5} {'median op (ms)':>15} {'largest op peak (MB)':>21}")
    for kind, (ops, peak) in sorted(peaks.items()):
        print(f"{kind:>16} {ops:5d} {medians[kind] * 1e3:15.3f} {peak / 2**20:21.2f}")
    print(f"largest op peak {max(peak for _, peak in peaks.values()) / 2**20:.2f} MB")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
