"""Spans recorded from outside finpot, by wrapping the names its layers call.

The traced run installs a wrapper at every boundary in :data:`BOUNDARIES`.
A function boundary is rebound in every loaded ``finpot`` module that holds
the same object, so a name imported across modules (``cli.assemble``,
``gauss.solve_simplex_qp``) is traced wherever it is called.  A method
boundary is rebound on its class.  A boundary that no longer resolves is
reported as unmeasured instead of failing the run.

Spans stay in memory until the run ends.  Each span records its name, start,
end, parent, op id and thread.  Every thread keeps its own stack, because
the solvability scan runs its cells on a thread pool; a span opened on a pool
thread with an empty stack takes the span open on the client thread as its
parent.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
import tracemalloc
from dataclasses import dataclass

import numpy as np

# (span name, module, attribute path); qp.problem_init covers both problem classes
BOUNDARIES = (
    ("instances.generate_points", "finpot.instances", "generate_points"),
    ("instances.assemble", "finpot.instances", "assemble"),
    ("core.check_energy_principle", "finpot.core", "check_energy_principle"),
    ("core.KernelMatrix.restrict", "finpot.core", "KernelMatrix.restrict"),
    ("qp.problem_init", "finpot.qp", "ConeQpProblem.__init__"),
    ("qp.problem_init", "finpot.qp", "SimplexQpProblem.__init__"),
    ("qp.solve_cone_qp", "finpot.qp", "solve_cone_qp"),
    ("qp.solve_simplex_qp", "finpot.qp", "solve_simplex_qp"),
    ("balayage.pseudo_balayage", "finpot.balayage", "pseudo_balayage"),
    ("gauss.solve_gauss", "finpot.gauss", "solve_gauss"),
    ("gauss.capacitary_measure", "finpot.gauss", "capacitary_measure"),
    ("experiments.solvability_scan", "finpot.experiments", "solvability_scan"),
    ("experiments.monotone_up", "finpot.experiments", "monotone_up"),
    ("cli.main", "finpot.cli", "main"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in BOUNDARIES))

# outermost solve entry points whose working memory the probe measures
SOLVE_ENTRIES = ("balayage.pseudo_balayage", "gauss.solve_gauss", "gauss.capacitary_measure")


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span duration minus the part of its interval that its children cover.

    Children on pool threads may overlap each other, so their intervals are
    merged before they are subtracted.
    """
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        clipped = [
            (max(c.start, s.start), min(c.end, s.end))
            for c in children.get(s.sid, ())
            if c.end > s.start and c.start < s.end
        ]
        out[s.sid] = s.duration - union_length(clipped)
    return out


class Tracer:
    """Span and counter store for one traced run with a single client thread."""

    def __init__(self, memory: bool = False):
        self.spans: list[Span] = []
        self.counters: dict[str, list[float]] = {}
        self.op_walls: dict[int, float] = {}
        self.unmeasured: list[str] = []
        self.memory = memory
        self.mem_ratios: dict[str, list[tuple[int, float]]] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._op = -1
        self._client = threading.get_ident()
        self._client_stack: list[Span] = []
        self._mem_open: dict | None = None

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._client:
            return self._client_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].sid
        elif threading.get_ident() != self._client and self._client_stack:
            parent = self._client_stack[-1].sid
        else:
            parent = None
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        span = Span(sid, name, time.perf_counter(), 0.0, parent, self._op, threading.get_ident())
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def count(self, name: str, value: float) -> None:
        self.counters.setdefault(name, []).append(float(value))

    def begin_op(self, op: int) -> None:
        self._op = op

    def end_op(self, op: int, wall: float) -> None:
        self.op_walls[op] = wall
        self._op = -1

    # -- counters read from arguments and results --------------------------

    def observe(self, name: str, args: tuple, result) -> None:
        if name in ("qp.solve_cone_qp", "qp.solve_simplex_qp"):
            w, report = result
            self.count(f"{name}.iters", report.iterations)
            self.count("qp.k", w.size)
            self.count("qp.support_frac", float(np.count_nonzero(w > 0.0)) / w.size)
        elif name == "core.check_energy_principle":
            m = np.shape(args[0])[0]
            self.count("core.check_energy_principle.bytes", 8.0 * m * m)
        elif name == "core.KernelMatrix.restrict":
            self.count("core.KernelMatrix.restrict.bytes", 8.0 * result.shape[0] ** 2)
        elif name == "qp.problem_init" and self._mem_open is not None:
            self._mem_open["k"] = max(self._mem_open["k"], args[0].size)

    # -- working-memory probe (tracemalloc, client thread only) ------------

    def _mem_enter(self, name: str) -> bool:
        if not self.memory or self._mem_open is not None:
            return False
        if threading.get_ident() != self._client:
            return False
        if name != "instances.assemble" and name not in SOLVE_ENTRIES:
            return False
        tracemalloc.reset_peak()
        self._mem_open = {"name": name, "base": tracemalloc.get_traced_memory()[0], "k": 0}
        return True

    def _mem_exit(self) -> dict:
        rec, self._mem_open = self._mem_open, None
        rec["extra"] = tracemalloc.get_traced_memory()[1] - rec["base"]
        return rec

    def _mem_record(self, rec: dict, result) -> None:
        if rec["name"] == "instances.assemble":
            key, size = "instances.assemble.peak_ratio", result.kernel.size
        else:
            key, size = "qp.peak_ratio", rec["k"]
        if size:
            self.mem_ratios.setdefault(key, []).append((size, rec["extra"] / (8.0 * size * size)))

    # -- installation ------------------------------------------------------

    def wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            mem = tracer._mem_enter(name)
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
                usage = tracer._mem_exit() if mem else None
            tracer.observe(name, args, result)
            if usage is not None:
                tracer._mem_record(usage, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> "Installed":
        return Installed(self)


class Installed:
    """Context manager that binds the wrappers and restores the originals."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.restore: list[tuple[object, str, object]] = []

    def __enter__(self) -> Tracer:
        loaded = [mod for key, mod in sys.modules.items() if key.startswith("finpot") and mod]
        for name, module_name, path in BOUNDARIES:
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                if name not in self.tracer.unmeasured:
                    self.tracer.unmeasured.append(name)
                continue
            wrapper = self.tracer.wrap(name, original)
            if isinstance(owner, type):
                self._bind(owner, attr, wrapper)
                continue
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._bind(mod, key, wrapper)
        return self.tracer

    def _bind(self, owner, attr: str, wrapper) -> None:
        self.restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self.restore):
            setattr(owner, attr, original)
        self.restore.clear()


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-op span metrics and counters of the traced phase.

    Every span name in :data:`SPAN_NAMES` gets ``calls``, ``busy_s`` and
    ``self_s`` per op; a name never entered reads 0.
    """
    ops = max(len(tracer.op_walls), 1)
    in_ops = [s for s in tracer.spans if s.op >= 0]
    selfs = self_times(in_ops)
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        mine = [s for s in in_ops if s.name == name]
        out[f"{name}.calls"] = len(mine) / ops
        out[f"{name}.busy_s"] = sum(s.duration for s in mine) / ops
        out[f"{name}.self_s"] = sum(selfs[s.sid] for s in mine) / ops

    def pct(key: str, q: float) -> float:
        vals = tracer.counters.get(key)
        return float(np.percentile(vals, q)) if vals else 0.0

    for solver in ("qp.solve_cone_qp", "qp.solve_simplex_qp"):
        out[f"{solver}.iters.p50"] = pct(f"{solver}.iters", 50)
        out[f"{solver}.iters.max"] = pct(f"{solver}.iters", 100)
    out["qp.k.p50"] = pct("qp.k", 50)
    out["qp.support_frac.p50"] = pct("qp.support_frac", 50)
    for key in ("core.check_energy_principle.bytes", "core.KernelMatrix.restrict.bytes",
                "cli.report_bytes"):
        out[key] = sum(tracer.counters.get(key, ())) / ops

    # a scan's children run on pool threads: their summed time over the scan's wall
    busy_children: dict[int, float] = {}
    for s in in_ops:
        if s.parent is not None:
            busy_children[s.parent] = busy_children.get(s.parent, 0.0) + s.duration
    scans = [s for s in in_ops if s.name == "experiments.solvability_scan"]
    out["experiments.solvability_scan.parallelism"] = (
        sum(busy_children.get(s.sid, 0.0) for s in scans) / sum(s.duration for s in scans)
        if scans else 0.0
    )

    top = sum(s.duration for s in in_ops if s.parent is None)
    wall = sum(tracer.op_walls.values())
    out["trace.coverage"] = top / wall if wall > 0 else 0.0
    # working memory of the largest matrix probed, where it matters most
    for key in ("instances.assemble.peak_ratio", "qp.peak_ratio"):
        vals = tracer.mem_ratios.get(key)
        out[key] = max(vals)[1] if vals else 0.0
    return out
