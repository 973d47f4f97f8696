"""Tests of the benchmark itself: tiny smoke runs, seeded inputs, span arithmetic."""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import finpot.cli  # noqa: E402
import finpot.instances  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_declared_workloads_match_the_registry():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_smoke_run(name, trace):
    record = run.run_workload(name, seed=3, seconds=0.3, trace=trace, size="tiny")
    assert record["correct"], record["failures"] or record["oracle_failures"]
    assert record["failed"] == 0 and record["attempted"] >= 1
    declared = {m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert declared <= set(record["metrics"])
    if trace:
        assert record["unmeasured"] == []
        assert record["metrics"]["trace.coverage"] == pytest.approx(1.0, abs=0.1)
    else:
        assert all(record["metrics"][n] > 0 for n in declared)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_inputs_are_a_pure_function_of_the_seed(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    first = workloads.request_hash(cls(5, "tiny", tmp_path).inputs)
    assert workloads.request_hash(cls(5, "tiny", tmp_path).inputs) == first
    assert workloads.request_hash(cls(6, "tiny", tmp_path).inputs) != first


def _span(sid, start, end, parent=None, name="x"):
    return spans.Span(sid, name, start, end, parent, 0, 0)


def test_self_time_subtracts_the_union_of_children():
    tree = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 4.0, parent=0),  # overlaps its sibling, as pool threads do
        _span(2, 3.0, 6.0, parent=0),
        _span(3, 2.0, 3.0, parent=1),
        _span(4, 8.0, 12.0, parent=0),  # runs past its parent: clipped at 10
    ]
    selfs = spans.self_times(tree)
    assert selfs[0] == pytest.approx(10.0 - (5.0 + 2.0))
    assert selfs[1] == pytest.approx(3.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(1.0)
    assert spans.union_length([]) == 0.0


def test_pool_thread_spans_take_the_client_span_as_parent():
    tracer = spans.Tracer()
    outer = tracer.open("outer")
    worker = threading.Thread(target=lambda: tracer.close(tracer.open("inner")))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    tracer.close(outer)
    inner = next(s for s in tracer.spans if s.name == "inner")
    assert inner.parent == outer.sid and inner.thread != outer.thread


def test_wrappers_are_installed_only_inside_the_context(monkeypatch):
    monkeypatch.setattr(spans, "BOUNDARIES", spans.BOUNDARIES + (
        ("gone.renamed", "finpot.instances", "no_such_function"),
        ("gone.module", "finpot.no_such_module", "anything"),
    ))
    original = finpot.instances.assemble
    tracer = spans.Tracer()
    with tracer.install():
        assert finpot.cli.assemble is not original
        assert finpot.cli.assemble.__wrapped__ is original
    assert finpot.cli.assemble is original and finpot.instances.assemble is original
    assert tracer.unmeasured == ["gone.renamed", "gone.module"]
