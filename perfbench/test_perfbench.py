"""The benchmark's own tests: ``python3 -m pytest perfbench -q``.

Smoke-sized runs go through ``run.py`` in a subprocess, exactly as the
benchmark is invoked, so the hygiene check (no thread or child process left,
the process exits by itself) is part of what they test.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
from speed import REFERENCE_PROBE_S, at_reference_speed  # noqa: E402
from tracing import SpanRecorder, Span, instrumented, layer_totals, self_times  # noqa: E402
from workloads import WORKLOADS, Op, ServiceMixed, Table1Bnb, Table3Ami33  # noqa: E402

from repro.serialize import netlist_to_dict  # noqa: E402


def _run(workload: str, trace: int) -> tuple[subprocess.CompletedProcess, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_checks_outputs_and_leaves_nothing_running(workload):
    proc, result = _run(workload, trace=0)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "LEFT RUNNING" not in proc.stdout
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == run.END_TO_END[name][0]
        assert metric["value"] > 0, name


def test_traced_smoke_run_reports_every_layer_metric():
    proc, result = _run("service-mixed", trace=1)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["correct"]
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["trace.ops"] >= 1
    assert metrics["route.calls"] == 0
    # One op in three is a forced resubmission served from the cache.
    assert metrics["cache.hits"] > 0 and metrics["cache.rejected"] == 0
    assert metrics["service.dedup_ratio"] == pytest.approx(1 / 3)


def _span(span_id, start, end, parent=None, name="x"):
    return Span(id=span_id, name=name, start=start, end=end, parent=parent)


def test_self_time_subtracts_the_part_children_cover():
    spans = [
        _span(0, 0.0, 10.0, name="op"),
        _span(1, 1.0, 4.0, parent=0, name="solve"),
        _span(2, 2.0, 3.0, parent=1, name="presolve"),
        _span(3, 5.0, 6.5, parent=0, name="solve"),
        # overlaps its sibling: only the uncovered 6.5..7.0 counts again
        _span(4, 6.0, 7.0, parent=0, name="route"),
        # sticks out of its parent: only the part inside the parent counts
        _span(5, 9.5, 11.0, parent=0, name="route"),
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 10.0 - 3.0 - 1.5 - 0.5 - 0.5,
                                 1: 2.0, 2: 1.0, 3: 1.5, 4: 1.0, 5: 1.5})
    totals = layer_totals(spans)
    assert totals["solve"].calls == 2
    assert totals["solve"].self_s == pytest.approx(3.5)
    assert totals["route"].self_s == pytest.approx(2.5)


def test_recorder_nests_spans_and_inherits_the_op_id():
    recorder = SpanRecorder()
    with recorder.span("op", op="op1"):
        with recorder.span("solve"):
            pass
    inner, outer = recorder.spans
    assert inner.parent == outer.id and inner.op == "op1"
    assert outer.parent is None


def test_instrumentation_restores_every_site():
    import repro.core.augmentation as augmentation
    from repro.routing.router import GlobalRouter

    before = (augmentation.solve, GlobalRouter.__dict__["route"])
    with instrumented(SpanRecorder()):
        assert augmentation.solve is not before[0]
    assert (augmentation.solve, GlobalRouter.__dict__["route"]) == before


def _docs(netlists):
    return [netlist_to_dict(n) for n in netlists]


def test_the_seed_changes_the_inputs_where_it_should():
    assert _docs(Table3Ami33.inputs(1)) == _docs(Table3Ami33.inputs(2))
    for workload in (Table1Bnb, ServiceMixed):
        assert _docs(workload.inputs(1)) == _docs(workload.inputs(1))
        assert _docs(workload.inputs(1)) != _docs(workload.inputs(2))


def test_times_scale_to_the_reference_speed():
    assert at_reference_speed(2.0, REFERENCE_PROBE_S) == pytest.approx(2.0)
    # A probe twice as slow as the reference halves the reported time.
    assert at_reference_speed(2.0, 2 * REFERENCE_PROBE_S) == pytest.approx(1.0)
    slow = Op("x", latency_s=3.0, ok=True, probe_s=3 * REFERENCE_PROBE_S)
    assert run.scaled_latency(slow) == pytest.approx(1.0)


def test_tail_is_the_highest_percentile_with_ten_ops_beyond_it():
    assert run.tail([float(i) for i in range(100)]) == (89.0, 90.0)
    assert run.tail([float(i) for i in range(21)]) == (10.0, 100 * 11 / 21)
    assert run.tail([3.0, 1.0, 2.0, 4.0]) == (2.5, 50.0)


def test_benchmark_json_names_what_the_runner_reports():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} \
        == run.PER_LAYER
