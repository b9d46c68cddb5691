"""The repository benchmark: one workload, one seed, one process.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload table3-ami33 --seed 1 --seconds 25 --trace 0

It builds the workload's inputs from the seed, sets up (imports, inputs,
service start-up, one untimed warm-up op; repeated, median reported),
measures whole segments of ops until ``--seconds`` of timed wall have
passed, checks every output outside the timed spans, and prints report
lines followed by one JSON object on the last line.  Times are reported at
a reference machine speed, measured by the probe in ``speed.py`` around
every op.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` alternates untraced and traced
segments and reports the per-layer metrics of the traced ones.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: ``name -> (unit, better)``; BENCHMARK.json lists the same names.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "latency_p50_s": ("s", "lower"),
    "latency_tail_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "ok_share": ("ratio", "higher"),
    "area_ratio": ("ratio", "lower"),
    "wirelength": ("units", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: Layers timed by span: ``<layer>.calls`` and ``<layer>.self_s`` per op.
SPAN_LAYERS = ("route", "channel_graph", "adjust", "spread", "relations",
               "legalize", "presolve", "solve", "cache_key", "cache_lookup",
               "certify", "select", "cover", "build", "floorplan")

#: Span counters reported per op: ``metric -> (span name, counter)``.
SPAN_COUNTERS = {
    "route.nets": ("route", "nets"),
    "route.overflow": ("route", "overflow"),
    "solve.nodes": ("solve", "nodes"),
    "solve.lp_calls": ("solve", "lp_calls"),
    "solve.limit_hits": ("solve", "limit_hits"),
    "cover.rects": ("cover", "rects"),
    "build.binaries": ("build", "binaries"),
    "cache.hits": ("cache_lookup", "hits"),
    "cache.misses": ("cache_lookup", "misses"),
    "cache.rejected": ("certify", "rejected"),
}

PER_LAYER = {
    **{f"{layer}.{part}": unit for layer in SPAN_LAYERS
       for part, unit in (("calls", ("count", "lower")),
                          ("self_s", ("s", "lower")))},
    **{name: ("count", "higher" if name in ("route.nets", "cache.hits")
              else "lower") for name in SPAN_COUNTERS},
    "cache.hit_ratio": ("ratio", "higher"),
    "service.queue_wait_s": ("s", "lower"),
    "service.run_s": ("s", "lower"),
    "service.overhead_s": ("s", "lower"),
    "service.dedup_ratio": ("ratio", "higher"),
    "service.refused": ("count", "lower"),
    "trace.overhead": ("ratio", "lower"),
    "trace.unattributed_s": ("s", "lower"),
    "trace.op_wall_s": ("s", "lower"),
    "trace.ops": ("count", "higher"),
}

#: Spans that stand for a whole op (their self time is unattributed).
ROOT_SPANS = ("op", "service.execute")


def _isolate_environment() -> None:
    """The benchmark decides cache, workers and bench knobs itself."""
    for key in list(os.environ):
        if key in ("REPRO_CACHE_DIR", "REPRO_WORKERS") or \
                key.startswith("REPRO_BENCH_"):
            del os.environ[key]


def tail(latencies: list[float]) -> tuple[float, float]:
    """``(value, percentile)`` of the highest percentile with at least ten
    ops beyond it.  With 20 ops or fewer no percentile above the median has
    ten ops beyond it, and the median stands in."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 20:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _mean(values) -> float:
    values = [v for v in values if v is not None]
    return statistics.fmean(values) if values else 0.0


def scaled_latency(op) -> float:
    """The op's wall time at the reference machine speed."""
    from speed import at_reference_speed

    return at_reference_speed(op.latency_s, op.probe_s)


def end_to_end_metrics(ops, first_ops, timed_wall: float, setup_s: float,
                       latency: Callable = lambda op: op.latency_s) -> dict:
    """``first_ops`` are the ops of the segments every run completes; their
    inputs depend on the seed alone, so the quality means stay comparable
    however many segments a run fits.  ``latency`` reads an op's time: wall
    clock by default, or :func:`scaled_latency`, in which case ``timed_wall``
    and ``setup_s`` must be scaled too."""
    latencies = [latency(op) for op in ops]
    tail_value, _ = tail(latencies)
    return {
        "setup_s": setup_s,
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail_value,
        "ops_per_s": len(ops) / timed_wall,
        "ok_share": sum(op.ok for op in ops) / len(ops),
        "area_ratio": _mean(op.area_ratio for op in first_ops),
        "wirelength": _mean(op.wirelength for op in first_ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer_metrics(spans, traced_ops, untraced_ops) -> dict:
    """Per traced op: calls, self seconds and counters of every layer, plus
    the service's job timings and the tracing overhead."""
    from tracing import layer_totals, self_times

    n = max(1, len(traced_ops))
    totals = layer_totals(spans)
    metrics: dict[str, float] = {}
    for layer in SPAN_LAYERS:
        entry = totals.get(layer)
        metrics[f"{layer}.calls"] = (entry.calls if entry else 0) / n
        metrics[f"{layer}.self_s"] = (entry.self_s if entry else 0.0) / n
    for name, (layer, counter) in SPAN_COUNTERS.items():
        entry = totals.get(layer)
        metrics[name] = (entry.counters.get(counter, 0.0) if entry else 0.0) / n
    lookups = metrics["cache.hits"] + metrics["cache.misses"]
    metrics["cache.hit_ratio"] = metrics["cache.hits"] / lookups if lookups else 0.0
    executed = [op for op in traced_ops if op.run_s is not None]
    metrics["service.queue_wait_s"] = _mean(op.queue_wait_s for op in executed)
    metrics["service.run_s"] = _mean(op.run_s for op in executed)
    metrics["service.overhead_s"] = _mean(op.latency_s - op.run_s
                                          for op in executed)
    metrics["service.dedup_ratio"] = \
        sum(op.deduplicated for op in traced_ops) / n
    metrics["service.refused"] = sum(op.refused for op in traced_ops) / n
    traced_p50 = statistics.median(map(scaled_latency, traced_ops))
    untraced_p50 = statistics.median(map(scaled_latency, untraced_ops))
    metrics["trace.overhead"] = traced_p50 / untraced_p50
    own = self_times(spans)
    metrics["trace.unattributed_s"] = sum(
        own[s.id] for s in spans if s.name in ROOT_SPANS) / n
    metrics["trace.op_wall_s"] = _mean(op.latency_s for op in traced_ops)
    metrics["trace.ops"] = len(traced_ops)
    return metrics


def leftover_processes_and_threads(grace_s: float = 10.0) -> list[str]:
    """Wait up to ``grace_s`` for every child process and every thread but
    the main one to end; name whatever is still alive."""
    give_up = time.perf_counter() + grace_s
    while True:
        children = multiprocessing.active_children()
        threads = [t for t in threading.enumerate()
                   if t is not threading.main_thread()]
        if not children and not threads:
            return []
        if time.perf_counter() > give_up:
            return [f"child process {p.pid}" for p in children] + \
                   [f"thread {t.name}" for t in threads]
        time.sleep(0.05)


def _result_line(correct: bool, attempted: int, failed: int,
                 metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name][0]}
                    for name in units},
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest segments and one set-up round "
                             "(the benchmark's own tests)")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no library sources under {SRC}", file=sys.stderr)
        return 2
    _isolate_environment()
    sys.path.insert(0, str(SRC))

    import repro
    import speed
    from speed import at_reference_speed, speed_probe
    from tracing import SpanRecorder, instrumented
    from workloads import OUT_DIR, WORKLOADS

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"error: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    imported = time.perf_counter()

    workload = WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    recorder = SpanRecorder() if args.trace else None
    untraced, traced, first_ops = [], [], []
    try:
        # Each set-up round is scaled by the mean of the probes run right
        # before and after it, and the imports by the first probe.  The
        # probe's own first run pays for page faults, so it is left out.
        speed_probe()
        rounds, scaled_rounds, probes = [], [], [speed_probe()]
        for _ in range(workload.setup_rounds):
            started = time.perf_counter()
            workload.setup()
            rounds.append(time.perf_counter() - started)
            probes.append(speed_probe())
            scaled_rounds.append(at_reference_speed(
                rounds[-1], (probes[-2] + probes[-1]) / 2))
        imports_s = imported - PROCESS_START
        setup_s = imports_s + statistics.median(rounds)
        scaled_setup_s = at_reference_speed(imports_s, probes[0]) + \
            statistics.median(scaled_rounds)

        timed_wall = scaled_wall = 0.0
        segment = 0
        # A segment starts while at least half of a mean segment still fits,
        # so a run measures --seconds to within half a segment.
        while (segment == 0
               or timed_wall + 0.5 * timed_wall / segment < args.seconds
               or segment < workload.min_segments
               or (recorder and not traced)):
            tracing_now = recorder is not None and segment % 2 == 1
            probed = speed.spent_s
            started = time.perf_counter()
            if tracing_now:
                with instrumented(recorder):
                    pending = workload.run_segment(recorder)
            else:
                pending = workload.run_segment()
            # The probes run inside a segment, around its ops.
            wall = time.perf_counter() - started - (speed.spent_s - probed)
            timed_wall += wall
            checked = workload.check(pending)
            # A segment's wall, scaled as its ops' latencies are, in sum.
            scaled_wall += wall * sum(map(scaled_latency, checked)) / \
                sum(op.latency_s for op in checked)
            (traced if tracing_now else untraced).extend(checked)
            if segment < workload.min_segments:
                first_ops += checked
            segment += 1
        report = workload.report()
    finally:
        workload.close()
    leftovers = leftover_processes_and_threads()

    ops = untraced + traced
    failures = [op for op in ops if not op.ok]
    for line in report:
        print(line)
    for op in failures[:20]:
        print(f"FAILED {op.kind}: {op.problem}")
    for problem in leftovers:
        print(f"LEFT RUNNING after the workload: {problem}")
    print(f"setup rounds (s): {', '.join(f'{r:.3f}' for r in rounds)}; "
          f"imports {imported - PROCESS_START:.3f} s")

    op_probes = [op.probe_s for op in ops]
    print(f"speed probe: median {statistics.median(op_probes):.4f} s, range "
          f"{min(op_probes):.4f}-{max(op_probes):.4f} s over the ops; "
          f"set-up {', '.join(f'{p:.4f}' for p in probes)} s")
    if recorder is None:
        raw = end_to_end_metrics(untraced, first_ops, timed_wall, setup_s)
        metrics = end_to_end_metrics(untraced, first_ops, scaled_wall,
                                     scaled_setup_s, latency=scaled_latency)
        _, percentile = tail([op.latency_s for op in untraced])
        print(f"{len(ops)} ops in {segment} segments, {timed_wall:.3f} s timed; "
              f"latency_tail_s is p{percentile:.1f} of {len(untraced)} ops; "
              f"failed_share {len(failures) / len(ops):.4f}")
        print(f"{'metric':16s} {'reported':>12s} {'wall clock':>12s}")
        for name, (unit, _) in END_TO_END.items():
            print(f"{name:16s} {metrics[name]:12.6g} {raw[name]:12.6g} {unit}")
        units = END_TO_END
    else:
        metrics = per_layer_metrics(recorder.spans, traced, untraced)
        OUT_DIR.mkdir(exist_ok=True)
        dump = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        recorder.dump(dump)
        print(f"{len(recorder.spans)} spans over {len(traced)} traced ops "
              f"written to {dump.relative_to(ROOT)}")
        for name, (unit, _) in PER_LAYER.items():
            print(f"{name:24s} {metrics[name]:.6g} {unit}")
        units = PER_LAYER

    correct = not failures and not leftovers
    print(_result_line(correct, len(ops), len(failures), metrics, units))
    return 0 if not leftovers else 1


if __name__ == "__main__":
    sys.exit(main())
