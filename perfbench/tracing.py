"""In-memory span recording around the library's layer boundaries.

The traced run wraps the public function of each layer *where its caller
looks it up* (a module global the caller imported, or a class attribute),
records one span per call, and restores every original on exit.  Nothing in
``src/`` knows about it.  Spans of one thread nest; each span carries the op
id of the span that encloses it, so a worker thread's spans belong to the job
it executes.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Iterator


@dataclass
class Span:
    """One timed call: ``[start, end]`` in ``time.perf_counter`` seconds."""

    id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op: str | None = None
    counters: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans from any thread; per-thread stacks give the parents."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, op: str | None = None) -> Iterator[Span]:
        """Record one span; the caller may add counters while it is open."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        span = Span(id=span_id, name=name, start=time.perf_counter(),
                    parent=parent.id if parent else None,
                    op=op if op is not None else (parent.op if parent else None))
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def dump(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for span in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result: dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span.id] = span.duration - covered
    return result


@dataclass
class LayerTotals:
    calls: int = 0
    self_s: float = 0.0
    counters: dict[str, float] = field(default_factory=dict)


def layer_totals(spans: list[Span]) -> dict[str, LayerTotals]:
    """Calls, self time and summed counters per span name."""
    own = self_times(spans)
    totals: dict[str, LayerTotals] = {}
    for span in spans:
        entry = totals.setdefault(span.name, LayerTotals())
        entry.calls += 1
        entry.self_s += own[span.id]
        for key, value in span.counters.items():
            entry.counters[key] = entry.counters.get(key, 0.0) + value
    return totals


# ---------------------------------------------------------------------------
# the wrapped sites
# ---------------------------------------------------------------------------

def _route_counters(span: Span, result) -> None:
    span.counters["nets"] = result.n_routed
    span.counters["overflow"] = result.total_overflow


def _solve_counters(span: Span, result) -> None:
    telemetry = result.telemetry
    span.counters["nodes"] = telemetry.nodes if telemetry else 0
    span.counters["lp_calls"] = telemetry.lp_calls if telemetry else 0
    span.counters["limit_hits"] = int(
        result.status.value in ("feasible", "timeout", "limit"))


def _lookup_counters(span: Span, result) -> None:
    span.counters["hits"] = 0 if result[0] is None else 1
    span.counters["misses"] = 1 if result[0] is None else 0


def _certify_counters(span: Span, result) -> None:
    span.counters["rejected"] = 0 if result.ok else 1


def _cover_counters(span: Span, result) -> None:
    span.counters["rects"] = len(result)


def _build_counters(span: Span, result) -> None:
    span.counters["binaries"] = result.n_integer_variables


def _job_op(args) -> str:
    return args[1].id  # FloorplanService._execute(self, job)


#: ``(module, attribute path, span name, counters(span, result), op id(args))``.
#: The module is the *caller's* namespace: patching the name there is what
#: the caller sees.
SITES: tuple[tuple[str, str, str, Callable | None, Callable | None], ...] = (
    ("repro.routing.router", "GlobalRouter.route", "route", _route_counters, None),
    ("repro.routing.flow", "build_channel_graph", "channel_graph", None, None),
    ("repro.routing.flow", "adjust_floorplan", "adjust", None, None),
    ("repro.routing.flow", "provide_routing_space", "spread", None, None),
    ("repro.routing.flow", "derive_relations", "relations", None, None),
    ("repro.routing.adjust", "derive_relations", "relations", None, None),
    ("repro.core.floorplanner", "derive_relations", "relations", None, None),
    ("repro.routing.flow", "optimize_topology", "legalize", None, None),
    ("repro.routing.adjust", "optimize_topology", "legalize", None, None),
    ("repro.core.floorplanner", "optimize_topology", "legalize", None, None),
    ("repro.core.floorplanner", "Floorplanner.run", "floorplan", None, None),
    ("repro.core.augmentation", "module_ordering", "select", None, None),
    ("repro.core.augmentation", "next_group", "select", None, None),
    ("repro.core.augmentation", "covering_rectangles", "cover", _cover_counters, None),
    ("repro.core.augmentation", "SubproblemBuilder", "build", _build_counters, None),
    ("repro.core.augmentation", "solve", "solve", _solve_counters, None),
    ("repro.milp.presolve", "presolve_form", "presolve", None, None),
    ("repro.milp.cache", "canonical_form_key", "cache_key", None, None),
    ("repro.milp.cache", "SolveCache.lookup", "cache_lookup", _lookup_counters, None),
    ("repro.check.certificate", "check_certificate", "certify", _certify_counters, None),
    ("repro.service.server", "FloorplanService._execute", "service.execute", None, _job_op),
)


def _wrap(recorder: SpanRecorder, fn: Callable, name: str,
          counters: Callable | None, op_of: Callable | None) -> Callable:
    # updated=() keeps a wrapped class's attributes off the wrapper function.
    @functools.wraps(fn, updated=())
    def wrapper(*args, **kwargs):
        op = op_of(args) if op_of is not None else None
        with recorder.span(name, op=op) as span:
            result = fn(*args, **kwargs)
            if counters is not None:
                counters(span, result)
            return result
    return wrapper


@contextlib.contextmanager
def instrumented(recorder: SpanRecorder) -> Iterator[None]:
    """Install a span wrapper at every site in :data:`SITES`; restore the
    originals on exit."""
    saved: list[tuple[Any, str, Any]] = []
    try:
        for module_name, path, name, counters, op_of in SITES:
            owner: Any = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(recorder, original, name, counters, op_of))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
