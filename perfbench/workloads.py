"""The three benchmark workloads.

Each workload builds its inputs from the seed, runs ops in *segments* (a
whole grid pass, a whole instance pass, or a whole batch of service
instances), and checks every output after the segment's timed part.  A
segment always completes, so every run measures the same mix of ops.

* ``table3-ami33`` — the paper's Table 3: one op is one grid cell, a cold
  ``Floorplanner.run`` followed by ``route_and_adjust``.
* ``table1-bnb`` — the paper's Table 1 on the own branch-and-bound: one op
  is one cold ``Floorplanner.run``; nothing is routed.
* ``service-mixed`` — a closed loop of two clients against an in-process
  ``FloorplanService`` over loopback HTTP; one op is one request, from
  submit to result.
"""

from __future__ import annotations

import contextlib
import json
import queue
import random
import shutil
import signal
import statistics
import tempfile
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.check.geometry import check_floorplan, check_placements
from repro.core.config import FloorplanConfig
from repro.core.floorplanner import Floorplanner
from repro.milp.cache import clear_caches
from repro.netlist.generators import random_netlist, series1_instance
from repro.netlist.mcnc import ami33_like
from repro.routing import RouterMode, Technology
from repro.routing.flow import route_and_adjust
from repro.serialize import floorplan_from_dict, netlist_to_dict
from repro.service import FloorplanService, make_server
from speed import speed_probe

#: Scratch space (service cache directories, span dumps) inside the checkout.
OUT_DIR = Path(__file__).resolve().parent / "out"

#: Seed of the service's warm-up instances: the same for every run, so
#: set-up time does not depend on the workload seed, and never an int, so
#: no workload seed draws the same instances.
WARM_UP_SEED = "warm-up"


class OpDeadline(Exception):
    """An op ran past its deadline."""


@dataclass
class Op:
    """One attempted op and what its checks found."""

    kind: str
    latency_s: float
    ok: bool
    problem: str = ""
    probe_s: float | None = None  # the speed probe around the op (speed.py)
    area_ratio: float | None = None
    wirelength: float | None = None
    queue_wait_s: float | None = None
    run_s: float | None = None
    deduplicated: bool = False
    refused: bool = False


@contextlib.contextmanager
def deadline(seconds: float) -> Iterator[None]:
    """Raise :class:`OpDeadline` in the main thread after ``seconds``."""
    def expire(signum, frame):
        raise OpDeadline(f"op exceeded its {seconds:.0f} s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _op_span(recorder, op_id: str):
    return recorder.span("op", op=op_id) if recorder else contextlib.nullcontext()


def _timed_op(recorder, op_id: str, deadline_s: float,
              run: Callable[[], Any],
              probes: list[float]) -> tuple[float, float, Any]:
    """One cold op: clear the solve caches, then time ``run()`` under its
    deadline (and its op span when traced), then run the speed probe.
    ``probes`` ends with the probe run before the op and gets the one run
    after it.  Returns ``(latency, probe_s, outcome)``: ``probe_s`` is the
    mean of the two probes, and the outcome of a failed op is the exception
    it raised."""
    clear_caches()
    started = time.perf_counter()
    try:
        with deadline(deadline_s), _op_span(recorder, op_id):
            outcome = run()
    except Exception as exc:  # noqa: BLE001 - a failed op, not a crash
        outcome = exc
    latency = time.perf_counter() - started
    probes.append(speed_probe())
    return latency, (probes[-2] + probes[-1]) / 2, outcome


def _problem_of(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# table3-ami33
# ---------------------------------------------------------------------------

class Table3Ami33:
    """Table 3: {no envelopes, envelopes} x {SHORTEST, WEIGHTED} on ami33."""

    name = "table3-ami33"
    setup_rounds = 3
    min_segments = 2  # eight ops; the repeat check compares passes
    op_deadline_s = 90.0
    CELLS = tuple((envelopes, mode) for envelopes in (False, True)
                  for mode in (RouterMode.SHORTEST, RouterMode.WEIGHTED))

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed  # the instance is the paper's; the seed changes nothing
        if smoke:
            self.setup_rounds = 1
        self.first: dict[tuple, tuple] = {}
        self.rows: dict[tuple, dict[str, list[float]]] = {}
        self._n = 0

    @staticmethod
    def inputs(seed: int) -> list:
        return [ami33_like()]

    def setup(self) -> None:
        (self.netlist,) = self.inputs(self.seed)
        self.technology = Technology.around_the_cell()
        self.module_area = self.netlist.total_module_area
        clear_caches()
        warm = self._run_cell(*self.CELLS[0])
        if not self._check(self.CELLS[0], *warm[:2]).ok:
            raise RuntimeError("the warm-up op failed its output checks")

    def _config(self, envelopes: bool) -> FloorplanConfig:
        return FloorplanConfig(seed_size=6, group_size=4,
                               subproblem_time_limit=20.0,
                               use_envelopes=envelopes,
                               technology=self.technology)

    def _run_cell(self, envelopes: bool, mode: RouterMode):
        started = time.perf_counter()
        plan = Floorplanner(self.netlist, self._config(envelopes)).run()
        planned = time.perf_counter()
        routed = route_and_adjust(plan.placements, plan.chip, self.netlist,
                                  self.technology, mode=mode)
        done = time.perf_counter()
        return plan, routed, planned - started, done - planned

    def run_segment(self, recorder=None) -> list:
        pending, probes = [], [speed_probe()]
        for cell in self.CELLS:
            self._n += 1
            pending.append((cell, *_timed_op(recorder, f"op{self._n}",
                                             self.op_deadline_s,
                                             lambda: self._run_cell(*cell),
                                             probes)))
        return pending

    def check(self, pending: list) -> list[Op]:
        ops = []
        for cell, latency, probe_s, outcome in pending:
            kind = self._cell_name(cell)
            if isinstance(outcome, Exception):
                ops.append(Op(kind, latency, False, _problem_of(outcome),
                              probe_s=probe_s))
                continue
            plan, routed, plan_s, route_s = outcome
            ops.append(self._check(cell, plan, routed, latency))
            ops[-1].probe_s = probe_s
            row = self.rows.setdefault(cell, {"floorplan_s": [], "route_s": []})
            row["floorplan_s"].append(plan_s)
            row["route_s"].append(route_s)
        return ops

    def _check(self, cell, plan, routed, latency: float = 0.0) -> Op:
        kind = self._cell_name(cell)
        problems = []
        if not check_floorplan(plan).ok:
            problems.append("packed plan is not legal")
        n_nets = len(self.netlist.nets)
        if routed.routing.n_routed != n_nets or routed.routing.failed_nets:
            problems.append(f"routed {routed.routing.n_routed} of {n_nets} nets")
        if not check_placements(list(routed.placements.values()),
                                routed.chip).ok:
            problems.append("adjusted placements overlap or leave the chip")
        outcome = (routed.chip_area, routed.wirelength,
                   routed.routing.total_overflow, plan.chip_area,
                   plan.trace.total_nodes, plan.trace.total_lp_calls)
        if self.first.setdefault(cell, outcome) != outcome:
            problems.append(f"outcome {outcome} differs from this run's "
                            f"first {self.first[cell]}")
        return Op(kind, latency, not problems, "; ".join(problems),
                  area_ratio=routed.chip_area / self.module_area,
                  wirelength=routed.wirelength)

    @staticmethod
    def _cell_name(cell) -> str:
        envelopes, mode = cell
        return f"{'envelopes' if envelopes else 'no_envelopes'}+{mode.value}"

    def report(self) -> list[str]:
        lines = ["cell                     chip_area   wirelength  overflow"
                 "  floorplan_s  route+adjust_s"]
        for cell in self.CELLS:
            if cell not in self.first:
                continue
            area, wire, overflow = self.first[cell][:3]
            row = self.rows.get(cell, {"floorplan_s": [0.0], "route_s": [0.0]})
            lines.append(f"{self._cell_name(cell):24s} {area:10.1f} "
                         f"{wire:11.1f} {overflow:9.1f} "
                         f"{statistics.median(row['floorplan_s']):12.3f} "
                         f"{statistics.median(row['route_s']):15.3f}")
        key_env = (True, RouterMode.WEIGHTED)
        key_plain = (False, RouterMode.WEIGHTED)
        if key_env in self.first and key_plain in self.first:
            env, plain = self.first[key_env][0], self.first[key_plain][0]
            lines.append(f"paper's Table-3 shape (envelopes+weighted < "
                         f"no_envelopes+weighted): {env:.1f} vs {plain:.1f}"
                         f" -> {'holds' if env < plain else 'does not hold'}"
                         f" (reported, not gated)")
        return lines

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# table1-bnb
# ---------------------------------------------------------------------------

class Table1Bnb:
    """Table 1 on the own branch-and-bound: fresh instances from a seeded
    stream of 15/20/25-module Series-1 instances in every untraced pass,
    plus ami33 in every pass."""

    name = "table1-bnb"
    setup_rounds = 5
    min_segments = 2  # ami33 repeats once per pass
    op_deadline_s = 60.0
    SIZES = (15, 20, 25)
    PER_SIZE = 7

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.per_size = 1 if smoke else self.PER_SIZE
        if smoke:
            self.setup_rounds = 1
        self.config = FloorplanConfig(seed_size=4, group_size=2, backend="bnb",
                                      presolve=True, warm_start=True,
                                      subproblem_time_limit=30.0)
        self._stream = self.instance_stream(seed)
        # The warm-up instance is the same for every seed, so set-up time
        # does not depend on how hard one seeded draw happens to be.
        self._warm = series1_instance(self.SIZES[0])
        self.ami33 = ami33_like()
        self.first: dict[str, tuple] = {}
        self._last: list = []
        self._drawn = 0
        self.n_seeded = 0
        self.nodes = self.lp_calls = 0
        self._n = 0

    @classmethod
    def instance_stream(cls, seed: int) -> Iterator:
        rng = random.Random(seed)
        while True:
            for n in cls.SIZES:
                yield series1_instance(n, seed=rng.randrange(1 << 30))

    @classmethod
    def inputs(cls, seed: int, count: int = 6) -> list:
        stream = cls.instance_stream(seed)
        return [next(stream) for _ in range(count)]

    def setup(self) -> None:
        clear_caches()
        plan = Floorplanner(self._warm, self.config).run()
        problems = self._problems("warm-up", plan)
        if problems:
            raise RuntimeError(f"the warm-up op failed its checks: {problems}")

    def run_segment(self, recorder=None) -> list:
        if recorder is not None and self._last:
            # A traced segment repeats the untraced one before it, so the
            # tracing overhead compares like with like.
            batch = self._last
        else:
            batch = [(f"#{self._drawn + i}", next(self._stream))
                     for i in range(self.per_size * len(self.SIZES))]
            self._drawn += len(batch)
        self._last = batch
        pending, probes = [], [speed_probe()]
        for key, netlist in batch + [("ami33", self.ami33)]:
            self._n += 1
            pending.append((key, netlist, *_timed_op(
                recorder, f"op{self._n}", self.op_deadline_s,
                lambda: Floorplanner(netlist, self.config).run(), probes)))
        return pending

    def check(self, pending: list) -> list[Op]:
        ops = []
        for key, netlist, latency, probe_s, plan in pending:
            if isinstance(plan, Exception):
                ops.append(Op(netlist.name, latency, False, _problem_of(plan),
                              probe_s=probe_s))
                continue
            problems = self._problems(key, plan)
            if netlist is not self.ami33:
                self.n_seeded += 1
                self.nodes += plan.trace.total_nodes
                self.lp_calls += plan.trace.total_lp_calls
            ops.append(Op(netlist.name, latency, not problems,
                          "; ".join(problems), probe_s=probe_s,
                          area_ratio=plan.chip_area / plan.module_area,
                          wirelength=plan.hpwl()))
        return ops

    def _problems(self, repeat_key: str, plan) -> list[str]:
        """Legality, and for an input seen before in this run, an exact
        repeat of area, nodes and LP calls."""
        problems = []
        if not check_floorplan(plan).ok:
            problems.append("plan is not legal")
        outcome = (plan.chip_area, plan.trace.total_nodes,
                   plan.trace.total_lp_calls)
        if self.first.setdefault(repeat_key, outcome) != outcome:
            problems.append(f"outcome {outcome} differs from this run's "
                            f"first {self.first[repeat_key]}")
        return problems

    def report(self) -> list[str]:
        lines = [f"{key:8s} chip_area {area:10.1f}  nodes {nodes:6d}  "
                 f"lp_calls {lps:6d}  (checked for exact repeats)"
                 for key, (area, nodes, lps) in sorted(self.first.items())
                 if not key.startswith("#")]
        lines.append(f"{self.n_seeded} ops on {self._drawn} seeded instances: "
                     f"nodes {self.nodes}, lp_calls {self.lp_calls}")
        return lines

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# service-mixed
# ---------------------------------------------------------------------------

class _Client:
    """A JSON client over stdlib urllib."""

    def __init__(self, base_url: str) -> None:
        self.base_url = base_url

    def call(self, method: str, path: str, doc: Any = None,
             timeout: float = 30.0) -> tuple[int, Any]:
        body = None if doc is None else json.dumps(doc).encode("utf-8")
        request = urllib.request.Request(
            self.base_url + path, method=method, data=body,
            headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(request, timeout=timeout) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read() or b"null")


class ServiceMixed:
    """Two closed-loop clients; every instance is sent cold, then identical
    (request dedup), then forced (served from the solve cache)."""

    name = "service-mixed"
    setup_rounds = 5
    min_segments = 4  # 32 instances for the quality means
    op_deadline_s = 30.0
    CLIENTS = 2
    BATCH = 8
    JOB_CONFIG = {"seed_size": 4, "group_size": 2}

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.batch = 2 if smoke else self.BATCH
        if smoke:
            self.setup_rounds = 1
        self._stream = self.instance_stream(seed)
        self._warm = self.instance_stream(WARM_UP_SEED)
        self.service: FloorplanService | None = None
        self.httpd = None
        self.thread: threading.Thread | None = None
        self.cache_dir: str | None = None
        self.n_instances = 0
        self.probe_s: float | None = None
        self._probe_after: float | None = None

    @staticmethod
    def instance_stream(seed: int | str) -> Iterator:
        rng = random.Random(seed)
        while True:
            yield random_netlist(rng.randint(8, 11), seed=rng.randrange(1 << 30))

    @classmethod
    def inputs(cls, seed: int, count: int = 4) -> list:
        stream = cls.instance_stream(seed)
        return [next(stream) for _ in range(count)]

    def _doc(self, netlist) -> dict[str, Any]:
        return {"kind": "floorplan", "netlist": netlist_to_dict(netlist),
                "config": dict(self.JOB_CONFIG),
                "deadline_seconds": self.op_deadline_s}

    def setup(self) -> None:
        self._stop_service()
        OUT_DIR.mkdir(exist_ok=True)
        self.cache_dir = tempfile.mkdtemp(prefix="service-cache-", dir=OUT_DIR)
        config = FloorplanConfig(service_execution="inline", service_workers=2,
                                 cache_dir=self.cache_dir)
        self.service = FloorplanService(config)
        self.service.start()
        self.httpd = make_server(self.service)
        self.thread = threading.Thread(target=self.httpd.serve_forever,
                                       kwargs={"poll_interval": 0.05},
                                       name="bench-http")
        self.thread.start()
        host, port = self.httpd.server_address[:2]
        self.client = _Client(f"http://{host}:{port}")
        netlist = next(self._warm)
        warm = self._op(self._doc(netlist), "cold")
        if warm["outcome"] != "done":
            raise RuntimeError(f"the warm-up job failed: {warm}")

    def _op(self, doc: dict[str, Any], kind: str) -> dict[str, Any]:
        """One request from submit to result (a failed op never raises)."""
        started = time.perf_counter()
        record: dict[str, Any] = {"kind": kind, "outcome": "error",
                                  "job_id": None}
        try:
            code, body = self.client.call("POST", "/v1/jobs", doc,
                                          timeout=self.op_deadline_s)
            if code != 202:
                record.update(outcome="refused", detail=f"HTTP {code}: {body}")
                return record
            record["job_id"] = body["job_id"]
            record["deduplicated"] = body["deduplicated"]
            wait = max(0.0, self.op_deadline_s - (time.perf_counter() - started))
            code, body = self.client.call(
                "GET", f"/v1/jobs/{record['job_id']}/result?wait={wait:.3f}",
                timeout=wait + 5.0)
            if code == 200:
                record.update(outcome="done", result=body["result"])
            else:
                record.update(outcome="not-done", detail=f"HTTP {code}: {body}")
                self.client.call("POST", f"/v1/jobs/{record['job_id']}/cancel")
        except (OSError, ValueError, KeyError) as exc:
            record["detail"] = _problem_of(exc)
        finally:
            record["latency_s"] = time.perf_counter() - started
        return record

    def _client_loop(self, work: queue.Queue, out: list) -> None:
        while True:
            try:
                doc = work.get_nowait()
            except queue.Empty:
                return
            triple = [self._op(doc, "cold"), self._op(doc, "dedup"),
                      self._op({**doc, "force": True}, "force")]
            out.append(triple)

    def run_segment(self, recorder=None) -> list:
        # The ops of a batch overlap, so the probes before and after the
        # batch serve them all.  One batch's after-probe is the next one's
        # before-probe.
        before = self._probe_after or speed_probe()
        work: queue.Queue = queue.Queue()
        for _ in range(self.batch):
            work.put(self._doc(next(self._stream)))
        self.n_instances += self.batch
        triples: list = []
        clients = [threading.Thread(target=self._client_loop,
                                    args=(work, triples),
                                    name=f"bench-client-{i}")
                   for i in range(self.CLIENTS)]
        for thread in clients:
            thread.start()
        for thread in clients:
            # Every op has its own deadline, so a batch ends by itself.
            thread.join()
        self._probe_after = speed_probe()
        self.probe_s = (before + self._probe_after) / 2
        return triples

    def check(self, pending: list) -> list[Op]:
        ops = []
        for cold, dedup, force in pending:
            cold_op = self._check_result(cold)
            dedup_op = self._check_result(dedup)
            force_op = self._check_result(force)
            if cold["outcome"] == "done":
                if dedup.get("job_id") != cold["job_id"] \
                        or not dedup.get("deduplicated"):
                    _fail(dedup_op, "identical resubmission was not deduplicated")
                if force["outcome"] == "done":
                    if force["result"]["floorplan"]["placements"] != \
                            cold["result"]["floorplan"]["placements"]:
                        _fail(force_op, "forced resubmission changed the placements")
                    summary = force["result"]["summary"]
                    if summary["cache_misses"] or \
                            summary["cache_hits"] != summary["n_steps"]:
                        _fail(force_op, f"forced resubmission missed the cache "
                                        f"({summary['cache_hits']} hits of "
                                        f"{summary['n_steps']} steps)")
            ops += [cold_op, dedup_op, force_op]
        return ops

    def _check_result(self, record: dict[str, Any]) -> Op:
        op = Op(record["kind"], record["latency_s"], True,
                probe_s=self.probe_s,
                deduplicated=bool(record.get("deduplicated")),
                refused=record["outcome"] == "refused")
        if record["outcome"] != "done":
            _fail(op, f"job did not end done: {record.get('detail')}")
            return op
        if not record.get("deduplicated"):
            job = self.service.get(record["job_id"]).status_doc()
            op.queue_wait_s = job["started_at"] - job["created_at"]
            op.run_s = job["finished_at"] - job["started_at"]
        plan = floorplan_from_dict(record["result"]["floorplan"])
        if not check_floorplan(plan).ok:
            _fail(op, "plan is not legal")
        op.area_ratio = plan.chip_area / plan.module_area
        op.wirelength = plan.hpwl()
        return op

    def report(self) -> list[str]:
        stats = self.service.stats_doc() if self.service else {}
        return [f"instances {self.n_instances}, submissions "
                f"{stats.get('submissions')}, deduplicated "
                f"{stats.get('deduplicated')}, executed {stats.get('executed')}"]

    def _stop_service(self) -> None:
        try:
            if self.httpd is not None:
                self.httpd.shutdown()
                self.httpd.server_close()
            if self.service is not None:
                self.service.stop()
            if self.thread is not None:
                self.thread.join(timeout=10.0)
        finally:
            self.httpd = self.service = self.thread = None
            if self.cache_dir is not None:
                shutil.rmtree(self.cache_dir, ignore_errors=True)
                self.cache_dir = None

    def close(self) -> None:
        self._stop_service()


def _fail(op: Op, problem: str) -> None:
    op.ok = False
    op.problem = f"{op.problem}; {problem}" if op.problem else problem


WORKLOADS: dict[str, Callable[..., Any]] = {
    cls.name: cls for cls in (Table3Ami33, Table1Bnb, ServiceMixed)}
