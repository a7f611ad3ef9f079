"""The three workloads: set-up, timed phase, output checks, metrics.

Every workload builds its inputs from the fixed dataset seeds below and
draws its traffic from the run's ``--seed``; the program under test only
ever sees the generated graph, queries and mutations.

* ``ego_scale`` — closed loop, one client, in-process serial
  ``QueryService`` over the packed 10⁵-vertex substrate (mmap'd).
* ``paper_live`` — closed loop, one client, in-process serial
  ``QueryService`` over the paper's 194-person dataset, one op in ten a
  mutation.
* ``http_hot`` — open loop (jittered-periodic arrivals at a fixed rate,
  two keep-alive connections) against ``stgq http --backend remote`` over two
  ``stgq worker`` processes.

Initiator draws are quasi-random (a Kronecker sequence with a seeded
offset, mapped through the Zipf CDF) and query shapes cycle through every
combination in a seeded order, so any prefix of the stream carries nearly
the nominal mix: this keeps run-to-run spread down without fixing the
queries themselves.

Every CPU-bound time is rescaled to the reference host by the
:mod:`hostspeed` probe run between ops (the wall-clock latencies of
``http_hot`` are not: they are mostly TCP timers, not CPU work).
"""

from __future__ import annotations

import bisect
import gc
import http.client
import itertools
import json
import math
import os
import random
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from hostspeed import PROBE_EVERY_S, PROBE_WINDOW, SpeedProbe
from measure import cpu_seconds, peak_rss_mb, percentile, reset_peak_rss
from tracing import Instrumentation, Tracer, span_metrics

from repro.core import SearchParameters, SGQuery, SGSelect, STGQuery, STGSelect
from repro.core.constraints import check_sg_solution, check_stg_solution
from repro.datasets import dataset_from_substrate, generate_real_dataset, generate_scale_graph
from repro.exceptions import ReproError
from repro.experiments.workloads import zipfian_weights
from repro.graph.csr import pack_graph
from repro.graph.mutations import generate_mutation_trace
from repro.service import QueryService
from repro.service.codec import query_from_request, response_for

#: Seed of the packed Chung-Lu graph (the graph ROADMAP's figures use).
GRAPH_SEED = 7
#: Seed of the paper-style 194-person community (``workload(194)``).
DATASET_SEED = 42
#: Set-ups per untraced run (``setup_s`` is their median): at least
#: ``SETUP_REPEATS``, more while they have taken under ``SETUP_MIN_SECONDS``.
SETUP_REPEATS = 3
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPEATS = 25
#: One op in this many is a mutation on ``paper_live``.
MUTATION_EVERY = 10
#: ``http_hot`` offered load.  At the commit that introduced this benchmark
#: the fleet answers at most ~45 requests/s over two keep-alive connections
#: (each response stalls ~44 ms on Nagle + delayed ACK), so 35/s sits below
#: capacity while still giving >= 1,000 samples in a 30 s run.
HTTP_RATE = 35.0
HTTP_CONNECTIONS = 2
#: Share of its 1/rate slot over which each arrival is spread.  Below
#: 2 - 44 ms * rate (~0.46), requests i and i + 2 are never due within one
#: stalled response of each other, so two connections queue only when a
#: response is slower than the parent's ~44 ms.
HTTP_JITTER = 0.4
#: Back-to-back requests on each measurement connection before timing.
CONNECTION_WARM = 16
#: Probe interval while the open loop runs (~2 % of one CPU).
HTTP_PROBE_EVERY_S = 0.1
#: A run whose generator sent requests later than a third of the 1/rate
#: slot (p99) is invalid.  Timer wake-ups on a shared 2-vCPU host alone run
#: ~3 ms late at p99, so a tighter limit would reject healthy runs.
MAX_LAG_P99_MS = 1000.0 / HTTP_RATE / 3.0
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

SIZES = {
    "full": {"people": 100_000, "pool_start": 64, "pool": 8192, "radius2_cap": 3000,
             "hot_initiators": 48},
    "toy": {"people": 3000, "pool_start": 8, "pool": 512, "radius2_cap": 400,
            "hot_initiators": 12},
}


@dataclass
class Options:
    seed: int
    seconds: float
    trace: bool
    size: str
    work: Path


@dataclass
class Outcome:
    """What one timed phase observed."""

    latencies_ms: List[float] = field(default_factory=list)
    write_ms: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    ok_queries: int = 0
    seconds: float = 0.0
    cpu_seconds: float = 0.0
    #: Closed loop: per op (is a query, wall s, CPU s, probe block, passed).
    ops: List[Tuple[bool, float, float, int, bool]] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    extra: Dict[str, Any] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)


def _median_setup(build: Callable[[int], Tuple[float, Any]],
                  discard: Callable[[Any], None], once: bool,
                  probe: SpeedProbe) -> Tuple[float, float, Any]:
    """Set up several times (``once``: a single time); keep the last.

    Returns the median set-up time, each rescaled by the probe samples taken
    just before and after it, the raw median, and the last state.  Short
    set-ups repeat until they have run ``SETUP_MIN_SECONDS`` in total, so a
    set-up of a few milliseconds still gives a steady median.
    """
    times: List[float] = []
    scaled: List[float] = []
    state = None
    while not times or not once and (len(times) < SETUP_REPEATS or (
        sum(times) < SETUP_MIN_SECONDS and len(times) < SETUP_MAX_REPEATS
    )):
        if state is not None:
            discard(state)
        probe.sample(PROBE_WINDOW)
        elapsed, state = build(len(times))
        mark = len(probe.wall)
        probe.sample(PROBE_WINDOW)
        times.append(elapsed)
        scaled.append(elapsed * probe.factor(mark - PROBE_WINDOW, mark + PROBE_WINDOW))
    return statistics.median(scaled), statistics.median(times), state


# ----------------------------------------------------------------------
# query streams
# ----------------------------------------------------------------------
def _zipf_stream(pool: Sequence[Any], skew: float, seed: int) -> Iterator[Any]:
    """Quasi-random Zipf draws over ``pool`` (rank order, heaviest first)."""
    cumulative = list(itertools.accumulate(zipfian_weights(len(pool), skew)))
    total = cumulative[-1]
    u = random.Random(seed).random()
    while True:
        u = (u + GOLDEN) % 1.0
        yield pool[min(bisect.bisect(cumulative, u * total), len(pool) - 1)]


def _shape_stream(seed: int) -> Iterator[Tuple[int, int, Optional[int]]]:
    """(group size, preferred radius, activity length or None), every combination
    once per cycle in a seeded order; half the shapes are STGQ.

    Radius 2 goes with p <= 4 only: a single p = 5 radius-2 STGQ took up to
    9 s on the scale graph, and on the 194-person graph those queries were
    half of all service time, so a handful of them decided a run's numbers.
    """
    shapes = [
        (p, radius, m)
        for p, radius in ((3, 1), (3, 2), (4, 1), (4, 2), (5, 1))
        for m in (None, None, None, 2, 3, 4)
    ]
    rng = random.Random(seed ^ 0x5EED)
    while True:
        rng.shuffle(shapes)
        yield from shapes


def _query(initiator: Any, p: int, radius: int, m: Optional[int]):
    # k = p - 2: every member must know at least one other member.
    if m is None:
        return SGQuery(initiator=initiator, group_size=p, radius=radius, acquaintance=p - 2)
    return STGQuery(initiator=initiator, group_size=p, radius=radius, acquaintance=p - 2,
                    activity_length=m)


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------
def check_result(graph, calendars, query, result) -> Optional[str]:
    """Constraint check of one feasible answer against the live graph."""
    if not result.feasible:
        return None
    if isinstance(query, STGQuery):
        report = check_stg_solution(graph, calendars, query, result.members, result.period)
    else:
        report = check_sg_solution(graph, query, result.members)
    if not report.ok:
        return f"{query}: " + "; ".join(report.violations)
    if not math.isclose(report.total_distance, result.total_distance,
                        rel_tol=1e-9, abs_tol=1e-9):
        return (f"{query}: reported distance {result.total_distance} "
                f"!= recomputed {report.total_distance}")
    return None


def reference_mismatch(graph, calendars, query, result) -> Optional[str]:
    """Compare one answer with the pure-Python reference kernel's."""
    params = SearchParameters(kernel="reference")
    if isinstance(query, STGQuery):
        expected = STGSelect(graph, calendars, params).solve(query)
        same_period = expected.period == result.period
    else:
        expected = SGSelect(graph, params).solve(query)
        same_period = True
    if (expected.feasible, expected.sorted_members(), expected.total_distance) == (
        result.feasible, result.sorted_members(), result.total_distance
    ) and same_period:
        return None
    return (f"{query}: kernel answer {result.sorted_members()} "
            f"({result.total_distance}) != reference {expected.sorted_members()} "
            f"({expected.total_distance})")


# ----------------------------------------------------------------------
# in-process closed loop (ego_scale, paper_live)
# ----------------------------------------------------------------------
def closed_loop(service: QueryService, ops: Iterator[Tuple[str, Any]], seconds: float,
                reference_sample: Callable[[Any], bool], probe: SpeedProbe) -> Outcome:
    """One client: next op only after the previous one returned.

    The clock runs only while the service works; checks and probe samples
    happen between ops with the clock stopped.  CPU time is the calling
    thread's (the serial backend does all of its work there).  Each op is
    recorded raw with its probe block; :func:`_closed_metrics` rescales.
    """
    out = Outcome()
    probe.sample()
    since_probe = 0.0
    for kind, payload in ops:
        if out.seconds >= seconds:
            break
        if since_probe >= PROBE_EVERY_S:
            probe.sample()
            since_probe = 0.0
        out.attempted += 1
        error: Optional[str] = None
        started_cpu = time.thread_time()
        started = time.perf_counter()
        try:
            if kind == "query":
                result = service.solve(payload)
            else:
                service.apply_mutations([payload])
        except ReproError as exc:
            error = f"{kind} {payload}: {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - started
        used = time.thread_time() - started_cpu
        out.seconds += elapsed
        since_probe += elapsed
        block = len(probe.wall) - 1
        if kind == "mutation":
            out.ops.append((False, elapsed, used, block, error is None))
            if error is not None:
                out.fail(error)
            continue
        if error is None:
            error = check_result(service.graph, service.calendars, payload, result)
        if error is None and reference_sample(payload):
            out.extra["reference_checked"] = out.extra.get("reference_checked", 0) + 1
            error = reference_mismatch(service.graph, service.calendars, payload, result)
        out.ops.append((True, elapsed, used, block, error is None))
        if error is None:
            out.ok_queries += 1
        else:
            out.fail(error)
    probe.sample()
    return out


def _closed_metrics(out: Outcome, wall: Sequence[float],
                    cpu: Sequence[float]) -> Dict[str, float]:
    """End-to-end metrics of a closed loop, each op's wall and CPU time
    multiplied by its block's factor; fills ``out``'s latency lists."""
    out.latencies_ms, out.write_ms = [], []
    busy = used_cpu = 0.0
    for query, elapsed, used, block, passed in out.ops:
        elapsed *= wall[block]
        busy += elapsed
        used_cpu += used * cpu[block]
        if not query:
            out.write_ms.append(elapsed * 1000.0)
        else:
            out.latencies_ms.append(elapsed * 1000.0 if passed else math.inf)
    out.cpu_seconds = used_cpu
    return {
        "throughput_qps": out.ok_queries / busy if busy else 0.0,
        "latency_p50_ms": percentile(out.latencies_ms, 0.50),
        "latency_p90_ms": percentile(out.latencies_ms, 0.90),
        "latency_p99_ms": percentile(out.latencies_ms, 0.99),
        "error_ratio": out.failed / out.attempted if out.attempted else 1.0,
        "write_latency_p50_ms": percentile(out.write_ms, 0.50) if out.write_ms else 0.0,
        "cpu_ms_per_query": 1000.0 * used_cpu / max(1, out.ok_queries),
    }


def _traced_halves(run_half: Callable[[bool], Outcome]
                   ) -> Tuple[Outcome, Dict[str, float], List[str], float]:
    """Untraced half then traced half of the same stream; per-layer metrics.

    Returns the traced outcome, the span metrics, the layers seen and the
    tracing overhead: mean op latency over the common prefix, traced over
    untraced, minus one.
    """
    plain = run_half(False)
    tracer = Tracer()
    instrumentation = Instrumentation(tracer).install()
    try:
        traced = run_half(True)
    finally:
        instrumentation.uninstall()
    metrics, layers = span_metrics([tracer.spans])
    n = min(len(plain.latencies_ms), len(traced.latencies_ms))
    base = sum(plain.latencies_ms[:n])
    overhead = sum(traced.latencies_ms[:n]) / base - 1.0 if n and base else 0.0
    return traced, metrics, layers, overhead


def _layer_defaults() -> Dict[str, float]:
    """Layers a workload never reaches read 0."""
    return {
        "service.net.failovers": 0,
        "service.placement.max_imbalance": 0.0,
        "service.http.unaccounted_ms": 0.0,
        "service.http.queued_ratio": 0.0,
        "loadgen.lag_p99_ms": 0.0,
    }


# ----------------------------------------------------------------------
# ego_scale
# ----------------------------------------------------------------------
def _ego_plan(graph, sizes: Dict[str, int]) -> Tuple[List[int], Dict[int, int]]:
    """Degree-ranked initiator pool and each member's 2-hop ego bound."""
    order = sorted(graph.vertices(), key=lambda v: (-graph.degree(v), v))
    pool = order[sizes["pool_start"]:sizes["pool_start"] + sizes["pool"]]
    two_hop = {
        v: graph.degree(v) + sum(graph.degree(u) for u in graph.neighbors(v)) for v in pool
    }
    return pool, two_hop


def _ego_ops(pool, two_hop, cap: int, seed: int) -> Iterator[Tuple[str, Any]]:
    for initiator, (p, radius, m) in zip(_zipf_stream(pool, 0.8, seed), _shape_stream(seed)):
        # Radius 2 only where the whole 2-hop ego stays within a few
        # thousand candidates (the hub-sized egos belong to ROADMAP item 1).
        if radius == 2 and two_hop[initiator] > cap:
            radius = 1
        yield "query", _query(initiator, p, radius, m)


def run_ego_scale(opts: Options) -> Dict[str, Any]:
    sizes = SIZES[opts.size]
    probe = SpeedProbe()

    def build(rep: int):
        started = time.perf_counter()
        path = opts.work / f"scale-{rep}.stgq"
        pack_graph(generate_scale_graph(sizes["people"], seed=GRAPH_SEED), path)
        dataset = dataset_from_substrate(path, seed=GRAPH_SEED)
        service = QueryService(dataset.graph, dataset.calendars, backend="serial")
        return time.perf_counter() - started, (path, service)

    setup_s, raw_setup_s, (path, service) = _median_setup(
        build, lambda state: state[1].close(), once=opts.trace, probe=probe)
    pool, two_hop = _ego_plan(service.graph, sizes)
    small = {v for v in pool if service.graph.degree(v) <= 40}

    def new_service() -> QueryService:
        dataset = dataset_from_substrate(path, seed=GRAPH_SEED)
        return QueryService(dataset.graph, dataset.calendars, backend="serial")

    def reference_sample(query) -> bool:
        return query.radius == 1 and query.initiator in small and query.group_size <= 4

    return _in_process(
        opts, (setup_s, raw_setup_s), probe, service, new_service,
        lambda svc: _ego_ops(pool, two_hop, sizes["radius2_cap"], opts.seed),
        reference_sample,
    )


def _in_process(opts: Options, setup: Tuple[float, float], probe: SpeedProbe,
                service: QueryService, new_service: Callable[[], QueryService],
                ops_for: Callable[[QueryService], Iterator[Tuple[str, Any]]],
                reference_sample: Callable[[Any], bool]) -> Dict[str, Any]:
    """Timed phase of a closed-loop workload; with ``opts.trace``, the
    untraced half runs on the set-up ``service`` and the traced half on a
    fresh one from ``new_service``."""

    def run_half(fresh: bool) -> Outcome:
        svc = new_service() if fresh else service
        seconds = opts.seconds / 2 if opts.trace else opts.seconds
        checks = (lambda q: False) if fresh else reference_sample
        probe.wall.clear()
        probe.cpu.clear()
        reset_peak_rss()
        out = closed_loop(svc, ops_for(svc), seconds, checks, probe)
        out.extra["peak_rss_mb"] = peak_rss_mb(os.getpid())
        out.extra["cache_hit_ratio"] = svc.cache_info().hit_rate
        ones = [1.0] * len(probe.wall)
        out.extra["raw_metrics"] = _closed_metrics(out, ones, ones)
        out.extra["metrics"] = _closed_metrics(out, probe.block_factors(),
                                               probe.block_factors(cpu=True))
        out.extra["probe_ms_p50"] = 1000.0 * statistics.median(probe.wall)
        svc.close()
        return out

    if not opts.trace:
        out = run_half(False)
        metrics = dict(out.extra["metrics"])
        metrics["peak_rss_mb"] = out.extra["peak_rss_mb"]
        metrics["setup_s"], out.extra["raw_metrics"]["setup_s"] = setup
        return _report(out, metrics, valid=True)
    traced, metrics, layers, overhead = _traced_halves(run_half)
    metrics.update(_layer_defaults())
    metrics["service.cache.hit_ratio"] = traced.extra["cache_hit_ratio"]
    metrics["trace.overhead_ratio"] = overhead
    report = _report(traced, metrics, valid=True)
    report["layers"] = layers
    return report


# ----------------------------------------------------------------------
# paper_live
# ----------------------------------------------------------------------
def _paper_ops(graph, mutations, seed: int) -> Iterator[Tuple[str, Any]]:
    pool = sorted(graph.vertices(), key=lambda v: (-graph.degree(v), v))
    queries = zip(_zipf_stream(pool, 1.0, seed), _shape_stream(seed))
    writes = iter(mutations)
    for index in itertools.count():
        if index % MUTATION_EVERY == MUTATION_EVERY - 1:
            yield "mutation", next(writes)
        else:
            initiator, (p, radius, m) = next(queries)
            yield "query", _query(initiator, p, radius, m)


def _paper_service() -> QueryService:
    # workload(194) memoises its dataset and mutations edit the graph in
    # place, so every set-up generates a private copy the same way.
    dataset = generate_real_dataset(n_people=194, schedule_days=1, seed=DATASET_SEED)
    return QueryService(dataset.graph, dataset.calendars, backend="serial")


def run_paper_live(opts: Options) -> Dict[str, Any]:
    probe = SpeedProbe()

    def build(rep: int):
        started = time.perf_counter()
        service = _paper_service()
        return time.perf_counter() - started, service

    setup_s, raw_setup_s, service = _median_setup(build, QueryService.close,
                                                  once=opts.trace, probe=probe)
    # Valid in sequence from the seeded start state; far more than a run uses.
    # The trace is part of the fixed workload, like the graph: with one trace
    # per --seed, the graph drifted differently in every run and one seed's
    # trace alone cost 40 % of the throughput.  --seed draws the reads.
    mutations = generate_mutation_trace(
        service.graph, 20_000, seed=DATASET_SEED, horizon=service.calendars.horizon
    )
    seen = itertools.count()

    def reference_sample(query) -> bool:
        return query.radius == 1 and next(seen) % 7 == 0

    return _in_process(
        opts, (setup_s, raw_setup_s), probe, service, _paper_service,
        lambda svc: _paper_ops(svc.graph, mutations, opts.seed),
        reference_sample,
    )


# ----------------------------------------------------------------------
# http_hot
# ----------------------------------------------------------------------
SERVE = Path(__file__).resolve().parent / "serve.py"


def _await_ready(proc: subprocess.Popen, timeout: float = 60.0) -> str:
    """Read the ``...-READY host port`` line; return ``host:port``."""
    deadline = time.monotonic() + timeout
    while True:
        left = deadline - time.monotonic()
        if left <= 0:
            raise RuntimeError(f"pid {proc.pid} not ready after {timeout}s")
        readable, _, _ = select.select([proc.stdout], [], [], left)
        if not readable:
            continue
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError(f"pid {proc.pid} exited before it was ready")
        parts = line.split()
        if len(parts) == 3 and parts[0].endswith("-READY"):
            return f"{parts[1]}:{parts[2]}"


class Fleet:
    """Two ``stgq worker`` processes behind one ``stgq http`` gateway."""

    def __init__(self, graph_path: Path, work: Path, label: str, traced: bool) -> None:
        self.procs: List[subprocess.Popen] = []
        self.span_files: List[Path] = []
        self._logs = []
        self.work = work
        self.label = label
        self.traced = traced
        self.graph_path = graph_path

    def _spawn(self, name: str, args: List[str]) -> subprocess.Popen:
        env = dict(os.environ)
        env.pop("PERFBENCH_SPANS", None)
        if self.traced:
            spans = self.work / f"spans-{self.label}-{name}.json"
            self.span_files.append(spans)
            env["PERFBENCH_SPANS"] = str(spans)
        log = open(self.work / f"{self.label}-{name}.log", "w")
        self._logs.append(log)
        proc = subprocess.Popen(
            [sys.executable, str(SERVE)] + args,
            stdout=subprocess.PIPE, stderr=log, text=True, env=env,
        )
        self.procs.append(proc)
        return proc

    def start(self) -> str:
        common = ["--graph", str(self.graph_path), "--seed", str(GRAPH_SEED)]
        workers = [
            self._spawn(f"worker{i}", ["worker", "--listen", "127.0.0.1:0"] + common)
            for i in range(2)
        ]
        addresses = [_await_ready(proc) for proc in workers]
        gateway = self._spawn("gateway", [
            "http", "--listen", "127.0.0.1:0", "--backend", "remote",
            "--connect", ",".join(addresses), "--access-log", "none",
        ] + common)
        return _await_ready(gateway)

    @property
    def pids(self) -> List[int]:
        return [proc.pid for proc in self.procs]

    def stop(self) -> None:
        """SIGTERM (drained shutdown), gateway first; kill what hangs."""
        for proc in reversed(self.procs):
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for proc in reversed(self.procs):
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        for log in self._logs:
            log.close()

    def spans(self) -> List[List[Any]]:
        return [json.loads(path.read_text())["spans"] for path in self.span_files]


def _hot_pool(graph, count: int) -> List[bytes]:
    """Radius-1 request bodies over small-ego initiators, half STGQ."""
    small = sorted(v for v in graph.vertices() if 6 <= graph.degree(v) <= 24)
    step = max(1, len(small) // count)
    bodies = []
    for initiator in small[::step][:count]:
        bodies.append({"initiator": initiator, "group_size": 3, "radius": 1,
                       "acquaintance": 1})
        bodies.append({"initiator": initiator, "group_size": 4, "radius": 1,
                       "acquaintance": 2, "activity_length": 2})
    return [json.dumps(body, separators=(",", ":")).encode() for body in bodies]


def _expected_bodies(graph_path: Path, bodies: List[bytes]) -> List[bytes]:
    """What a serial in-process service answers, encoded as the gateway does."""
    dataset = dataset_from_substrate(graph_path, seed=GRAPH_SEED)
    with QueryService(dataset.graph, dataset.calendars, backend="serial") as serial:
        expected = []
        for body in bodies:
            result = serial.solve(query_from_request(json.loads(body)))
            expected.append(json.dumps(response_for(None, result),
                                       separators=(",", ":")).encode())
    return expected


def _post(conn: http.client.HTTPConnection, body: bytes) -> Tuple[int, bytes]:
    conn.request("POST", "/v1/queries", body=body,
                 headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    return response.status, response.read()


def _get_stats(address: str) -> Dict[str, Any]:
    host, port = address.rsplit(":", 1)
    conn = http.client.HTTPConnection(host, int(port), timeout=30)
    try:
        conn.request("GET", "/stats")
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


def _warm(address: str, bodies: List[bytes]) -> None:
    """One batch request carrying the whole hot pool fills the worker caches."""
    host, port = address.rsplit(":", 1)
    batch = b'{"queries":[' + b",".join(bodies) + b'],"page_size":1}'
    conn = http.client.HTTPConnection(host, int(port), timeout=120)
    try:
        status, payload = _post(conn, batch)
    finally:
        conn.close()
    if status != 200:
        raise RuntimeError(f"warm-up batch failed with {status}: {payload[:200]!r}")


def open_loop(address: str, bodies: List[bytes], schedule: List[Tuple[float, int]],
              on_start: Callable[[], None], probe: SpeedProbe
              ) -> List[Tuple[float, float, float, Optional[int], bytes, float]]:
    """Send ``schedule`` ((offset s, body index) pairs) over keep-alive connections.

    Each of ``HTTP_CONNECTIONS`` sender threads first sends
    ``CONNECTION_WARM`` requests back to back on its connection, as a busy
    keep-alive client does.  The kernel's delayed-ACK mode of a connection
    depends on how quickly it sent after it last received, and a loop at a
    fixed rate keeps whichever mode it starts in; warming every connection
    the same way makes that start state the same in every run.
    ``on_start`` runs once the connections are warm, before the clock starts.
    Meanwhile the calling thread takes a ``probe`` sample every
    ``HTTP_PROBE_EVERY_S``.

    Then each sender takes the next due request as soon as it is free, so a
    request waits for a connection only while both are busy — that wait is
    the system's, and counts in its latency (timed from the due time).  The
    generator's own lateness is ``send - max(due, connection free)``.
    Returns per request ``(due, sent, done, status, body, lag)``.
    """
    host, port = address.rsplit(":", 1)
    results: List[Any] = [None] * len(schedule)
    counter = itertools.count()
    origin = [0.0]
    errors: List[BaseException] = []

    def start_clock() -> None:
        on_start()
        origin[0] = time.perf_counter() + 0.01

    ready = threading.Barrier(HTTP_CONNECTIONS, action=start_clock)

    def sender() -> None:
        conn = http.client.HTTPConnection(host, int(port), timeout=60)
        try:
            for i in range(CONNECTION_WARM):
                status, payload = _post(conn, bodies[i % len(bodies)])
                if status != 200:
                    raise RuntimeError(f"connection warm-up answered {status}: {payload[:200]!r}")
            ready.wait(timeout=120)
            free_at = origin[0]
            while True:
                index = next(counter)
                if index >= len(schedule):
                    return
                offset, which = schedule[index]
                due = origin[0] + offset
                wait = due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                sent = time.perf_counter()
                lag = sent - max(due, free_at)
                try:
                    status, payload = _post(conn, bodies[which])
                except (OSError, http.client.HTTPException):
                    conn.close()
                    conn = http.client.HTTPConnection(host, int(port), timeout=60)
                    status, payload = None, b""
                done = free_at = time.perf_counter()
                results[index] = (due, sent, done, status, payload, lag)
        except BaseException as exc:  # re-raised by the caller after join
            errors.append(exc)
            ready.abort()
        finally:
            conn.close()

    # A sender waking for its due time must not wait out the default 5 ms
    # interpreter switch interval behind the other sender, nor a garbage
    # collection of the generator's own heap: neither is the service's time.
    switch = sys.getswitchinterval()
    sys.setswitchinterval(0.0002)
    gc.collect()
    gc.disable()
    threads = [threading.Thread(target=sender) for _ in range(HTTP_CONNECTIONS)]
    try:
        for thread in threads:
            thread.start()
        while threads[-1].is_alive():
            threads[-1].join(HTTP_PROBE_EVERY_S)
            probe.sample()
    finally:
        for thread in threads:
            if thread.ident is not None:
                thread.join()
        gc.enable()
        sys.setswitchinterval(switch)
    if errors:
        raise errors[0]
    return results


def _delta(after: Dict[str, Any], before: Dict[str, Any], *path: str) -> float:
    a, b = after, before
    for key in path:
        a, b = a[key], b[key]
    return a - b


def _http_phase(opts: Options, fleet: Fleet, address: str, bodies: List[bytes],
                expected: List[bytes], seconds: float, probe: SpeedProbe) -> Outcome:
    rng = random.Random(opts.seed)
    count = int(round(HTTP_RATE * seconds))
    # Jittered-periodic arrivals: request i is due at a uniform instant in
    # [i, i + HTTP_JITTER) / rate.  Poisson arrivals at this rate made p99
    # swing by 20-60 % between seeds on queueing bursts alone, which would
    # hide the service-time changes this workload exists to show.
    schedule = [((i + HTTP_JITTER * rng.random()) / HTTP_RATE, rng.randrange(len(bodies)))
                for i in range(count)]
    start: Dict[str, Any] = {}

    def snapshot() -> None:
        start["stats"] = _get_stats(address)
        start["cpu"] = sum(cpu_seconds(pid) for pid in fleet.pids)
        start["time"] = time.perf_counter()

    probe.wall.clear()
    probe.cpu.clear()
    records = open_loop(address, bodies, schedule, snapshot, probe)
    started = start["time"]
    elapsed = time.perf_counter() - started
    cpu_after = sum(cpu_seconds(pid) for pid in fleet.pids)
    after = _get_stats(address)
    before = start["stats"]
    out = Outcome(seconds=elapsed, cpu_seconds=cpu_after - start["cpu"])
    service_ms = []
    lags = []
    for (_, which), (due, sent, done, status, payload, lag) in zip(schedule, records):
        out.attempted += 1
        lags.append(lag * 1000.0)
        if status != 200:
            out.fail(f"request {bodies[which]!r} answered {status}: {payload[:200]!r}")
            out.latencies_ms.append(math.inf)
        elif payload != expected[which]:
            out.fail(f"request {bodies[which]!r}: {payload!r} != serial {expected[which]!r}")
            out.latencies_ms.append(math.inf)
        else:
            out.ok_queries += 1
            out.latencies_ms.append((done - due) * 1000.0)
            service_ms.append((done - sent) * 1000.0)
    routed = [a - b for a, b in zip(after["routing"]["routed"], before["routing"]["routed"])]
    admitted = _delta(after, before, "admission", "admitted")
    lookups = _delta(after, before, "cache", "hits") + _delta(after, before, "cache", "misses")
    out.extra.update({
        "service_ms": service_ms,
        "lag_p99_ms": percentile(lags, 0.99),
        "rss_mb": sum(peak_rss_mb(pid) for pid in fleet.pids),
        "cache_hit_ratio": _delta(after, before, "cache", "hits") / lookups if lookups else 0.0,
        "max_imbalance": max(routed) / (sum(routed) / len(routed)) if sum(routed) else 0.0,
        "queued_ratio": (
            _delta(after, before, "admission", "admitted_after_queueing") / admitted
            if admitted else 0.0
        ),
        "failovers": _delta(after, before, "routing", "failover_queries"),
        "cpu_factor": probe.factor(0, len(probe.cpu), cpu=True),
        "probe_ms_p50": 1000.0 * statistics.median(probe.wall),
        "offered_rate": HTTP_RATE,
        "requests": count,
        "window": (started, started + elapsed),
    })
    return out


def run_http_hot(opts: Options) -> Dict[str, Any]:
    sizes = SIZES[opts.size]
    probe = SpeedProbe()

    def build(rep: int, traced: bool = False, label: Optional[str] = None):
        started = time.perf_counter()
        path = opts.work / f"hot-{rep}.stgq"
        pack_graph(generate_scale_graph(sizes["people"], seed=GRAPH_SEED), path)
        fleet = Fleet(path, opts.work, label or f"rep{rep}", traced)
        try:
            address = fleet.start()
            # Bodies depend only on the graph; recomputing them per rep
            # keeps every rep doing the same work.
            dataset = dataset_from_substrate(path, seed=GRAPH_SEED)
            bodies = _hot_pool(dataset.graph, sizes["hot_initiators"])
            _warm(address, bodies)
        except BaseException:
            fleet.stop()
            raise
        return time.perf_counter() - started, (fleet, address, bodies)

    def discard(state):
        state[0].stop()

    if not opts.trace:
        setup_s, raw_setup_s, (fleet, address, bodies) = _median_setup(
            build, discard, once=False, probe=probe)
        try:
            expected = _expected_bodies(fleet.graph_path, bodies)
            out = _http_phase(opts, fleet, address, bodies, expected, opts.seconds, probe)
        finally:
            fleet.stop()
        # Latencies stay raw: at this rate they are mostly TCP timer waits.
        raw_cpu_ms = 1000.0 * out.cpu_seconds / max(1, out.ok_queries)
        out.extra["raw_metrics"] = {"cpu_ms_per_query": raw_cpu_ms, "setup_s": raw_setup_s}
        metrics = {
            "throughput_qps": out.ok_queries / out.seconds,
            "latency_p50_ms": percentile(out.latencies_ms, 0.50),
            "latency_p90_ms": percentile(out.latencies_ms, 0.90),
            "latency_p99_ms": percentile(out.latencies_ms, 0.99),
            "error_ratio": out.failed / out.attempted,
            "write_latency_p50_ms": 0.0,
            "cpu_ms_per_query": raw_cpu_ms * out.extra["cpu_factor"],
            "peak_rss_mb": out.extra["rss_mb"],
            "setup_s": setup_s,
        }
        return _report(out, metrics, valid=out.extra["lag_p99_ms"] <= MAX_LAG_P99_MS)

    halves = {}
    for traced in (False, True):
        _, (fleet, address, bodies) = build(int(traced), traced, f"trace{int(traced)}")
        try:
            expected = _expected_bodies(fleet.graph_path, bodies)
            halves[traced] = _http_phase(opts, fleet, address, bodies, expected,
                                         opts.seconds / 2, probe)
        finally:
            fleet.stop()
    traced = halves[True]
    # perf_counter is CLOCK_MONOTONIC, shared by every process on the host:
    # keep the spans of the timed window, not those of set-up and warm-up.
    start, end = traced.extra.pop("window")
    metrics, layers = span_metrics(
        [[span for span in spans if start <= span[2] and span[3] <= end]
         for spans in fleet.spans()]
    )
    plain_ms = statistics.fmean(halves[False].extra["service_ms"] or [math.nan])
    traced_ms = statistics.fmean(traced.extra["service_ms"] or [math.nan])
    client_p50 = percentile(traced.extra["service_ms"], 0.50)
    metrics.update({
        "service.cache.hit_ratio": traced.extra["cache_hit_ratio"],
        "service.net.failovers": traced.extra["failovers"],
        "service.placement.max_imbalance": traced.extra["max_imbalance"],
        "service.http.unaccounted_ms": client_p50 - metrics["service.http.handle_ms"],
        "service.http.queued_ratio": traced.extra["queued_ratio"],
        "loadgen.lag_p99_ms": traced.extra["lag_p99_ms"],
        "trace.overhead_ratio": traced_ms / plain_ms - 1.0,
    })
    traced.extra["client_service_p50_ms"] = client_p50
    report = _report(traced, metrics, valid=traced.extra["lag_p99_ms"] <= MAX_LAG_P99_MS)
    report["layers"] = layers
    return report


def _report(out: Outcome, metrics: Dict[str, float], valid: bool) -> Dict[str, Any]:
    extra = {k: v for k, v in out.extra.items()
             if k not in ("metrics", "service_ms", "window")}
    return {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "ok_queries": out.ok_queries,
        "samples": len(out.latencies_ms),
        "writes": len(out.write_ms),
        "timed_seconds": out.seconds,
        "valid": valid,
        "problems": out.problems,
        "metrics": metrics,
        "extra": extra,
    }


WORKLOADS = {
    "ego_scale": run_ego_scale,
    "paper_live": run_paper_live,
    "http_hot": run_http_hot,
}
