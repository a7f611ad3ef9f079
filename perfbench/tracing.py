"""Spans recorded from outside the program, around calls into each layer.

Nothing under ``src/`` knows about this module.
:meth:`Instrumentation.install` replaces a fixed set of public entry points
(plus the worker's private batch handler) with wrappers that record one span
per call, and :meth:`Instrumentation.uninstall` puts the originals back.  A span is
``(id, name, start, end, parent, attrs)``: ``parent`` is the id of the span
open on the same thread when this one started, so a layer's self time is
its duration minus the durations of its children.  Spans stay in memory and
are written out once, at the end of the run.

Request ids do not cross process boundaries, so the per-layer numbers of a
multi-process workload are aggregates per process, merged by name.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from measure import percentile

Span = Tuple[int, str, float, float, Optional[int], Dict[str, Any]]

#: Every layer the traced runs must emit at least one span for (the
#: self-test asserts it across the three workloads).
LAYERS = (
    "graph.extraction",
    "temporal.calendars",
    "core.sgselect",
    "core.stgselect",
    "service.query_service",
    "service.codec",
    "service.net",
    "service.placement",
    "service.http",
)


class Tracer:
    """In-memory span recorder; thread-safe, parent links per thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             describe: Optional[Callable[[Any], Dict[str, Any]]] = None) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        attrs = describe(result) if describe is not None else {}
        self.spans.append((span_id, name, start, end, parent, attrs))
        return result

    def record(self, name: str, start: float, end: float) -> None:
        """Add a span timed by the caller (coroutines: no thread stack)."""
        self.spans.append((next(self._ids), name, start, end, None, {}))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans}, handle)


def _search_attrs(result: Any) -> Dict[str, Any]:
    stats = result.stats
    cut = stats.distance_prunes + stats.acquaintance_prunes + stats.availability_prunes
    return {"nodes": stats.nodes_expanded, "cut": cut}


class Instrumentation:
    """The set of wrappers one process installs; undone by :meth:`uninstall`."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._patched: List[Tuple[Any, str, Any]] = []

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap(self, owner: Any, attr: str, name: str,
             describe: Optional[Callable[[Any], Dict[str, Any]]] = None) -> None:
        original = getattr(owner, attr)
        tracer = self.tracer

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return tracer.call(name, original, args, kwargs, describe)

        self._patch(owner, attr, wrapper)

    def install(self) -> "Instrumentation":
        from repro.core.sgselect import SGSelect
        from repro.core.stgselect import STGSelect
        from repro.service import query_service
        from repro.service.http import app as http_app
        from repro.service.http import routes
        from repro.service.net import remote, worker
        from repro.service.placement import PlacementMap
        from repro.service.sharding import ShardMap
        from repro.temporal.calendars import LazyCalendarStore

        tracer = self.tracer

        # graph.extraction: the service's only route into ego extraction.
        self.wrap(query_service, "extract_query_forms", "graph.extraction.extract_query_forms",
                  lambda forms: {"candidates": len(forms[0]) - 1})

        # temporal.calendars: one span per schedule materialised; cached
        # lookups pass straight through.
        original_get = LazyCalendarStore.get

        @functools.wraps(original_get)
        def calendar_get(store, person):
            if person in store._schedules:
                return original_get(store, person)
            return tracer.call("temporal.calendars.materialise", original_get,
                               (store, person), {})

        self._patch(LazyCalendarStore, "get", calendar_get)

        self.wrap(SGSelect, "solve", "core.sgselect.solve", _search_attrs)
        self.wrap(STGSelect, "solve", "core.stgselect.solve", _search_attrs)

        self.wrap(query_service.QueryService, "solve", "service.query_service.solve")
        self.wrap(query_service.QueryService, "solve_many", "service.query_service.solve_many")
        self.wrap(query_service.QueryService, "apply_mutations",
                  "service.query_service.apply_mutations",
                  lambda report: {"mutations": report.mutations,
                                  "invalidated": report.invalidated})

        # service.codec: the codec functions as each caller imported them.
        for module, names in (
            (worker, ("encode_result", "query_from_request")),
            (remote, ("request_for", "decode_result")),
            (routes, ("query_from_request", "response_for")),
        ):
            for attr in names:
                self.wrap(module, attr, f"service.codec.{attr}")

        self.wrap(remote.RemoteBackend, "solve_batch", "service.net.solve_batch")
        original_batch = worker.WorkerServer._handle_batch

        @functools.wraps(original_batch)
        async def worker_batch(server, frame):
            start = time.perf_counter()
            try:
                return await original_batch(server, frame)
            finally:
                tracer.record("service.net.worker_batch", start, time.perf_counter())

        self._patch(worker.WorkerServer, "_handle_batch", worker_batch)

        self.wrap(ShardMap, "partition", "service.placement.partition")
        self.wrap(PlacementMap, "partition", "service.placement.partition")

        self.wrap(http_app.GatewayApp, "handle", "service.http.handle",
                  lambda response: {"status": response.status})
        return self

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def layer_of(name: str) -> str:
    """``service.net.solve_batch`` -> ``service.net``."""
    return name.rsplit(".", 1)[0]


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> duration minus the summed durations of its children."""
    spans = list(spans)
    own = {span[0]: span[3] - span[2] for span in spans}
    for span in spans:
        parent = span[4]
        if parent in own:
            own[parent] -= span[3] - span[2]
    return own


def _median(values: List[float]) -> float:
    return percentile(values, 0.5) if values else 0.0


def span_metrics(processes: Iterable[List[Span]]) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer metrics derived from spans, plus the layers that emitted any.

    ``processes`` holds one span list per process (span ids and parent
    links are only meaningful within a process); the metrics aggregate
    across all of them.
    """
    durations: Dict[str, List[float]] = {}
    own_time: Dict[str, float] = {}
    attrs_of: Dict[str, List[Dict[str, Any]]] = {}
    for spans in processes:
        own = self_times(spans)
        for span_id, name, start, end, _parent, attrs in spans:
            durations.setdefault(name, []).append(end - start)
            own_time[name] = own_time.get(name, 0.0) + own[span_id]
            attrs_of.setdefault(name, []).append(attrs)

    def spans_of(*names: str) -> List[float]:
        return [d for name in names for d in durations.get(name, [])]

    def attr_sum(key: str, *names: str) -> float:
        return sum(a.get(key, 0) for name in names for a in attrs_of.get(name, []))

    extraction = "graph.extraction.extract_query_forms"
    solvers = ("core.sgselect.solve", "core.stgselect.solve")
    mutations = "service.query_service.apply_mutations"
    codec = tuple(name for name in durations if layer_of(name) == "service.codec")
    extraction_calls = len(spans_of(extraction))
    nodes = attr_sum("nodes", *solvers)
    cut = attr_sum("cut", *solvers)
    applied = attr_sum("mutations", mutations)
    metrics = {
        "graph.extraction.calls": extraction_calls,
        "graph.extraction.busy_ms": 1000.0 * sum(spans_of(extraction)),
        "graph.extraction.candidates_per_call": (
            attr_sum("candidates", extraction) / extraction_calls if extraction_calls else 0.0
        ),
        "temporal.calendars.materialised": len(spans_of("temporal.calendars.materialise")),
        "temporal.calendars.busy_ms": 1000.0 * sum(spans_of("temporal.calendars.materialise")),
        "core.solver.calls": len(spans_of(*solvers)),
        "core.solver.self_ms": 1000.0 * sum(own_time.get(name, 0.0) for name in solvers),
        "core.solver.nodes_expanded": nodes,
        "core.solver.prune_ratio": cut / (nodes + cut) if nodes + cut else 0.0,
        "service.cache.invalidations_per_mutation": (
            attr_sum("invalidated", mutations) / applied if applied else 0.0
        ),
        "service.mutations.apply_ms": 1000.0 * _median(spans_of(mutations)),
        "service.codec.calls": len(spans_of(*codec)),
        "service.codec.busy_ms": 1000.0 * sum(spans_of(*codec)),
        "service.net.batches": len(spans_of("service.net.solve_batch")),
        "service.net.rtt_ms": 1000.0 * _median(spans_of("service.net.solve_batch")),
        "service.net.worker_ms": 1000.0 * _median(spans_of("service.net.worker_batch")),
        "service.http.handle_ms": 1000.0 * _median(spans_of("service.http.handle")),
        "service.http.shed": sum(
            1 for a in attrs_of.get("service.http.handle", []) if a.get("status") == 429
        ),
    }
    return metrics, sorted({layer_of(name) for name in durations})
