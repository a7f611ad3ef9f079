"""Versioned, load-aware placement of initiators onto workers.

:mod:`repro.service.sharding` routes by CRC32 of the initiator's repr —
uniform over *initiators*, which a Zipfian workload defeats: one celebrity
initiator pins most of a batch to a single worker, and the hottest shard
bounds cluster throughput.  This module makes placement a function of
*measured load* instead of key bytes (cf. Tunable-LSH, which re-clusters
records by observed co-access to fit the workload):

- :class:`PlacementMap` — a **versioned** router with three layers, checked
  in order per initiator: an explicit ``replicas`` table (hot egos pinned to
  an ordered tuple of ≥ 2 shards, fanned out round-robin at partition
  time), an explicit ``assignments`` table (the offline placement pass's
  packing), and a **virtual-node consistent-hash ring** for everyone else —
  so changing the worker count or moving one initiator never re-shards the
  world the way ``CRC32 % n`` does.
- :func:`build_placement` — the offline placement pass: replay a saved
  workload trace (``save_workload``/``load_workload`` JSONL), count per-ego
  load, pack initiators onto workers greedily by descending load (LPT
  scheduling), and replicate any ego whose load alone reaches a worker's
  fair share.
- :func:`save_placement` / :func:`load_placement` — the ``placement.json``
  file format, byte-identical to the ``placement_update`` wire payload, so
  ``stgq place`` output feeds ``--placement FILE`` and the control frame
  alike.

Version semantics: ``0`` is reserved for "no placement" (the CRC32
:class:`~repro.service.sharding.ShardMap` fallback advertises it); real
maps are ``>= 1`` and strictly ordered — a worker or gateway adopts a
pushed map only when its version exceeds the one it holds, exactly the
idempotence rule the mutation ``delta`` frames established.

Correctness lever: every worker holds the **full graph**, so placement is
purely a cache-locality and load-spreading decision.  Any map — including
replicated egos, mid-batch map swaps, and failover to a surviving replica —
yields results byte-identical to the serial backend.  The one honest cost
of replication is cache accounting: each replica of a hot ego builds its
own copy of the ego network, so ``cache_misses`` may exceed serial by one
per extra replica actually used (hits + misses stays conserved; solver
counters are untouched because a cached entry never changes the search
tree).  The property tests in ``tests/service/test_placement.py`` pin this
contract.
"""

from __future__ import annotations

import bisect
import json
import zlib
from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar

from ..exceptions import QueryError
from ..types import Vertex
from .sharding import RouteMetrics

__all__ = [
    "PlacementMap",
    "build_placement",
    "load_placement",
    "save_placement",
]

Q = TypeVar("Q")

#: Default number of virtual nodes per shard on the consistent-hash ring.
#: 64 vnodes bound a shard's expected share of un-assigned initiators to
#: roughly ``1/n ± 1/(n * sqrt(64))`` while the ring stays small enough to
#: rebuild on every map update.  The ring only routes the cold tail — hot
#: egos carry explicit assignments — so modest variance is acceptable.
DEFAULT_VNODES = 64


def _is_int(value: object) -> bool:
    """``int`` but not ``bool``: JSON ``true`` must not pass as ``1``."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_shard_count(n_shards: object) -> None:
    """Reject a shard count that is not an ``int >= 1`` (bools included)."""
    if not _is_int(n_shards) or n_shards < 1:  # type: ignore[operator]
        raise QueryError(f"n_shards must be an int >= 1, got {n_shards!r}")


def _ring_point(seed: int, shard: int, vnode: int) -> int:
    """Deterministic 32-bit ring position of one virtual node."""
    return zlib.crc32(f"vnode:{seed}:{shard}:{vnode}".encode("utf-8"))


def _key_point(vertex: Vertex) -> int:
    """Deterministic 32-bit ring position of an initiator.

    Salted so ring placement decorrelates from the plain ``CRC32 % n``
    fallback — otherwise a ring with few shards would echo the modulo
    map's hot spots.  Like :func:`~repro.service.sharding.stable_shard`,
    this requires value-based vertex reprs (ints, strings, tuples).
    """
    return zlib.crc32(b"key:" + repr(vertex).encode("utf-8"))


class PlacementMap:
    """Versioned initiator→shard router: replicas, assignments, then ring.

    Parameters
    ----------
    n_shards:
        Worker count the map routes over (must match the fleet size).
    version:
        Monotonic map version, ``>= 1`` (``0`` means "no placement").
    vnodes / seed:
        Ring shape: ``vnodes`` virtual nodes per shard, positions derived
        from ``seed``.  Two maps with the same shape route unassigned
        initiators identically.
    assignments:
        Explicit ``{initiator: shard}`` packing from the placement pass.
    replicas:
        ``{initiator: (shard, shard, ...)}`` for hot egos; ordered, ≥ 2
        distinct shards.  Partitioning fans a replicated ego's queries
        round-robin across its tuple, and the remote backend fails over to
        a surviving replica when the routed shard is down.
    """

    __slots__ = (
        "n_shards",
        "version",
        "vnodes",
        "seed",
        "assignments",
        "replicas",
        "_ring_points",
        "_ring_shards",
        "_rr",
        "_metrics",
    )

    strategy = "vnode"

    def __init__(
        self,
        n_shards: int,
        *,
        version: int = 1,
        vnodes: int = DEFAULT_VNODES,
        seed: int = 0,
        assignments: Optional[Dict[Vertex, int]] = None,
        replicas: Optional[Dict[Vertex, Sequence[int]]] = None,
    ) -> None:
        _check_shard_count(n_shards)
        if not _is_int(version) or version < 1:
            raise QueryError(f"placement version must be an int >= 1, got {version!r}")
        if not _is_int(vnodes) or vnodes < 1:
            raise QueryError(f"vnodes must be an int >= 1, got {vnodes!r}")
        if not _is_int(seed):
            raise QueryError(f"placement seed must be an int, got {seed!r}")
        self.n_shards = n_shards
        self.version = version
        self.vnodes = vnodes
        self.seed = seed
        self.assignments: Dict[Vertex, int] = dict(assignments or {})
        for vertex, shard in self.assignments.items():
            if not _is_int(shard) or not 0 <= shard < n_shards:
                raise QueryError(
                    f"assignment for {vertex!r} names shard {shard!r}, "
                    f"valid range is [0, {n_shards})"
                )
        self.replicas: Dict[Vertex, Tuple[int, ...]] = {}
        for vertex, shards in (replicas or {}).items():
            group = tuple(shards)
            if len(group) < 1 or len(set(group)) != len(group):
                raise QueryError(
                    f"replica set for {vertex!r} must be distinct shards, got {group!r}"
                )
            for shard in group:
                if not _is_int(shard) or not 0 <= shard < n_shards:
                    raise QueryError(
                        f"replica set for {vertex!r} names shard {shard!r}, "
                        f"valid range is [0, {n_shards})"
                    )
            self.replicas[vertex] = group
        # The ring: sorted vnode positions with their owning shard.  Point
        # collisions (rare: 32-bit space) resolve to the lowest shard id so
        # the ring is deterministic regardless of build order.
        points: Dict[int, int] = {}
        for shard in range(n_shards):
            for vnode in range(vnodes):
                point = _ring_point(seed, shard, vnode)
                if point not in points or shard < points[point]:
                    points[point] = shard
        self._ring_points = sorted(points)
        self._ring_shards = [points[point] for point in self._ring_points]
        # Round-robin cursors for replicated egos (partition-time fan-out).
        self._rr: Dict[Vertex, int] = {}
        self._metrics = RouteMetrics(n_shards)

    # -- routing -----------------------------------------------------------

    def _ring_shard(self, initiator: Vertex) -> int:
        """Successor-vnode lookup on the ring (wraps past the top)."""
        if self.n_shards == 1:
            return 0
        index = bisect.bisect_right(self._ring_points, _key_point(initiator))
        if index == len(self._ring_points):
            index = 0
        return self._ring_shards[index]

    def replicas_of(self, initiator: Vertex) -> Tuple[int, ...]:
        """Ordered shard tuple that may answer ``initiator`` (≥ 1 entry)."""
        group = self.replicas.get(initiator)
        if group is not None:
            return group
        shard = self.assignments.get(initiator)
        if shard is not None:
            return (shard,)
        return (self._ring_shard(initiator),)

    def shard_of(self, initiator: Vertex) -> int:
        """Primary shard of ``initiator`` (first replica for hot egos)."""
        return self.replicas_of(initiator)[0]

    def partition(self, queries: Sequence[Q]) -> Dict[int, List[Tuple[int, Q]]]:
        """Group ``queries`` by routed shard, fanning replicated egos out.

        Same shape as :meth:`ShardMap.partition`: shard id →
        ``(original_index, query)`` pairs in submission order.  A replicated
        ego's queries alternate round-robin across its replica tuple (the
        cursor persists across batches so consecutive batches keep
        spreading), which is exactly how one celebrity initiator stops
        saturating a single worker.  Routed-batch imbalance feeds the
        rolling :class:`~repro.service.sharding.RouteMetrics`.
        """
        parts: Dict[int, List[Tuple[int, Q]]] = {}
        for index, query in enumerate(queries):
            initiator = query.initiator  # type: ignore[attr-defined]
            group = self.replicas_of(initiator)
            if len(group) == 1:
                shard = group[0]
            else:
                with self._metrics.lock:
                    cursor = self._rr.get(initiator, -1) + 1
                    self._rr[initiator] = cursor
                shard = group[cursor % len(group)]
            parts.setdefault(shard, []).append((index, query))
        self._metrics.note_batch(parts, len(queries))
        return parts

    # -- diagnostics -------------------------------------------------------

    def load_report(self, queries: Sequence[Q]) -> List[int]:
        """Per-shard query counts for ``queries`` (zeros for idle shards).

        Pure: replicated egos are fanned with a *local* round-robin cursor,
        so calling this never perturbs the live partition cursors.
        """
        counts = [0] * self.n_shards
        cursors: Dict[Vertex, int] = {}
        for query in queries:
            initiator = query.initiator  # type: ignore[attr-defined]
            group = self.replicas_of(initiator)
            if len(group) == 1:
                counts[group[0]] += 1
            else:
                cursor = cursors.get(initiator, -1) + 1
                cursors[initiator] = cursor
                counts[group[cursor % len(group)]] += 1
        return counts

    def imbalance(self, queries: Sequence[Q]) -> float:
        """Max/mean shard-load ratio (1.0 = perfectly balanced, 0.0 = empty)."""
        counts = self.load_report(queries)
        total = sum(counts)
        if not total:
            return 0.0
        return max(counts) / (total / self.n_shards)

    def route_report(self) -> Dict[str, object]:
        """Rolling routing metrics plus this map's identity.

        The placement half of the observability surface: flows through
        ``QueryService.route_report()`` to the worker ``stats`` frame,
        ``stgq stats --json`` and HTTP ``/stats``.
        """
        report = {
            "strategy": self.strategy,
            "version": self.version,
            "n_shards": self.n_shards,
            "assigned_egos": len(self.assignments),
            "replicated_egos": len(self.replicas),
        }
        report.update(self._metrics.report())
        return report

    # -- wire / file codec -------------------------------------------------

    def as_wire(self) -> Dict[str, object]:
        """JSON-safe encoding: the ``placement_update`` payload and the
        ``placement.json`` file body are this exact object."""
        return {
            "version": self.version,
            "n_shards": self.n_shards,
            "vnodes": self.vnodes,
            "seed": self.seed,
            "assignments": sorted(
                ([vertex, shard] for vertex, shard in self.assignments.items()),
                key=lambda item: repr(item[0]),
            ),
            "replicas": sorted(
                ([vertex, list(group)] for vertex, group in self.replicas.items()),
                key=lambda item: repr(item[0]),
            ),
        }

    @classmethod
    def from_wire(cls, payload: object) -> "PlacementMap":
        """Decode and validate a wire/file payload (:exc:`QueryError` on junk).

        Untrusted input: the payload may arrive over the TCP control plane,
        so every field is checked before it can route a query out of range.
        """
        if not isinstance(payload, dict):
            raise QueryError(f"placement payload must be an object, got {type(payload).__name__}")
        try:
            n_shards = payload["n_shards"]
            version = payload["version"]
        except KeyError as exc:
            raise QueryError(f"placement payload missing field {exc.args[0]!r}") from None
        raw_assignments = payload.get("assignments", [])
        raw_replicas = payload.get("replicas", [])
        if not isinstance(raw_assignments, list) or not isinstance(raw_replicas, list):
            raise QueryError("placement assignments/replicas must be lists of pairs")
        assignments: Dict[Vertex, int] = {}
        for item in raw_assignments:
            if not isinstance(item, (list, tuple)) or len(item) != 2:
                raise QueryError(f"malformed assignment entry {item!r}")
            assignments[_freeze(item[0])] = item[1]
        replicas: Dict[Vertex, Sequence[int]] = {}
        for item in raw_replicas:
            if (
                not isinstance(item, (list, tuple))
                or len(item) != 2
                or not isinstance(item[1], (list, tuple))
            ):
                raise QueryError(f"malformed replica entry {item!r}")
            replicas[_freeze(item[0])] = tuple(item[1])
        return cls(
            n_shards,
            version=version,
            vnodes=payload.get("vnodes", DEFAULT_VNODES),
            seed=payload.get("seed", 0),
            assignments=assignments,
            replicas=replicas,
        )

    def with_replicas(self, replicas: int) -> "PlacementMap":
        """Re-widen (or collapse) every hot ego's replica set to ``replicas``.

        The ``--replicas N`` override for a loaded placement file: the hot
        *set* came from the trace, but the operator re-decides the fan-out
        width at deploy time.  Widening appends the least-loaded other
        shards in ring order; ``replicas=1`` collapses each hot ego to its
        primary assignment.  Version is preserved — the derived map is the
        same logical placement at a different width, and every gateway
        applies the same override.
        """
        replicas = max(1, min(replicas, self.n_shards))
        new_assignments = dict(self.assignments)
        new_replicas: Dict[Vertex, Sequence[int]] = {}
        for vertex, group in self.replicas.items():
            if replicas == 1:
                new_assignments[vertex] = group[0]
                continue
            widened = list(group[:replicas])
            for shard in range(self.n_shards):
                if len(widened) >= replicas:
                    break
                if shard not in widened:
                    widened.append(shard)
            new_replicas[vertex] = tuple(widened)
        return PlacementMap(
            self.n_shards,
            version=self.version,
            vnodes=self.vnodes,
            seed=self.seed,
            assignments=new_assignments,
            replicas=new_replicas,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PlacementMap(n_shards={self.n_shards}, version={self.version}, "
            f"assigned={len(self.assignments)}, replicated={len(self.replicas)})"
        )


def _freeze(vertex: object) -> Vertex:
    """JSON round-trips tuples as lists; restore hashability."""
    if isinstance(vertex, list):
        return tuple(_freeze(part) for part in vertex)
    return vertex  # type: ignore[return-value]


def build_placement(
    queries: Iterable[Q],
    n_shards: int,
    *,
    replicas: int = 2,
    vnodes: int = DEFAULT_VNODES,
    seed: int = 0,
    version: int = 1,
) -> PlacementMap:
    """The offline placement pass: pack observed per-ego load onto workers.

    ``queries`` is a replayed workload trace (what ``load_workload`` returns
    from a ``save_workload`` JSONL file).  The pass is classic LPT greedy
    scheduling over per-initiator load counts:

    1. Count queries per initiator; compute the fair share ``total / n``.
    2. Walk initiators by descending load (repr ties broken
       deterministically).  An ego whose load alone reaches the fair share
       is **replicated**: it gets the ``min(replicas, n_shards)``
       least-loaded shards and charges ``load / r`` to each — round-robin
       fan-out at partition time realises exactly that split.
    3. Everyone else is assigned to the least-loaded shard outright.

    Initiators absent from the trace fall through to the consistent-hash
    ring, so an incomplete trace degrades to hashing, never to an error.
    An empty trace yields a pure-ring map.
    """
    _check_shard_count(n_shards)
    if replicas < 1:
        raise QueryError(f"replicas must be >= 1, got {replicas}")
    loads = Counter(query.initiator for query in queries)  # type: ignore[attr-defined]
    total = sum(loads.values())
    assignments: Dict[Vertex, int] = {}
    replica_sets: Dict[Vertex, Sequence[int]] = {}
    if total:
        fair_share = total / n_shards
        shard_loads = [0.0] * n_shards
        ordered = sorted(loads.items(), key=lambda item: (-item[1], repr(item[0])))
        width = min(replicas, n_shards)
        for vertex, load in ordered:
            if width > 1 and load >= fair_share:
                targets = sorted(range(n_shards), key=lambda s: (shard_loads[s], s))[:width]
                replica_sets[vertex] = tuple(targets)
                for shard in targets:
                    shard_loads[shard] += load / width
            else:
                shard = min(range(n_shards), key=lambda s: (shard_loads[s], s))
                assignments[vertex] = shard
                shard_loads[shard] += load
    return PlacementMap(
        n_shards,
        version=version,
        vnodes=vnodes,
        seed=seed,
        assignments=assignments,
        replicas=replica_sets,
    )


def save_placement(placement: PlacementMap, path: str) -> None:
    """Write ``placement`` as the canonical ``placement.json`` file."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(placement.as_wire(), handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_placement(path: str) -> PlacementMap:
    """Load and validate a ``placement.json`` file (:exc:`QueryError` on junk)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise QueryError(f"cannot read placement file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise QueryError(f"placement file {path!r} is not valid JSON: {exc}") from exc
    return PlacementMap.from_wire(payload)
