"""Tests for load-aware placement (:mod:`repro.service.placement`).

Two contracts pinned here:

1. **Routing is a pure deployment decision.**  Every worker holds the full
   graph, so *any* placement map — random ring seeds, explicit assignments,
   replicated hot egos, maps swapped between batches — must yield results
   byte-identical to the serial backend.
2. **Honest accounting under replication.**  Non-replicated placements
   reproduce serial cache counters exactly.  A replicated ego builds one
   ego-network copy per replica actually used, so ``cache_misses`` may
   exceed serial by at most (replica width - 1) per replicated ego while
   ``hits + misses`` stays conserved and every solver counter stays
   byte-identical.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import SGQuery
from repro.exceptions import QueryError
from repro.service import (
    PlacementMap,
    QueryService,
    ShardMap,
    build_placement,
    load_placement,
    save_placement,
)

from .test_backends import DETERMINISTIC_COUNTERS, build_batch, dataset, run_backend  # noqa: F401

SOLVER_COUNTERS = tuple(
    name for name in DETERMINISTIC_COUNTERS if name not in ("cache_hits", "cache_misses")
)


def _queries(initiators):
    return [
        SGQuery(initiator=initiator, group_size=3, radius=1, acquaintance=1)
        for initiator in initiators
    ]


class TestRing:
    def test_shards_in_range_and_deterministic(self):
        placement = PlacementMap(4)
        twin = PlacementMap(4)
        for vertex in list(range(200)) + ["alice", ("compound", 3)]:
            shard = placement.shard_of(vertex)
            assert 0 <= shard < 4
            assert twin.shard_of(vertex) == shard

    def test_seed_changes_the_ring(self):
        base = PlacementMap(4, seed=0)
        other = PlacementMap(4, seed=1)
        assert any(base.shard_of(v) != other.shard_of(v) for v in range(100))

    def test_ring_covers_every_shard(self):
        placement = PlacementMap(4)
        assert {placement.shard_of(v) for v in range(500)} == {0, 1, 2, 3}

    def test_single_shard_short_circuits(self):
        placement = PlacementMap(1)
        assert placement.shard_of("anything") == 0

    def test_ring_is_more_stable_than_modulo(self):
        # Growing the fleet by one worker moves a bounded slice of the key
        # space on the ring; CRC32 % n reshuffles nearly everything.
        ring4, ring5 = PlacementMap(4), PlacementMap(5)
        crc4, crc5 = ShardMap(4), ShardMap(5)
        keys = range(2000)
        ring_moved = sum(1 for v in keys if ring4.shard_of(v) != ring5.shard_of(v))
        crc_moved = sum(1 for v in keys if crc4.shard_of(v) != crc5.shard_of(v))
        assert ring_moved < crc_moved


class TestRouting:
    def test_replicas_beat_assignments_beat_ring(self):
        placement = PlacementMap(
            4, assignments={"a": 1, "b": 2}, replicas={"b": (3, 0)}
        )
        assert placement.replicas_of("b") == (3, 0)
        assert placement.shard_of("b") == 3
        assert placement.replicas_of("a") == (1,)
        assert placement.replicas_of("unseen") == (placement._ring_shard("unseen"),)

    def test_partition_round_robins_replicated_egos(self):
        placement = PlacementMap(4, replicas={"hot": (0, 2)})
        parts = placement.partition(_queries(["hot"] * 6))
        assert sorted(parts) == [0, 2]
        assert len(parts[0]) == 3 and len(parts[2]) == 3
        # Submission order survives within each shard.
        for entries in parts.values():
            indices = [index for index, _ in entries]
            assert indices == sorted(indices)

    def test_round_robin_cursor_persists_across_batches(self):
        # Consecutive one-query batches from the hot ego must keep
        # alternating, not all land on the first replica.
        placement = PlacementMap(4, replicas={"hot": (1, 3)})
        shards = [next(iter(placement.partition(_queries(["hot"])))) for _ in range(4)]
        assert shards == [1, 3, 1, 3]

    def test_load_report_is_pure(self):
        placement = PlacementMap(4, replicas={"hot": (0, 2)})
        batch = _queries(["hot"] * 4)
        first = placement.load_report(batch)
        assert placement.load_report(batch) == first  # no cursor perturbation
        assert first[0] == 2 and first[2] == 2

    def test_partition_feeds_route_report(self):
        placement = PlacementMap(2, version=7, assignments={"a": 0, "b": 1})
        placement.partition(_queries(["a", "b", "a", "b"]))
        report = placement.route_report()
        assert report["strategy"] == "vnode"
        assert report["version"] == 7
        assert report["assigned_egos"] == 2
        assert report["replicated_egos"] == 0
        assert report["routed"] == [2, 2]

    def test_rejects_bad_shapes(self):
        with pytest.raises(QueryError):
            PlacementMap(0)
        with pytest.raises(QueryError):
            PlacementMap(2, version=0)  # 0 is reserved for "no placement"
        with pytest.raises(QueryError):
            PlacementMap(2, assignments={"a": 2})  # shard out of range
        with pytest.raises(QueryError):
            PlacementMap(2, replicas={"a": (0, 0)})  # duplicate replica
        for bad in (
            lambda: PlacementMap(True),  # bool is not a shard count
            lambda: PlacementMap("2"),
            lambda: PlacementMap(2, vnodes=True),
            lambda: PlacementMap(2, vnodes=0),
            lambda: PlacementMap(2, seed="x"),
            lambda: PlacementMap(2, seed=False),
            lambda: build_placement(_queries(["a", "b"]), 0),
            lambda: build_placement(_queries(["a", "b"]), -1),
            lambda: build_placement([], 0),
        ):
            with pytest.raises(QueryError):
                bad()


class TestWireAndFile:
    def test_wire_roundtrip(self):
        placement = PlacementMap(
            4,
            version=3,
            vnodes=32,
            seed=9,
            assignments={"a": 1, ("t", 2): 3},
            replicas={"hot": (0, 2, 3)},
        )
        clone = PlacementMap.from_wire(placement.as_wire())
        assert clone.as_wire() == placement.as_wire()
        for vertex in ["a", ("t", 2), "hot", "unseen", 17]:
            assert clone.replicas_of(vertex) == placement.replicas_of(vertex)

    def test_wire_is_json_safe(self):
        placement = PlacementMap(2, assignments={"a": 0}, replicas={"h": (0, 1)})
        payload = json.loads(json.dumps(placement.as_wire()))
        assert PlacementMap.from_wire(payload).as_wire() == placement.as_wire()

    @pytest.mark.parametrize(
        "payload",
        [
            None,
            [],
            {},
            {"n_shards": 2},
            {"n_shards": "2", "version": 1},
            {"n_shards": 2, "version": 0},
            {"n_shards": 2, "version": 1, "assignments": {"a": 0}},
            {"n_shards": 2, "version": 1, "assignments": [["a", 5]]},
            {"n_shards": 2, "version": 1, "replicas": [["a", [0, 0]]]},
            {"n_shards": 2, "version": 1, "replicas": [["a", 0]]},
            {"n_shards": 2, "version": 1, "vnodes": "many"},
            {"n_shards": True, "version": True, "assignments": [[5, False]]},
            {"n_shards": 2, "version": True},
            {"n_shards": 2, "version": 1, "vnodes": True},
            {"n_shards": 2, "version": 1, "seed": False},
            {"n_shards": 2, "version": 1, "assignments": [["a", True]]},
            {"n_shards": 2, "version": 1, "replicas": [["a", [False, True]]]},
        ],
    )
    def test_from_wire_rejects_junk(self, payload):
        with pytest.raises(QueryError):
            PlacementMap.from_wire(payload)

    def test_file_roundtrip(self, tmp_path):
        placement = PlacementMap(3, version=2, replicas={"hot": (0, 1)})
        path = str(tmp_path / "placement.json")
        save_placement(placement, path)
        assert load_placement(path).as_wire() == placement.as_wire()

    def test_load_placement_diagnoses_bad_files(self, tmp_path):
        with pytest.raises(QueryError):
            load_placement(str(tmp_path / "missing.json"))
        junk = tmp_path / "junk.json"
        junk.write_text("{not json", encoding="utf-8")
        with pytest.raises(QueryError):
            load_placement(str(junk))


class TestBuildPlacement:
    def test_packs_by_load_and_replicates_the_hub(self):
        # One hub with half the trace, a tail of small initiators.
        trace = _queries(["hub"] * 40 + ["a"] * 8 + ["b"] * 8 + ["c"] * 8 + ["d"] * 8 + ["e"] * 8)
        placement = build_placement(trace, 4, replicas=2)
        assert "hub" in placement.replicas
        assert len(placement.replicas["hub"]) == 2
        for tail in "abcde":
            assert tail in placement.assignments
        # The packed layout beats CRC32 on its own trace.
        assert placement.imbalance(trace) <= ShardMap(4).imbalance(trace)
        assert placement.imbalance(trace) < 1.5

    def test_cold_initiators_fall_through_to_the_ring(self):
        placement = build_placement(_queries(["a", "b"]), 4)
        unseen = placement.replicas_of("unseen")
        assert unseen == (placement._ring_shard("unseen"),)

    def test_empty_trace_yields_pure_ring(self):
        placement = build_placement([], 4)
        assert placement.assignments == {}
        assert placement.replicas == {}

    def test_replicas_capped_at_fleet_size(self):
        trace = _queries(["hub"] * 10)
        placement = build_placement(trace, 2, replicas=5)
        assert len(placement.replicas["hub"]) == 2

    def test_replicas_one_never_replicates(self):
        trace = _queries(["hub"] * 10 + ["a"])
        placement = build_placement(trace, 2, replicas=1)
        assert placement.replicas == {}
        assert "hub" in placement.assignments


class TestWithReplicas:
    def test_widen_and_collapse(self):
        placement = PlacementMap(4, version=5, replicas={"hot": (1, 3)})
        wide = placement.with_replicas(3)
        assert len(wide.replicas["hot"]) == 3
        assert wide.replicas["hot"][:2] == (1, 3)
        assert wide.version == 5  # same logical placement, different width
        collapsed = placement.with_replicas(1)
        assert collapsed.replicas == {}
        assert collapsed.assignments["hot"] == 1


class TestProcessBackendPlacement:
    def test_placement_routes_the_process_backend(self, dataset):  # noqa: F811
        batch = build_batch(dataset, seed=3, n_queries=16, n_initiators=4, stg_fraction=0.25)
        reference = run_backend(dataset, "serial", batch)
        placement = build_placement(batch, 2, replicas=1)
        with QueryService(
            dataset.graph, dataset.calendars, backend="process", placement=placement
        ) as service:
            assert service.max_workers == 2  # width inferred from the map
            results = service.solve_many(batch)
            stats = service.stats().as_dict()
            info = service.cache_info()
            report = service.route_report()
        keys = [
            (r.feasible, r.members, r.total_distance, getattr(r, "period", None))
            for r in results
        ]
        assert keys == reference[0]
        assert {name: stats[name] for name in DETERMINISTIC_COUNTERS} == reference[1]
        assert (info.hits, info.misses) == (reference[2].hits, reference[2].misses)
        assert report["strategy"] == "vnode"
        assert report["version"] == 1

    def test_replicated_ego_accounting(self, dataset):  # noqa: F811
        # Replication's honest cost: one extra miss per extra replica used;
        # results and solver counters stay byte-identical.
        hot = dataset.people[5]
        batch = _queries([hot] * 12)
        reference_keys, reference_counters, reference_info = run_backend(
            dataset, "serial", batch
        )
        placement = PlacementMap(2, replicas={hot: (0, 1)})
        with QueryService(
            dataset.graph, dataset.calendars, backend="process", placement=placement
        ) as service:
            results = service.solve_many(batch)
            stats = service.stats().as_dict()
            info = service.cache_info()
        keys = [
            (r.feasible, r.members, r.total_distance, getattr(r, "period", None))
            for r in results
        ]
        assert keys == reference_keys
        for counter in SOLVER_COUNTERS:
            assert stats[counter] == reference_counters[counter]
        assert info.hits + info.misses == reference_info.hits + reference_info.misses
        assert reference_info.misses <= info.misses <= reference_info.misses + 1

    def test_update_placement_is_monotonic(self, dataset):  # noqa: F811
        placement = PlacementMap(2, version=1)
        with QueryService(
            dataset.graph, dataset.calendars, backend="process", placement=placement
        ) as service:
            backend = service.backend
            assert backend.placement_version == 1
            assert backend.update_placement(PlacementMap(2, version=3)) is True
            assert backend.placement_version == 3
            assert backend.update_placement(PlacementMap(2, version=2)) is False
            assert backend.placement_version == 3
            with pytest.raises(QueryError):
                backend.update_placement(PlacementMap(3, version=9))

    def test_mid_stream_map_swap_keeps_equivalence(self, dataset):  # noqa: F811
        batch = build_batch(dataset, seed=9, n_queries=14, n_initiators=5, stg_fraction=0.5)
        reference = run_backend(dataset, "serial", batch + batch)
        placement = build_placement(batch, 2, replicas=1, seed=0, version=1)
        remapped = build_placement(batch, 2, replicas=2, seed=4, version=2)
        with QueryService(
            dataset.graph, dataset.calendars, backend="process", placement=placement
        ) as service:
            first = service.solve_many(batch)
            assert service.backend.update_placement(remapped) is True
            second = service.solve_many(batch)
            stats = service.stats().as_dict()
        keys = [
            (r.feasible, r.members, r.total_distance, getattr(r, "period", None))
            for r in list(first) + list(second)
        ]
        assert keys == reference[0]
        for counter in SOLVER_COUNTERS:
            assert stats[counter] == reference[1][counter]

    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        seed=st.integers(min_value=0, max_value=2**20),
        ring_seed=st.integers(min_value=0, max_value=2**10),
        replicas=st.integers(min_value=1, max_value=3),
    )
    def test_any_placement_matches_serial(self, dataset, seed, ring_seed, replicas):  # noqa: F811
        batch = build_batch(dataset, seed, n_queries=18, n_initiators=5, stg_fraction=0.3)
        reference_keys, reference_counters, reference_info = run_backend(
            dataset, "serial", batch
        )
        placement = build_placement(
            batch, 3, replicas=replicas, seed=ring_seed, version=1
        )
        with QueryService(
            dataset.graph, dataset.calendars, backend="process", placement=placement
        ) as service:
            results = service.solve_many(batch)
            stats = service.stats().as_dict()
            info = service.cache_info()
        keys = [
            (r.feasible, r.members, r.total_distance, getattr(r, "period", None))
            for r in results
        ]
        assert keys == reference_keys
        for counter in SOLVER_COUNTERS:
            assert stats[counter] == reference_counters[counter]
        assert info.hits + info.misses == reference_info.hits + reference_info.misses
        if replicas == 1:
            assert (info.hits, info.misses) == (reference_info.hits, reference_info.misses)
        else:
            slack = sum(len(group) - 1 for group in placement.replicas.values())
            assert reference_info.misses <= info.misses <= reference_info.misses + slack
