"""Shared fixtures for the test-suite.

The fixtures intentionally build *small* instances: the correctness of the
algorithms is established by cross-checking solvers against each other and
against brute force, which is only affordable on small graphs.  Larger,
generator-produced datasets are exercised by the integration tests and the
benchmarks.
"""

from __future__ import annotations

import random
import sys
from collections import Counter
from contextlib import contextmanager
from typing import Iterator

import pytest

from repro.core.compiled_search import CompiledSearch
from repro.datasets import load_movie_network, load_toy_example
from repro.graph import SocialGraph, packed
from repro.temporal import CalendarStore, Schedule

try:  # scipy (and the numpy it brings) is optional: the MILP comparison
    import scipy  # noqa: F401

    HAVE_SCIPY = True
except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
    HAVE_SCIPY = False

#: Marker for tests that exercise the scipy/numpy-backed IP solvers; the
#: no-numpy CI leg runs the suite without scipy and these must skip cleanly.
requires_scipy = pytest.mark.skipif(not HAVE_SCIPY, reason="scipy not installed")

#: The compiled kernel's lanes, forced per test:
#:
#: * ``"bitset"`` — no pool is packed, so every node takes the scalar
#:   cascade (the only lane without numpy >= 2.0);
#: * ``"vectorized"`` — every pool is packed; wide nodes measure with
#:   whole-pool arrays, nodes of at most ``LAZY_MEASURE_THRESHOLD``
#:   candidates with the scalar cascade;
#: * ``"arrays"`` — every pool is packed and the cascade is off, so every
#:   node measures with whole-pool arrays even on tiny instances.
COMPILED_LANES = ("bitset",) + (
    ("vectorized", "arrays") if packed.numpy_kernel_available() else ()
)


@contextmanager
def compiled_lane(lane: str) -> Iterator[None]:
    """Force every compiled-kernel pool onto one lane.

    Overrides the pool-size threshold behind
    :func:`repro.graph.packed.use_vectorized` (``"bitset"`` raises it out
    of reach, the packed lanes drop it to 0) and, for ``"arrays"``, the
    cascade threshold ``repro.graph.packed.LAZY_MEASURE_THRESHOLD`` (-1:
    no node is small enough for the scalar cascade).
    """
    saved = packed.NUMPY_MIN_CANDIDATES, packed.LAZY_MEASURE_THRESHOLD
    packed.NUMPY_MIN_CANDIDATES = sys.maxsize if lane == "bitset" else 0
    if lane == "arrays":
        packed.LAZY_MEASURE_THRESHOLD = -1
    try:
        yield
    finally:
        packed.NUMPY_MIN_CANDIDATES, packed.LAZY_MEASURE_THRESHOLD = saved


@contextmanager
def vectorized_spy() -> Iterator[Counter]:
    """Count the shared compiled search's node expansions entered with a
    packed matrix (``packed is not None``), per solver: a search without
    schedules is SGSelect's, one with schedules STGSelect's."""
    calls: Counter = Counter()
    original = CompiledSearch.__dict__["expand"]

    def expand(self, *args, **kwargs):
        if self.packed is not None:
            calls["SGSelect" if self.schedules is None else "STGSelect"] += 1
        return original(self, *args, **kwargs)

    CompiledSearch.expand = expand
    try:
        yield calls
    finally:
        CompiledSearch.expand = original


@pytest.fixture
def toy_dataset():
    """The paper's Figure-3 worked example (Examples 2 and 3)."""
    return load_toy_example()


@pytest.fixture
def movie_dataset():
    """The paper's Figure-2 celebrity network (Example 1, approximate weights)."""
    return load_movie_network()


@pytest.fixture
def triangle_graph():
    """Initiator ``q`` with two mutually acquainted friends."""
    graph = SocialGraph()
    graph.add_edge("q", "a", 1.0)
    graph.add_edge("q", "b", 2.0)
    graph.add_edge("a", "b", 1.5)
    return graph


@pytest.fixture
def star_graph():
    """Initiator ``q`` with four friends who do not know each other."""
    graph = SocialGraph()
    for name, dist in [("a", 1.0), ("b", 2.0), ("c", 3.0), ("d", 4.0)]:
        graph.add_edge("q", name, dist)
    return graph


@pytest.fixture
def two_hop_graph():
    """A path ``q - a - b`` plus a direct expensive edge ``q - b``.

    The minimum-distance path from ``q`` to ``b`` uses two edges (1 + 1 = 2),
    while the one-edge path costs 10 — the case the paper uses to motivate
    the i-edge minimum distance.
    """
    graph = SocialGraph()
    graph.add_edge("q", "a", 1.0)
    graph.add_edge("a", "b", 1.0)
    graph.add_edge("q", "b", 10.0)
    return graph


def make_random_graph(seed: int, n: int = 10, edge_prob: float = 0.4) -> SocialGraph:
    """Seeded random graph with integer distances (shared by several tests)."""
    rng = random.Random(seed)
    graph = SocialGraph(vertices=range(n))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < edge_prob:
                graph.add_edge(u, v, rng.randint(1, 20))
    return graph


def make_random_calendars(seed: int, people, horizon: int = 10, availability: float = 0.6) -> CalendarStore:
    """Seeded random calendar store (shared by several tests)."""
    rng = random.Random(seed)
    store = CalendarStore(horizon)
    for person in people:
        free = [t for t in range(1, horizon + 1) if rng.random() < availability]
        store.set(person, Schedule(horizon, free))
    return store


@pytest.fixture
def random_graph_factory():
    """Factory fixture returning :func:`make_random_graph`."""
    return make_random_graph


@pytest.fixture
def random_calendar_factory():
    """Factory fixture returning :func:`make_random_calendars`."""
    return make_random_calendars
