"""Property-based tests: the CH backend is float-identical to the CSR backend.

The contraction-hierarchy engine promises more than approximate agreement:
its point queries refold the unpacked original-edge path in the exact
addition order the CSR backend's distance tree uses, so every answer is the
*same float*, not a float within tolerance.  The batch pipeline's
byte-identical-outcomes guarantee across ``--routing`` ablations rests on
this, so it is asserted with ``==`` throughout -- no ``isclose``.

Also property-tested here: an artifact-cache round trip (``save`` on the
first build, ``load`` on the second) reproduces identical distances and
identical query-side ``EngineStats`` behaviour.
"""

from __future__ import annotations

import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DisconnectedError
from repro.roadnet import artifacts
from repro.roadnet.generators import (
    arterial_grid_network,
    grid_network,
    random_geometric_network,
)
from repro.roadnet.routing import CHEngine, CSREngine, make_engine


def _sample(vertices, step_hint):
    return vertices[:: max(1, len(vertices) // step_hint)]


def _jitters(max_value):
    """Weight jitters inside the bit-identity contract.

    The refolding guarantee holds on networks with *unique* shortest paths
    (any genuinely jittered or real network) and on unjittered networks
    (where path sums are exact in floats).  Jitter at machine-epsilon scale
    is neither: it manufactures paths whose lengths differ by less than the
    accumulated rounding of summing them, where no refolding order can
    recover which path a Dijkstra's float comparison happened to prefer
    (hypothesis found ``jitter=2.2e-16`` doing exactly that).

    The floor is 0.05 rather than "just above epsilon" because the failure
    mode is probabilistic, not a cliff: two distinct path sums collide to
    within rounding with probability ~(rounding scale / jitter scale) per
    sampled pair, so e.g. 1e-9 jitter flakes about once per ~1e4 pairs --
    a seed lottery -- while at 0.05 the collision odds are ~1e-12.  The
    uniform-small-jitter band is not lost coverage: it exercises the same
    refold code as 0.05 with worse-conditioned ties, and cross-backend
    agreement at *all* jitters (approximate, not bitwise) stays covered by
    ``test_routing_equivalence.py``.
    """
    return st.one_of(
        st.just(0.0), st.floats(min_value=0.05, max_value=max_value)
    )


@given(
    rows=st.integers(min_value=2, max_value=6),
    columns=st.integers(min_value=2, max_value=6),
    jitter=_jitters(1.0),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=30, deadline=None)
def test_ch_distances_are_float_identical_to_csr_on_grids(rows, columns, jitter, seed):
    network = grid_network(rows, columns, weight_jitter=jitter, seed=seed)
    csr = CSREngine(network, max_cached_sources=1)
    ch = CHEngine(network, max_cached_sources=1)
    sample = _sample(network.vertices(), 8)
    for u in sample:
        for v in sample:
            assert ch.distance(u, v) == csr.distance(u, v)


@given(
    rows=st.integers(min_value=3, max_value=8),
    columns=st.integers(min_value=3, max_value=8),
    jitter=_jitters(0.6),
    every=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=20, deadline=None)
def test_ch_distances_are_float_identical_on_arterial_grids(
    rows, columns, jitter, every, seed
):
    """The E14 benchmark topology: fast arterials over slow local streets."""
    network = arterial_grid_network(
        rows, columns, weight_jitter=jitter, arterial_every=every, seed=seed
    )
    csr = CSREngine(network, max_cached_sources=1)
    ch = CHEngine(network, max_cached_sources=1)
    sample = _sample(network.vertices(), 7)
    for u in sample:
        for v in sample:
            assert ch.distance(u, v) == csr.distance(u, v)


@given(
    count=st.integers(min_value=10, max_value=35),
    radius=st.floats(min_value=0.15, max_value=0.5),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=20, deadline=None)
def test_ch_agrees_with_csr_on_disconnected_networks(count, radius, seed):
    """Geometric networks may be disconnected: both backends must raise
    ``DisconnectedError`` for exactly the same pairs, and the CH tree views
    (inherited CSR planes) must cover exactly the reachable set."""
    network = random_geometric_network(count, radius=radius, seed=seed)
    csr = CSREngine(network, max_cached_sources=1)
    ch = CHEngine(network, max_cached_sources=1)
    sample = _sample(network.vertices(), 6)
    for u in sample:
        for v in sample:
            try:
                expected = csr.distance(u, v)
            except DisconnectedError:
                expected = None
            try:
                actual = ch.distance(u, v)
            except DisconnectedError:
                actual = None
            assert actual == expected
    for source in sample[:3]:
        csr_tree = csr.distances_from(source)
        ch_tree = ch.distances_from(source)
        assert set(ch_tree) == set(csr_tree)
        for vertex in csr_tree:
            assert ch_tree[vertex] == csr_tree[vertex]


@pytest.mark.skipif(
    artifacts._np is None, reason="the artifact cache serialises through NumPy"
)
@given(
    rows=st.integers(min_value=3, max_value=6),
    columns=st.integers(min_value=3, max_value=6),
    jitter=st.floats(min_value=0.0, max_value=0.8),
    backend=st.sampled_from(["csr", "csr+alt", "ch"]),
    seed=st.integers(min_value=0, max_value=5_000),
)
@settings(max_examples=15, deadline=None)
def test_cache_round_trip_reproduces_engine_behaviour(
    rows, columns, jitter, backend, seed
):
    """save -> load must reproduce identical distances *and* identical
    query-side statistics traces (queries / cache_hits / dijkstra_runs /
    bidirectional_runs move in lockstep on both engines)."""
    network = grid_network(rows, columns, weight_jitter=jitter, seed=seed)
    vertices = network.vertices()
    probes = [(vertices[0], vertices[-1]), (vertices[-1], vertices[0])] + [
        (u, v) for u in _sample(vertices, 4) for v in _sample(vertices, 3)
    ]

    def query_trace(engine):
        # Deltas from the post-construction state: whatever a build counted,
        # from the first query on the counters must move in lockstep.
        base = (
            engine.stats.queries,
            engine.stats.cache_hits,
            engine.stats.dijkstra_runs,
            engine.stats.bidirectional_runs,
        )
        trace = []
        for u, v in probes:
            value = engine.distance(u, v)
            tree = engine.distances_from(u)
            counters = (
                engine.stats.queries,
                engine.stats.cache_hits,
                engine.stats.dijkstra_runs,
                engine.stats.bidirectional_runs,
            )
            trace.append(
                (value, tree[v]) + tuple(c - b for c, b in zip(counters, base))
            )
        return trace

    with tempfile.TemporaryDirectory() as cache_dir:
        built = make_engine(network, backend, cache_dir=cache_dir)
        loaded = make_engine(network, backend, cache_dir=cache_dir)
        assert built.stats.build_seconds > 0.0
        assert loaded.stats.build_seconds == 0.0
        assert loaded.stats.load_seconds > 0.0
        built.stats.build_seconds = loaded.stats.load_seconds = 0.0
        assert query_trace(loaded) == query_trace(built)
