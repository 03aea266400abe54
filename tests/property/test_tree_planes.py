"""Property tests for vectorised tree planes.

The batch prefetch path computes many start-rooted trees with one
``scipy.csgraph.dijkstra(indices=[...])`` call, so the whole vectorised
stack rests on one claim: a plane row is **bit-identical** to the tree the
single-source path computes for that source.  If the claim ever broke, the
batched pipeline would stop reproducing the sequential loop's floats and the
byte-identical dispatch property would fail far from the cause.  The tests
below pin the claim directly, on both the SciPy and the pure-Python path.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.roadnet import routing
from repro.roadnet.generators import grid_network
from repro.roadnet.routing import CSREngine, CSRGraph

HAVE_SCIPY = routing._csgraph_dijkstra is not None  # noqa: SLF001


def _sample_indices(graph, seed, count):
    step = max(1, len(graph) // count)
    offset = seed % step
    return list(range(offset, len(graph), step))


@st.composite
def grids(draw):
    rows = draw(st.integers(min_value=2, max_value=7))
    columns = draw(st.integers(min_value=2, max_value=7))
    jitter = draw(st.floats(min_value=0.0, max_value=1.0))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return grid_network(rows, columns, weight_jitter=jitter, seed=seed), seed


@pytest.mark.skipif(not HAVE_SCIPY, reason="exercises the SciPy plane path")
@given(grids())
@settings(max_examples=30, deadline=None)
def test_scipy_plane_rows_bit_identical_to_single_source_trees(case):
    network, seed = case
    graph = CSRGraph(network)
    indices = _sample_indices(graph, seed, count=5)
    plane = graph.trees(indices)
    assert [len(row) for row in plane] == [len(graph)] * len(indices)
    for position, index in enumerate(indices):
        single = graph.tree(index)
        # Bit-identical, not approximately equal: the batched pipeline's
        # byte-identical dispatch guarantee rests on exact float equality.
        assert list(plane[position]) == list(single)


@given(grids())
@settings(max_examples=20, deadline=None)
def test_pure_python_plane_rows_bit_identical_to_single_source_trees(case):
    network, seed = case
    graph = CSRGraph(network)
    graph.matrix = None  # force the pure-Python fallback for both paths
    indices = _sample_indices(graph, seed, count=4)
    plane = graph.trees(indices)
    assert len(plane) == len(indices)
    for position, index in enumerate(indices):
        assert list(plane[position]) == list(graph.tree(index))


@given(grids())
@settings(max_examples=20, deadline=None)
def test_prefetched_trees_bit_identical_to_on_demand_trees(case):
    """The prefetch plane serves the very floats distances_from would compute."""
    network, seed = case
    vertices = network.vertices()
    step = max(1, len(vertices) // 5)
    sources = vertices[seed % step :: step]

    prefetching = CSREngine(network)
    views = prefetching.prefetch_trees(sources)
    assert set(views) == set(sources)
    assert prefetching.stats.dijkstra_runs == len(set(sources))

    on_demand = CSREngine(network)
    for source in sources:
        fresh = on_demand.distances_from(source)
        view = views[source]
        assert set(view) == set(fresh)
        assert {v: view[v] for v in view} == {v: fresh[v] for v in fresh}
