"""Property-based tests: every routing backend answers identically.

The matchers treat the routing engine as an exact shortest-path oracle; if
the CSR engine ever disagreed with a reference Dijkstra over the network's
dict-of-dicts adjacency (``tests/routing_reference.py``), the skylines would
be wrong.  The tests below generate random networks and check

* point-to-point distances and full trees agree with the reference tree;
* every backend's ``path`` -- read off a distance tree -- is the route the
  search returns: the same vertex tuple and the same float, exact ties
  included;
* ALT landmark lower bounds are admissible (never exceed the true distance),
  which is what makes the combined grid/ALT pruning safe.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DisconnectedError, VertexNotFoundError
from repro.roadnet.generators import figure1_network, grid_network
from repro.roadnet.routing import ROUTING_BACKENDS, CSREngine, make_engine
from repro.roadnet.shortest_path import PathResult

from tests.routing_arms import ROUTING_ARMS
from tests.routing_reference import (
    dijkstra_all,
    path_length,
    random_geometric_network,
    ring_radial_network,
    search_path,
    tree_walk_path,
)


def _sample(vertices, step_hint):
    return vertices[:: max(1, len(vertices) // step_hint)]


@pytest.mark.parametrize("backend", ROUTING_ARMS)
@given(
    rows=st.integers(min_value=2, max_value=6),
    columns=st.integers(min_value=2, max_value=6),
    jitter=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=30, deadline=None)
def test_distances_match_the_reference_on_grid_networks(backend, rows, columns, jitter, seed):
    network = grid_network(rows, columns, weight_jitter=jitter, seed=seed)
    engine = make_engine(network, backend)
    sample = _sample(network.vertices(), 8)
    for u in sample:
        reference = dijkstra_all(network, u)
        for v in sample:
            # Summation order can differ by an ulp between the C and Python
            # Dijkstra when equal-length paths tie; anything beyond that is a
            # real disagreement.
            assert math.isclose(
                engine.distance(u, v), reference[v], rel_tol=1e-12, abs_tol=1e-12,
            )


@pytest.mark.parametrize("backend", ROUTING_ARMS)
@given(
    count=st.integers(min_value=10, max_value=40),
    radius=st.floats(min_value=0.15, max_value=0.5),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=20, deadline=None)
def test_trees_match_the_reference_on_geometric_networks(backend, count, radius, seed):
    """Geometric networks may be disconnected: the trees must agree on the
    reachable set, not just on values."""
    network = random_geometric_network(count, radius=radius, seed=seed)
    engine = make_engine(network, backend)
    for source in _sample(network.vertices(), 5):
        reference = dijkstra_all(network, source)
        tree = engine.distances_from(source)
        assert set(tree) == set(reference)
        for vertex, value in reference.items():
            assert math.isclose(tree[vertex], value, rel_tol=1e-12, abs_tol=1e-12)


#: every jitter, the near-tie band just above 0 included, with unit weights
#: (shortest paths tie everywhere) drawn often: walk and search read the same
#: Dijkstra labels, so ``==`` owes nothing to how well-separated the paths are
_path_jitters = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0))


def _assert_paths_equal_the_search(network, sources):
    """``engine.path`` is the route vehicles drive: on every backend the same
    vertex tuple and the same float as the search, exact ties included."""
    engines = [(backend, make_engine(network, backend)) for backend in ROUTING_BACKENDS]
    for u in sources:
        for v in network.vertices():
            reference = search_path(network, u, v)
            assert reference.path[0] == u and reference.path[-1] == v
            assert math.isclose(path_length(network, reference.path), reference.distance)
            for name, engine in engines:
                result = engine.path(u, v)
                assert result.path == reference.path, name
                assert result.distance == reference.distance, name
                assert type(result.distance) is float, name


@given(
    rows=st.integers(min_value=2, max_value=6),
    columns=st.integers(min_value=2, max_value=6),
    jitter=_path_jitters,
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=20, deadline=None)
def test_csr_paths_are_valid_and_optimal(rows, columns, jitter, seed):
    network = grid_network(rows, columns, weight_jitter=jitter, seed=seed)
    _assert_paths_equal_the_search(network, _sample(network.vertices(), 4))


@given(
    rings=st.integers(min_value=1, max_value=4),
    spokes=st.integers(min_value=3, max_value=8),
    jitter=_path_jitters,
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=15, deadline=None)
def test_paths_equal_the_search_on_ring_radial_networks(rings, spokes, jitter, seed):
    network = ring_radial_network(rings, spokes, weight_jitter=jitter, seed=seed)
    _assert_paths_equal_the_search(network, _sample(network.vertices(), 4))


def test_paths_equal_the_search_on_figure1_for_every_pair():
    network = figure1_network()
    _assert_paths_equal_the_search(network, network.vertices())


def _two_components():
    """A 2x3 unit grid (vertices 1..6) plus a far-away edge 8-9."""
    network = grid_network(2, 3)
    network.add_vertex(8, x=50.0, y=50.0)
    network.add_vertex(9, x=51.0, y=50.0)
    network.add_edge(8, 9, 1.0)
    return network


@pytest.mark.parametrize("backend", ROUTING_ARMS)
def test_path_edge_cases_agree_on_every_backend(backend):
    network = _two_components()
    engine = make_engine(network, backend)
    built = (engine.stats.queries, engine.stats.dijkstra_runs)
    assert engine.path(4, 4) == PathResult(4, 4, 0.0, (4,))
    # a vehicle standing at its next stop: no tree rooted, no query billed
    assert (engine.stats.queries, engine.stats.dijkstra_runs) == built
    with pytest.raises(VertexNotFoundError):
        engine.path(77, 77)
    with pytest.raises(VertexNotFoundError):
        engine.path(4, 77)
    with pytest.raises(VertexNotFoundError):
        engine.path(77, 4)
    with pytest.raises(DisconnectedError):
        engine.path(1, 9)
    assert engine.path(8, 9) == PathResult(8, 9, 1.0, (8, 9))


@pytest.mark.parametrize("with_tree", [False, True], ids=["search", "tree"])
def test_shortest_path_edge_cases_on_both_arms(with_tree):
    """The tree-walk oracle and the reference search fail alike."""
    network = _two_components()

    def query(source, target):
        if not with_tree:
            return search_path(network, source, target)
        # any mapping works as the tree; the reference tree is a plain dict
        return tree_walk_path(network, source, target, tree=dijkstra_all(network, source))

    assert query(4, 4) == PathResult(4, 4, 0.0, (4,))
    assert query(1, 6) == PathResult(1, 6, 3.0, (1, 2, 3, 6))
    with pytest.raises(VertexNotFoundError):
        query(4, 77)
    with pytest.raises(VertexNotFoundError):
        if with_tree:
            tree_walk_path(network, 77, 4, tree={})
        else:
            search_path(network, 77, 4)
    with pytest.raises(DisconnectedError):
        query(1, 9)


def test_tree_arm_rejects_a_tree_it_cannot_follow_to_the_source():
    network = _two_components()
    tree = dijkstra_all(network, 1)
    omits_target = {vertex: d for vertex, d in tree.items() if vertex != 6}
    with pytest.raises(DisconnectedError):
        tree_walk_path(network, 1, 6, tree=omits_target)
    # the target alone, none of its neighbours labelled
    with pytest.raises(DisconnectedError):
        tree_walk_path(network, 1, 6, tree={6: 3.0})
    # rooted at another vertex: the walk reaches 6's root and circles there
    with pytest.raises(DisconnectedError):
        tree_walk_path(network, 1, 4, tree=dijkstra_all(network, 6))


@given(
    rows=st.integers(min_value=2, max_value=6),
    columns=st.integers(min_value=2, max_value=6),
    jitter=st.floats(min_value=0.0, max_value=1.0),
    landmarks=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=25, deadline=None)
def test_alt_lower_bounds_are_admissible(rows, columns, jitter, landmarks, seed):
    network = grid_network(rows, columns, weight_jitter=jitter, seed=seed)
    engine = CSREngine(network, landmarks=landmarks)
    sample = _sample(network.vertices(), 8)
    for u in sample:
        for v in sample:
            bound = engine.distance_lower_bound(u, v)
            assert bound <= engine.distance(u, v) + 1e-9


@given(
    rows=st.integers(min_value=3, max_value=6),
    columns=st.integers(min_value=3, max_value=6),
    jitter=st.floats(min_value=0.0, max_value=0.8),
    seed=st.integers(min_value=0, max_value=5_000),
)
@settings(max_examples=15, deadline=None)
def test_backend_factory_names_round_trip(rows, columns, jitter, seed):
    network = grid_network(rows, columns, weight_jitter=jitter, seed=seed)
    engines = {name: make_engine(network, name) for name in ROUTING_BACKENDS}
    u, v = network.vertices()[0], network.vertices()[-1]
    reference = dijkstra_all(network, u)[v]
    for name, engine in engines.items():
        assert engine.backend == name
        assert math.isclose(engine.distance(u, v), reference, rel_tol=1e-12, abs_tol=1e-12)
