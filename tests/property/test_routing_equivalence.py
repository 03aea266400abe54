"""Property-based tests: every routing backend answers identically.

The matchers treat the routing engine as an exact shortest-path oracle; if
the CSR backend ever disagreed with the reference dict-Dijkstra backend, the
skylines would silently change with the ``--routing`` ablation flag.  The
tests below generate random networks and check

* point-to-point distances and full trees agree across backends;
* every backend's ``path`` is the route the search returns -- the same vertex
  tuple and the same float, exact ties included -- whether it is read off a
  distance tree (csr, table, ch) or searched (dict);
* ALT landmark lower bounds are admissible (never exceed the true distance),
  which is what makes the combined grid/ALT pruning safe.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DisconnectedError, VertexNotFoundError
from repro.roadnet.generators import (
    figure1_network,
    grid_network,
    random_geometric_network,
    ring_radial_network,
)
from repro.roadnet.routing import CSREngine, DictDijkstraEngine, make_engine
from repro.roadnet.shortest_path import PathResult, dijkstra_all, shortest_path

from tests.routing_reference import path_length


def _sample(vertices, step_hint):
    return vertices[:: max(1, len(vertices) // step_hint)]


@given(
    rows=st.integers(min_value=2, max_value=6),
    columns=st.integers(min_value=2, max_value=6),
    jitter=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=30, deadline=None)
def test_csr_distances_match_dict_on_grid_networks(rows, columns, jitter, seed):
    network = grid_network(rows, columns, weight_jitter=jitter, seed=seed)
    dict_engine = DictDijkstraEngine(network)
    csr_engine = CSREngine(network)
    sample = _sample(network.vertices(), 8)
    for u in sample:
        for v in sample:
            # Summation order can differ by an ulp between the C and Python
            # Dijkstra when equal-length paths tie; anything beyond that is a
            # real disagreement.
            assert math.isclose(
                csr_engine.distance(u, v), dict_engine.distance(u, v),
                rel_tol=1e-12, abs_tol=1e-12,
            )


@given(
    count=st.integers(min_value=10, max_value=40),
    radius=st.floats(min_value=0.15, max_value=0.5),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=20, deadline=None)
def test_csr_trees_match_dict_on_geometric_networks(count, radius, seed):
    """Geometric networks may be disconnected: the trees must agree on the
    reachable set, not just on values."""
    network = random_geometric_network(count, radius=radius, seed=seed)
    dict_engine = DictDijkstraEngine(network)
    csr_engine = CSREngine(network)
    for source in _sample(network.vertices(), 5):
        dict_tree = dict_engine.distances_from(source)
        csr_tree = csr_engine.distances_from(source)
        assert set(csr_tree) == set(dict_tree)
        for vertex, value in dict_tree.items():
            assert math.isclose(csr_tree[vertex], value, rel_tol=1e-12, abs_tol=1e-12)


#: every backend's ``path``, the ch backend under both of its tree providers
_PATH_ENGINES = (
    ("dict", "auto"),
    ("csr", "auto"),
    ("csr+alt", "auto"),
    ("table", "auto"),
    ("ch", "plane"),
    ("ch", "phast"),
)

#: every jitter, the near-tie band just above 0 included, with unit weights
#: (shortest paths tie everywhere) drawn often: walk and search read the same
#: Dijkstra labels, so ``==`` owes nothing to how well-separated the paths are
_path_jitters = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0))


def _assert_paths_equal_the_search(network, sources):
    """``engine.path`` is the route vehicles drive: on every backend the same
    vertex tuple and the same float as the search, exact ties included."""
    engines = [
        (f"{backend}/{provider}", make_engine(network, backend, tree_provider=provider))
        for backend, provider in _PATH_ENGINES
    ]
    for u in sources:
        for v in network.vertices():
            reference = shortest_path(network, u, v)
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


@pytest.mark.parametrize("backend,provider", _PATH_ENGINES)
def test_path_edge_cases_agree_on_every_backend(backend, provider):
    network = _two_components()
    engine = make_engine(network, backend, tree_provider=provider)
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
    network = _two_components()

    def query(source, target):
        # any mapping works as the tree; the dict backend's is a plain dict
        tree = dijkstra_all(network, source) if with_tree else None
        return shortest_path(network, source, target, tree=tree)

    assert query(4, 4) == PathResult(4, 4, 0.0, (4,))
    assert query(1, 6) == PathResult(1, 6, 3.0, (1, 2, 3, 6))
    with pytest.raises(VertexNotFoundError):
        query(4, 77)
    with pytest.raises(VertexNotFoundError):
        shortest_path(network, 77, 4, tree={} if with_tree else None)
    with pytest.raises(DisconnectedError):
        query(1, 9)


def test_tree_arm_rejects_a_tree_it_cannot_follow_to_the_source():
    network = _two_components()
    tree = dijkstra_all(network, 1)
    omits_target = {vertex: d for vertex, d in tree.items() if vertex != 6}
    with pytest.raises(DisconnectedError):
        shortest_path(network, 1, 6, tree=omits_target)
    # the target alone, none of its neighbours labelled
    with pytest.raises(DisconnectedError):
        shortest_path(network, 1, 6, tree={6: 3.0})
    # rooted at another vertex: the walk reaches 6's root and circles there
    with pytest.raises(DisconnectedError):
        shortest_path(network, 1, 4, tree=dijkstra_all(network, 6))


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
    engines = {
        name: make_engine(network, name) for name in ("dict", "csr", "csr+alt", "table")
    }
    u, v = network.vertices()[0], network.vertices()[-1]
    reference = engines["dict"].distance(u, v)
    for name, engine in engines.items():
        assert engine.backend == name
        assert math.isclose(engine.distance(u, v), reference, rel_tol=1e-12, abs_tol=1e-12)


@given(
    count=st.integers(min_value=10, max_value=30),
    radius=st.floats(min_value=0.15, max_value=0.5),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=15, deadline=None)
def test_table_trees_match_dict_on_geometric_networks(count, radius, seed):
    """Possibly-disconnected networks: the table must agree with the dict
    backend on the reachable set as well as the values."""
    network = random_geometric_network(count, radius=radius, seed=seed)
    dict_engine = DictDijkstraEngine(network)
    table_engine = make_engine(network, "table")
    for source in _sample(network.vertices(), 5):
        dict_tree = dict_engine.distances_from(source)
        table_tree = table_engine.distances_from(source)
        assert set(table_tree) == set(dict_tree)
        for vertex, value in dict_tree.items():
            assert math.isclose(table_tree[vertex], value, rel_tol=1e-12, abs_tol=1e-12)
