"""A cold query answered from the tree rooted at its other end.

``CSREngine.distance(root, leaf)`` reads the tree rooted at the smaller
endpoint and ``CSREngine.path(source, target)`` the source's tree.  When
that tree is not cached but the other end's is, and the network has more
vertices than the tree cache has slots, the engine walks the other end's
tree instead (``repro.roadnet.shortest_path.certified_walk``) and takes the
walk only when every step wins by more than the float error bound.  The
properties below hold the walked answers to the rooted ones bit for bit, on
both tree arms (SciPy and the pure-Python Dijkstra), and show the walk
refusing exact ties -- after which the rooted tree still answers.  Their
engines keep a one-tree cache, so every network outgrows it.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DisconnectedError
from repro.roadnet.generators import arterial_grid_network, grid_network
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.routing import make_engine
from repro.roadnet.shortest_path import PathResult, certified_walk

from tests.routing_arms import PURE_PYTHON_TREES
from tests.routing_reference import search_path, tree_walk_path

#: the plain engine on both tree arms
TREE_ARMS = ("csr", pytest.param("csr", id="csr-python", marks=getattr(pytest.mark, PURE_PYTHON_TREES)))


@st.composite
def jittered_cities(draw):
    """A jittered grid or arterial network and a handful of vertex pairs."""
    rows = draw(st.integers(min_value=3, max_value=14))
    columns = draw(st.integers(min_value=3, max_value=14))
    jitter = draw(st.floats(min_value=0.05, max_value=1.0))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    if draw(st.booleans()):
        network = grid_network(rows, columns, weight_jitter=jitter, seed=seed)
    else:
        network = arterial_grid_network(
            rows, columns, weight_jitter=jitter, arterial_every=3, seed=seed
        )
    vertices = network.vertices()
    pairs = draw(
        st.lists(
            st.tuples(st.sampled_from(vertices), st.sampled_from(vertices)).filter(
                lambda pair: pair[0] != pair[1]
            ),
            min_size=1,
            max_size=12,
        )
    )
    return network, pairs


def _row_tree(engine, vertex):
    """``tree(vertex)`` as the vertex-keyed mapping the oracle walk reads."""
    graph = engine.graph
    row = graph.tree(graph.index(vertex))
    return {v: row[i] for i, v in enumerate(graph.vertex_ids) if row[i] != float("inf")}


def _cache_only(engine, vertex):
    """Leave ``vertex``'s tree the only one cached (the engine holds one)."""
    engine.prefetch_trees((vertex,))
    assert list(engine._trees) == [engine.graph.index(vertex)]


@pytest.mark.parametrize("backend", TREE_ARMS)
@given(city=jittered_cities())
@settings(max_examples=25, deadline=None)
def test_a_walked_distance_is_the_root_trees_float(backend, city):
    network, pairs = city
    engine = make_engine(network, backend, max_cached_sources=1)
    graph = engine.graph
    for a, b in pairs:
        root, leaf = min(a, b), max(a, b)
        _cache_only(engine, leaf)
        before = (engine.stats.walks, engine.stats.walks_refused, engine.stats.dijkstra_runs)
        value = engine.distance(a, b)
        assert value == graph.tree(graph.index(root))[graph.index(leaf)]
        assert type(value) is float
        walks, refused, runs = (
            engine.stats.walks - before[0],
            engine.stats.walks_refused - before[1],
            engine.stats.dijkstra_runs - before[2],
        )
        # one walk per query; only a refusal roots the root's tree
        assert walks + refused == 1
        assert runs == refused


@pytest.mark.parametrize("backend", TREE_ARMS)
@given(city=jittered_cities())
@settings(max_examples=25, deadline=None)
def test_a_walked_path_is_the_source_trees_walk(backend, city):
    network, pairs = city
    engine = make_engine(network, backend, max_cached_sources=1)
    walked = 0
    for source, target in pairs:
        _cache_only(engine, target)
        before = engine.stats.walks
        result = engine.path(source, target)
        expected = tree_walk_path(network, source, target, _row_tree(engine, source))
        assert result.path == expected.path
        assert result.distance == expected.distance
        assert type(result.distance) is float
        walked += engine.stats.walks - before
    assert engine.stats.walks + engine.stats.walks_refused == len(pairs)
    assert engine.stats.walks == walked


@pytest.mark.parametrize("backend", TREE_ARMS)
def test_jittered_cities_are_mostly_walked(backend):
    """The certificate is not vacuous: on a jittered city it answers."""
    network = grid_network(12, 12, weight_jitter=0.3, seed=7)
    engine = make_engine(network, backend, max_cached_sources=1)
    vertices = network.vertices()
    for a, b in zip(vertices[::7], vertices[::-11]):
        if a != b:
            _cache_only(engine, max(a, b))
            engine.distance(a, b)
    assert engine.stats.walks > 3 * engine.stats.walks_refused


def _two_route_tie() -> RoadNetwork:
    """Two routes of exactly equal length from 1 to 4: 1-2-4 and 1-3-4."""
    return RoadNetwork.from_edges(
        [(1, 2, 1.5), (2, 4, 2.5), (1, 3, 2.5), (3, 4, 1.5), (4, 5, 1.0)],
        coordinates={1: (0, 0), 2: (1, 1), 3: (1, -1), 4: (2, 0), 5: (3, 0)},
    )


@pytest.mark.parametrize("backend", TREE_ARMS)
def test_an_exact_tie_refuses_and_the_rooted_tree_answers(backend):
    network = _two_route_tie()
    engine = make_engine(network, backend, max_cached_sources=1)
    graph = engine.graph
    row = graph.tree(graph.index(5))
    assert certified_walk(graph, row, graph.index(1), graph.index(5)) is None

    _cache_only(engine, 5)
    assert engine.distance(1, 5) == 5.0
    assert (engine.stats.walks, engine.stats.walks_refused) == (0, 1)
    assert engine.stats.dijkstra_runs == 2  # the leaf's, then the refused root's

    _cache_only(engine, 5)
    result = engine.path(1, 5)
    assert result == search_path(network, 1, 5)
    assert result == tree_walk_path(network, 1, 5, _row_tree(engine, 1))
    assert (engine.stats.walks, engine.stats.walks_refused) == (0, 2)

    # off the tie, the same tree is walked: 2-4-5 is the only shortest path
    _cache_only(engine, 5)
    assert engine.path(2, 5) == PathResult(2, 5, 3.5, (2, 4, 5))
    assert engine.stats.walks == 1


@pytest.mark.parametrize("backend", TREE_ARMS)
def test_an_unjittered_grid_refuses_and_the_rooted_tree_answers(backend):
    network = grid_network(6, 6)
    engine = make_engine(network, backend, max_cached_sources=1)
    graph = engine.graph
    for source, target in [(1, 36), (6, 31), (8, 29), (2, 33)]:
        _cache_only(engine, target)
        refused = engine.stats.walks_refused
        assert engine.distance(source, target) == graph.tree(graph.index(source))[graph.index(target)]
        assert engine.stats.walks_refused == refused + 1
        _cache_only(engine, target)
        assert engine.path(source, target) == search_path(network, source, target)
        assert engine.stats.walks_refused == refused + 2
    assert engine.stats.walks == 0


@pytest.mark.parametrize("backend", TREE_ARMS)
def test_an_unreachable_root_is_not_walked(backend):
    network = grid_network(3, 3, weight_jitter=0.2, seed=1)
    network.add_vertex(50, x=9.0, y=9.0)
    network.add_vertex(51, x=10.0, y=9.0)
    network.add_edge(50, 51, 1.0)
    engine = make_engine(network, backend, max_cached_sources=1)
    _cache_only(engine, 50)
    with pytest.raises(DisconnectedError):
        engine.distance(1, 50)
    _cache_only(engine, 50)
    with pytest.raises(DisconnectedError):
        engine.path(1, 50)
    assert engine.walk_distance(1, 50) is None
    assert (engine.stats.walks, engine.stats.walks_refused) == (0, 0)
    # what the query rooted is the root's tree, as without a walk
    assert engine.stats.dijkstra_runs == 4


def test_walk_distance_needs_a_leaf_tree():
    network = grid_network(4, 4, weight_jitter=0.3, seed=2)
    engine = make_engine(network, "csr", max_cached_sources=4)
    graph = engine.graph
    assert engine.walk_distance(1, 16) is None  # nothing cached at 16
    assert engine.walk_distance(1, 1) is None
    assert engine.walk_distance(1, 999) is None
    row = graph.tree(graph.index(16))
    value = engine.walk_distance(1, 16, row)  # a row the caller pins
    assert value == graph.tree(graph.index(1))[graph.index(16)]
    assert engine.stats.dijkstra_runs == 0 and engine.stats.walks == 1
    assert engine.stats.queries == 0


@pytest.mark.parametrize("backend", TREE_ARMS)
def test_a_cache_that_holds_every_tree_roots_instead_of_walking(backend):
    """Rooted trees are never evicted there, so a walk would only put the
    tree off: the query roots it, as without a walk."""
    network = grid_network(4, 4, weight_jitter=0.3, seed=2)
    engine = make_engine(network, backend, max_cached_sources=16)
    graph = engine.graph
    engine.prefetch_trees((16,))
    assert engine.walk_distance(1, 16) is None
    assert engine.distance(1, 16) == graph.tree(graph.index(1))[graph.index(16)]
    engine.prefetch_trees((15,))
    assert engine.path(2, 15) == search_path(network, 2, 15)
    assert (engine.stats.walks, engine.stats.walks_refused) == (0, 0)
    assert engine.stats.dijkstra_runs == 4
