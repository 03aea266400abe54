"""Unit tests for the routing engine."""

from __future__ import annotations

import warnings

import pytest

from repro.errors import ConfigurationError, DisconnectedError, VertexNotFoundError
from repro.roadnet import routing
from repro.roadnet.generators import figure1_network, grid_network
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.routing import (
    ROUTING_BACKENDS,
    ALTIndex,
    CSREngine,
    CSRGraph,
    make_engine,
)

from tests.routing_arms import PURE_PYTHON_TREES, ROUTING_ARMS
from tests.routing_reference import dijkstra_all, path_length, shortest_path_distance


class TestMakeEngine:
    def test_backend_names(self):
        network = grid_network(3, 3)
        for backend in ROUTING_BACKENDS:
            engine = make_engine(network, backend)
            assert engine.backend == backend

    def test_unknown_backend_raises(self):
        for backend in ("quantum", "dict", "table", "ch"):
            with pytest.raises(ConfigurationError):
                make_engine(grid_network(2, 2), backend)

    def test_default_backend_is_csr(self):
        assert ROUTING_BACKENDS == ("csr", "csr+alt")
        assert make_engine(grid_network(2, 2)).backend == "csr"

class TestCSRGraph:
    def test_arrays_describe_every_edge(self):
        network = grid_network(4, 4, weight_jitter=0.3, seed=5)
        graph = CSRGraph(network)
        assert len(graph.indices) == 2 * network.edge_count
        assert graph.indptr[0] == 0 and graph.indptr[-1] == len(graph.indices)
        for vertex in network.vertices():
            index = graph.index(vertex)
            span = range(graph.indptr[index], graph.indptr[index + 1])
            neighbours = {graph.vertex_ids[graph.indices[k]]: graph.weights[k] for k in span}
            assert neighbours == dict(network.neighbours_view(vertex))

    def test_unknown_vertex(self):
        graph = CSRGraph(grid_network(2, 2))
        with pytest.raises(VertexNotFoundError):
            graph.index(999)


def _two_components():
    """A jittered 3x3 grid, a separate edge ``98 - 99`` and an isolated ``97``."""
    network = grid_network(3, 3, weight_jitter=0.3, seed=4)
    network.add_vertex(99)
    network.add_vertex(98)
    network.add_edge(99, 98, 1.5)
    network.add_vertex(97)
    return network


@pytest.mark.parametrize("backend", ROUTING_ARMS)
class TestEveryBackend:
    """The :class:`~repro.roadnet.routing.RoutingEngine` contract, held by
    every backend ``make_engine`` builds."""

    def test_distance_matches_dijkstra(self, backend):
        network = grid_network(5, 5, weight_jitter=0.4, seed=3)
        engine = make_engine(network, backend)
        for source, target in [(1, 25), (13, 2), (7, 19)]:
            assert engine.distance(source, target) == pytest.approx(
                shortest_path_distance(network, source, target)
            )

    def test_every_pair_on_figure1_matches_the_reference(self, backend):
        network = figure1_network()
        engine = make_engine(network, backend)
        for source in network.vertices():
            reference = dijkstra_all(network, source)
            for target in network.vertices():
                assert engine.distance(source, target) == pytest.approx(reference[target])

    def test_distance_is_plain_float(self, backend):
        engine = make_engine(grid_network(3, 3, weight_jitter=0.2, seed=1), backend)
        assert type(engine.distance(1, 9)) is float
        assert type(engine.distances_from(1)[9]) is float

    def test_distance_to_self_is_zero(self, backend):
        engine = make_engine(_two_components(), backend)
        for vertex in (1, 5, 99, 97):
            assert engine.distance(vertex, vertex) == 0.0

    def test_distance_is_symmetric_to_the_bit(self, backend):
        network = grid_network(4, 4, weight_jitter=0.5, seed=8)
        engine = make_engine(network, backend)
        vertices = network.vertices()
        for source in vertices[::3]:
            for target in vertices[::5]:
                assert engine.distance(source, target) == engine.distance(target, source)

    def test_disconnected_raises(self, backend):
        network = grid_network(3, 3)
        network.add_vertex(99)
        engine = make_engine(network, backend)
        with pytest.raises(DisconnectedError):
            engine.distance(1, 99)

    def test_unknown_vertex_raises(self, backend):
        engine = make_engine(grid_network(2, 2), backend)
        with pytest.raises(VertexNotFoundError):
            engine.distance(1, 999)
        with pytest.raises(VertexNotFoundError):
            engine.distance(999, 1)
        with pytest.raises(VertexNotFoundError):
            engine.distances_from(999)
        with pytest.raises(VertexNotFoundError):
            engine.path(1, 999)

    def test_unknown_vertex_to_itself_raises(self, backend):
        """``distance(v, v)`` checks ``v`` like every other read of it does."""
        engine = make_engine(grid_network(2, 2), backend)
        with pytest.raises(VertexNotFoundError):
            engine.distance(999, 999)
        with pytest.raises(VertexNotFoundError):
            engine.distances_from(999)
        with pytest.raises(VertexNotFoundError):
            engine.path(999, 999)
        with pytest.raises(VertexNotFoundError):
            shortest_path_distance(engine.network, 999, 999)

    def test_path_is_valid_and_optimal(self, backend):
        network = grid_network(4, 4, weight_jitter=0.3, seed=9)
        engine = make_engine(network, backend)
        result = engine.path(1, 16)
        assert result.path[0] == 1 and result.path[-1] == 16
        assert path_length(network, result.path) == pytest.approx(result.distance)
        assert result.distance == pytest.approx(shortest_path_distance(network, 1, 16))

    def test_path_to_itself_is_the_vertex(self, backend):
        engine = make_engine(grid_network(3, 3), backend)
        result = engine.path(5, 5)
        assert result.path == (5,)
        assert result.distance == 0.0

    def test_path_disconnected_raises(self, backend):
        network = grid_network(3, 3)
        network.add_vertex(99)
        engine = make_engine(network, backend)
        with pytest.raises(DisconnectedError):
            engine.path(1, 99)

    def test_invalidate_recompiles_after_mutation(self, backend):
        network = grid_network(1, 3)  # a path 1 - 2 - 3
        engine = make_engine(network, backend)
        before = engine.distance(1, 3)
        network.add_vertex(4, x=0.5, y=1.0)
        network.add_edge(1, 4, 0.1)
        network.add_edge(4, 3, 0.1)
        engine.invalidate()
        assert engine.distance(1, 3) == pytest.approx(min(before, 0.2))
        assert engine.distance(1, 4) == pytest.approx(0.1)

    def test_tree_view_behaves_like_a_mapping(self, backend):
        network = grid_network(3, 3)
        network.add_vertex(99)
        engine = make_engine(network, backend)
        tree = engine.distances_from(1)
        assert tree[1] == 0.0
        assert 99 not in tree
        assert tree.get(99) is None
        assert tree.get(99, -1.0) == -1.0
        with pytest.raises(KeyError):
            tree[99]
        assert set(tree) == set(network.vertices()) - {99}
        assert len(tree) == 9
        assert {v: tree[v] for v in tree} == pytest.approx(dijkstra_all(network, 1))

    def test_trees_on_disconnected_components_match_the_reference(self, backend):
        network = _two_components()
        engine = make_engine(network, backend)
        for source in network.vertices():
            tree = engine.distances_from(source)
            assert {v: tree[v] for v in tree} == pytest.approx(dijkstra_all(network, source))
        for target in (1, 99):
            with pytest.raises(DisconnectedError):
                engine.distance(97, target)
        with pytest.raises(DisconnectedError):
            engine.distance(1, 98)

    def test_single_vertex_network(self, backend):
        network = RoadNetwork()
        network.add_vertex(7)
        engine = make_engine(network, backend)
        assert engine.distance(7, 7) == 0.0
        assert dict(engine.distances_from(7)) == {7: 0.0}
        assert engine.path(7, 7).path == (7,)
        assert engine.distance_lower_bound(7, 7) == 0.0

    def test_lower_bound_is_admissible(self, backend):
        network = _two_components()
        engine = make_engine(network, backend)
        for source in network.vertices():
            tree = engine.distances_from(source)
            for target in tree:
                bound = engine.distance_lower_bound(source, target)
                assert bound <= tree[target] + 1e-9
            assert engine.distance_lower_bound(source, source) == 0.0

    def test_queries_are_counted(self, backend):
        engine = make_engine(grid_network(4, 4), backend)
        engine.distance(1, 2)
        engine.distances_from(3)
        engine.path(1, 16)
        engine.path(6, 6)  # a vehicle at its stop roots no tree
        assert engine.stats.queries == 3

    def test_pure_python_fallback_matches(self, backend, monkeypatch):
        network = grid_network(4, 4, weight_jitter=0.25, seed=11)
        reference = make_engine(network, backend)
        monkeypatch.setattr(routing, "_csr_array", None)
        fallback = make_engine(network, backend)
        assert fallback.graph.matrix is None
        for source, target in [(1, 16), (5, 12), (3, 14)]:
            assert fallback.distance(source, target) == pytest.approx(
                reference.distance(source, target)
            )
        result = fallback.path(1, 16)
        assert path_length(network, result.path) == pytest.approx(result.distance)

    def test_graphs_are_built_on_the_arm_under_test(self, backend, request):
        network = grid_network(3, 3)
        engine = make_engine(network, backend)
        if request.node.get_closest_marker(PURE_PYTHON_TREES) is not None:
            assert routing._csr_array is None  # noqa: SLF001 - the arm's switch
        assert (engine.graph.matrix is None) == (routing._csr_array is None)  # noqa: SLF001
        engine.invalidate()
        assert (engine.graph.matrix is None) == (routing._csr_array is None)  # noqa: SLF001
        assert engine.distance(1, 9) == pytest.approx(shortest_path_distance(network, 1, 9))

    def test_cache_capacity_reaches_the_engine(self, backend):
        engine = make_engine(grid_network(4, 4), backend, max_cached_sources=2)
        for source in (1, 2, 3, 4):
            engine.distances_from(source)
        assert engine.stats.dijkstra_runs == 4
        assert len(engine._trees) <= 2  # noqa: SLF001 - asserting the eviction policy
        with pytest.raises(ValueError):
            make_engine(grid_network(2, 2), backend, max_cached_sources=0)


class TestCSREngine:
    def test_caches_and_reuses_symmetrically(self):
        engine = CSREngine(grid_network(4, 4))
        engine.distance(1, 16)
        engine.distance(1, 8)
        engine.distance(16, 1)
        assert engine.stats.dijkstra_runs == 1
        assert engine.stats.cache_hits >= 2


class TestALT:
    def test_bounds_are_admissible(self):
        network = grid_network(5, 5, weight_jitter=0.4, seed=13)
        engine = CSREngine(network, landmarks=4)
        assert engine.backend == "csr+alt"
        vertices = network.vertices()
        for u in vertices[::3]:
            for v in vertices[::4]:
                bound = engine.distance_lower_bound(u, v)
                assert bound <= engine.distance(u, v) + 1e-9 if u != v else bound == 0.0

    def test_landmark_count_capped_by_network_size(self):
        engine = CSREngine(grid_network(2, 2), landmarks=16)
        assert len(engine._alt.landmark_indices) <= 4  # noqa: SLF001

    def test_disconnected_pair_gets_infinite_bound(self):
        network = grid_network(3, 3)
        network.add_vertex(99)
        network.add_vertex(98)
        network.add_edge(99, 98, 1.0)
        engine = CSREngine(network, landmarks=3)
        assert engine.distance_lower_bound(1, 99) == float("inf")

    def test_plain_csr_engine_has_zero_bound(self):
        engine = CSREngine(figure1_network())
        assert engine.distance_lower_bound(1, 17) == 0.0

    @pytest.mark.parametrize("arm", ["numpy", "python"])
    def test_unreached_pairs_bound_without_warnings(self, arm, monkeypatch):
        if arm == "numpy" and routing._np is None:  # noqa: SLF001
            pytest.skip("exercises the NumPy reduction")
        if arm == "python":
            monkeypatch.setattr(routing, "_csr_array", None)
            monkeypatch.setattr(routing, "_np", None)
        # Farthest-point sampling only picks reachable vertices, so every
        # landmark lies in the grid; none sees 98, 99 or 97.
        engine = CSREngine(_two_components(), landmarks=3)
        assert (engine._alt._matrix is None) == (arm == "python")  # noqa: SLF001
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert engine.distance_lower_bound(98, 99) == 0.0
            assert engine.distance_lower_bound(97, 98) == 0.0
            assert engine.distance_lower_bound(1, 99) == float("inf")

    def test_landmark_tables_bound_like_the_matrix(self, monkeypatch):
        """The pure-Python landmark tables give the NumPy matrix's bound on
        every connected pair, and the bound is admissible."""
        network = grid_network(4, 4, weight_jitter=0.3, seed=7)
        pairs = [(u, v) for u in network.vertices() for v in network.vertices()]
        expected = None
        if routing._np is not None:  # noqa: SLF001
            matrix_engine = CSREngine(network, landmarks=3)
            expected = [matrix_engine.distance_lower_bound(u, v) for u, v in pairs]
        monkeypatch.setattr(routing, "_csr_array", None)
        monkeypatch.setattr(routing, "_np", None)
        table_engine = CSREngine(network, landmarks=3)
        assert table_engine._alt._matrix is None  # noqa: SLF001
        bounds = [table_engine.distance_lower_bound(u, v) for u, v in pairs]
        exact = {u: dijkstra_all(network, u) for u in network.vertices()}
        for (u, v), bound in zip(pairs, bounds):
            assert bound <= exact[u][v] + 1e-9
        assert any(bound > 0.0 for bound in bounds)
        if expected is not None:
            assert bounds == pytest.approx(expected)

    def test_alt_index_rejects_nonpositive_landmarks(self):
        with pytest.raises(ValueError):
            ALTIndex(CSRGraph(grid_network(2, 2)), landmarks=0)


@pytest.fixture(params=["scipy", "python"])
def arm(request, monkeypatch):
    """Build graphs on the SciPy plane path or on the pure-Python heap."""
    if request.param == "scipy":
        if routing._csr_array is None:  # noqa: SLF001
            pytest.skip("exercises the SciPy plane path")
    else:
        monkeypatch.setattr(routing, "_csr_array", None)
    return request.param


class TestTreePlanes:
    def test_trees_matches_per_source_tree(self, arm):
        graph = CSRGraph(grid_network(4, 4, weight_jitter=0.3, seed=7))
        assert (graph.matrix is None) == (arm == "python")
        indices = [0, 5, 11]
        plane = graph.trees(indices)
        for position, index in enumerate(indices):
            assert list(plane[position]) == list(graph.tree(index))

    def test_empty_source_list(self, arm):
        graph = CSRGraph(grid_network(3, 3))
        assert len(graph.trees([])) == 0

    def test_single_vertex_network(self, arm):
        network = RoadNetwork()
        network.add_vertex(7)
        graph = CSRGraph(network)
        assert list(graph.tree(0)) == [0.0]
        assert [list(row) for row in graph.trees([0, 0])] == [[0.0], [0.0]]
        assert list(graph.nearest([0])) == [0.0]

    def test_disconnected_components_stay_infinite(self, arm):
        network = _two_components()
        graph = CSRGraph(network)
        plane = graph.trees(range(len(graph)))
        for index, source in enumerate(graph.vertex_ids):
            reference = dijkstra_all(network, source)
            for position, target in enumerate(graph.vertex_ids):
                expected = reference.get(target, float("inf"))
                assert plane[index][position] == pytest.approx(expected)

    def test_nearest_is_the_minimum_over_the_sources_trees(self, arm):
        graph = CSRGraph(_two_components())
        sources = [graph.index(1), graph.index(98)]
        rows = [list(graph.tree(index)) for index in sources]
        assert list(graph.nearest(sources)) == [min(column) for column in zip(*rows)]
        isolated = graph.index(97)
        assert [value for value in graph.nearest([isolated])] == [
            0.0 if index == isolated else float("inf") for index in range(len(graph))
        ]

    def test_nearest_requires_a_source(self, arm):
        with pytest.raises(ValueError):
            CSRGraph(grid_network(2, 2)).nearest([])


@pytest.mark.parametrize("backend", ROUTING_ARMS)
class TestPrefetch:
    def test_each_prefetched_tree_counts_one_dijkstra_run(self, backend):
        """A tree served from the prefetch plane is one computation, however
        many consumers it later has (the EngineStats double-count fix)."""
        engine = make_engine(grid_network(4, 4), backend)
        views = engine.prefetch_trees([1, 2, 3, 1, 2])  # duplicates collapse
        assert set(views) == {1, 2, 3}
        assert engine.stats.dijkstra_runs == 3
        # Serving the prefetched trees is a cache hit, never a re-computation.
        for _ in range(4):
            engine.distances_from(1)
        assert engine.stats.dijkstra_runs == 3
        assert engine.stats.cache_hits == 4

    def test_cached_trees_are_returned_without_new_runs(self, backend):
        engine = make_engine(grid_network(4, 4), backend)
        engine.distances_from(5)
        assert engine.stats.dijkstra_runs == 1
        views = engine.prefetch_trees([5, 6])
        assert set(views) == {5, 6}
        assert engine.stats.dijkstra_runs == 2  # only 6 was missing

    def test_unknown_sources_are_skipped(self, backend):
        engine = make_engine(grid_network(3, 3), backend)
        views = engine.prefetch_trees([1, 999])
        assert set(views) == {1}

    def test_views_survive_cache_eviction(self, backend):
        """Prefetching more trees than the cache holds must still pin every
        returned view (the batch relies on reference pinning, not the cache)."""
        network = grid_network(4, 4)
        engine = make_engine(network, backend, max_cached_sources=2)
        sources = network.vertices()[:6]
        views = engine.prefetch_trees(sources)
        assert set(views) == set(sources)
        reference = CSREngine(network)
        for source in sources:
            fresh = reference.distances_from(source)
            assert {v: views[source][v] for v in views[source]} == {
                v: fresh[v] for v in fresh
            }

    def test_prefetch_values_match_distances_from(self, backend):
        engine = make_engine(grid_network(4, 4, weight_jitter=0.25, seed=9), backend)
        views = engine.prefetch_trees([2, 7])
        tree = engine.distances_from(2)
        assert {v: views[2][v] for v in views[2]} == {v: tree[v] for v in tree}

    def test_pure_python_prefetch(self, backend, monkeypatch):
        monkeypatch.setattr(routing, "_csr_array", None)
        engine = make_engine(grid_network(3, 3, weight_jitter=0.2, seed=5), backend)
        views = engine.prefetch_trees([1, 8])
        for source in (1, 8):
            fresh = dijkstra_all(engine.network, source)
            assert {v: round(views[source][v], 9) for v in views[source]} == {
                v: round(fresh[v], 9) for v in fresh
            }
