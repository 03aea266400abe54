"""Unit tests for the pluggable routing engines."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, DisconnectedError, VertexNotFoundError
from repro.roadnet import routing
from repro.roadnet.generators import figure1_network, grid_network
from repro.roadnet.routing import (
    ROUTING_BACKENDS,
    ALTIndex,
    CSREngine,
    CSRGraph,
    DictDijkstraEngine,
    TableEngine,
    ensure_engine,
    make_engine,
)
from repro.roadnet.shortest_path import DistanceOracle

from tests.routing_reference import path_length, shortest_path_distance


class TestMakeEngine:
    def test_backend_names(self):
        network = grid_network(3, 3)
        for backend in ROUTING_BACKENDS:
            engine = make_engine(network, backend)
            assert engine.backend == backend

    def test_unknown_backend_raises(self):
        with pytest.raises(ConfigurationError):
            make_engine(grid_network(2, 2), "quantum")

    def test_ensure_engine_wraps_bare_oracle(self):
        network = grid_network(3, 3)
        oracle = DistanceOracle(network)
        engine = ensure_engine(oracle, network)
        assert isinstance(engine, DictDijkstraEngine)
        assert engine.oracle is oracle
        assert engine.stats is oracle.stats

    def test_ensure_engine_passes_engines_through(self):
        network = grid_network(3, 3)
        engine = CSREngine(network)
        assert ensure_engine(engine, network) is engine

    def test_ensure_engine_rejects_garbage(self):
        with pytest.raises(TypeError):
            ensure_engine(object(), grid_network(2, 2))


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


class TestCSREngine:
    def test_distance_matches_dijkstra(self):
        network = grid_network(5, 5, weight_jitter=0.4, seed=3)
        engine = CSREngine(network)
        for source, target in [(1, 25), (13, 2), (7, 19)]:
            assert engine.distance(source, target) == pytest.approx(
                shortest_path_distance(network, source, target)
            )

    def test_caches_and_reuses_symmetrically(self):
        engine = CSREngine(grid_network(4, 4))
        engine.distance(1, 16)
        engine.distance(1, 8)
        engine.distance(16, 1)
        assert engine.stats.dijkstra_runs == 1
        assert engine.stats.cache_hits >= 2

    def test_eviction_bound(self):
        engine = CSREngine(grid_network(4, 4), max_cached_sources=2)
        for source in (1, 2, 3, 4):
            engine.distances_from(source)
        assert engine.stats.dijkstra_runs == 4
        assert len(engine._trees) <= 2  # noqa: SLF001 - asserting the eviction policy

    def test_invalid_cache_size(self):
        with pytest.raises(ValueError):
            CSREngine(grid_network(2, 2), max_cached_sources=0)

    def test_disconnected_raises(self):
        network = grid_network(3, 3)
        network.add_vertex(99)
        engine = CSREngine(network)
        with pytest.raises(DisconnectedError):
            engine.distance(1, 99)

    def test_unknown_vertex_raises(self):
        engine = CSREngine(grid_network(2, 2))
        with pytest.raises(VertexNotFoundError):
            engine.distance(1, 999)

    def test_path_is_valid_and_optimal(self):
        network = grid_network(4, 4, weight_jitter=0.3, seed=9)
        engine = CSREngine(network)
        result = engine.path(1, 16)
        assert result.path[0] == 1 and result.path[-1] == 16
        assert path_length(network, result.path) == pytest.approx(result.distance)
        assert result.distance == pytest.approx(shortest_path_distance(network, 1, 16))

    def test_path_disconnected_raises(self):
        network = grid_network(3, 3)
        network.add_vertex(99)
        engine = CSREngine(network)
        with pytest.raises(DisconnectedError):
            engine.path(1, 99)

    def test_invalidate_recompiles_after_mutation(self):
        network = grid_network(1, 3)  # a path 1 - 2 - 3
        engine = CSREngine(network)
        before = engine.distance(1, 3)
        network.add_vertex(4, x=0.5, y=1.0)
        network.add_edge(1, 4, 0.1)
        network.add_edge(4, 3, 0.1)
        engine.invalidate()
        assert engine.distance(1, 3) == pytest.approx(min(before, 0.2))
        assert engine.distance(1, 4) == pytest.approx(0.1)

    def test_tree_view_behaves_like_a_mapping(self):
        network = grid_network(3, 3)
        network.add_vertex(99)
        engine = CSREngine(network)
        tree = engine.distances_from(1)
        assert tree[1] == 0.0
        assert 99 not in tree
        assert tree.get(99) is None
        assert tree.get(99, -1.0) == -1.0
        with pytest.raises(KeyError):
            tree[99]
        assert set(tree) == set(network.vertices()) - {99}
        assert len(tree) == 9
        oracle_tree = DistanceOracle(network).distances_from(1)
        assert {v: tree[v] for v in tree} == pytest.approx(oracle_tree)

    def test_pure_python_fallback_matches(self, monkeypatch):
        network = grid_network(4, 4, weight_jitter=0.25, seed=11)
        reference = CSREngine(network)
        monkeypatch.setattr(routing, "_csr_array", None)
        fallback = CSREngine(network)
        assert fallback.graph.matrix is None
        for source, target in [(1, 16), (5, 12), (3, 14)]:
            assert fallback.distance(source, target) == pytest.approx(
                reference.distance(source, target)
            )
        result = fallback.path(1, 16)
        assert path_length(network, result.path) == pytest.approx(result.distance)


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
        assert engine.alt is not None
        assert engine.alt.landmark_count <= 4

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

    def test_alt_index_rejects_nonpositive_landmarks(self):
        with pytest.raises(ValueError):
            ALTIndex(CSRGraph(grid_network(2, 2)), landmarks=0)


class TestTreePlanes:
    def test_trees_matches_per_source_tree(self):
        graph = CSRGraph(grid_network(4, 4, weight_jitter=0.3, seed=7))
        indices = [0, 5, 11]
        plane = graph.trees(indices)
        for position, index in enumerate(indices):
            assert list(plane[position]) == list(graph.tree(index))

    def test_empty_source_list(self):
        graph = CSRGraph(grid_network(3, 3))
        assert len(graph.trees([])) == 0

    def test_pure_python_plane(self, monkeypatch):
        monkeypatch.setattr(routing, "_csr_array", None)
        graph = CSRGraph(grid_network(3, 3, weight_jitter=0.2, seed=3))
        assert graph.matrix is None
        plane = graph.trees([0, 4])
        assert list(plane[0]) == list(graph.tree(0))
        assert list(plane[1]) == list(graph.tree(4))


class TestPrefetch:
    def test_each_prefetched_tree_counts_one_dijkstra_run(self):
        """A tree served from the prefetch plane is one computation, however
        many consumers it later has (the EngineStats double-count fix)."""
        engine = CSREngine(grid_network(4, 4))
        views = engine.prefetch_trees([1, 2, 3, 1, 2])  # duplicates collapse
        assert set(views) == {1, 2, 3}
        assert engine.stats.dijkstra_runs == 3
        # Serving the prefetched trees is a cache hit, never a re-computation.
        for _ in range(4):
            engine.distances_from(1)
        assert engine.stats.dijkstra_runs == 3
        assert engine.stats.cache_hits == 4

    def test_cached_trees_are_returned_without_new_runs(self):
        engine = CSREngine(grid_network(4, 4))
        engine.distances_from(5)
        assert engine.stats.dijkstra_runs == 1
        views = engine.prefetch_trees([5, 6])
        assert set(views) == {5, 6}
        assert engine.stats.dijkstra_runs == 2  # only 6 was missing

    def test_unknown_sources_are_skipped(self):
        engine = CSREngine(grid_network(3, 3))
        views = engine.prefetch_trees([1, 999])
        assert set(views) == {1}

    def test_views_survive_cache_eviction(self):
        """Prefetching more trees than the LRU holds must still pin every
        returned view (the batch relies on reference pinning, not the cache)."""
        network = grid_network(4, 4)
        engine = CSREngine(network, max_cached_sources=2)
        sources = network.vertices()[:6]
        views = engine.prefetch_trees(sources)
        assert set(views) == set(sources)
        reference = CSREngine(network)
        for source in sources:
            fresh = reference.distances_from(source)
            assert {v: views[source][v] for v in views[source]} == {
                v: fresh[v] for v in fresh
            }

    def test_prefetch_values_match_distances_from(self):
        engine = CSREngine(grid_network(4, 4, weight_jitter=0.25, seed=9))
        views = engine.prefetch_trees([2, 7])
        tree = engine.distances_from(2)
        assert {v: views[2][v] for v in views[2]} == {v: tree[v] for v in tree}

    def test_dict_engine_prefetch_is_a_noop(self):
        engine = DictDijkstraEngine(grid_network(3, 3))
        assert engine.prefetch_trees([1, 2, 3]) == {}
        assert engine.stats.dijkstra_runs == 0

    def test_pure_python_prefetch(self, monkeypatch):
        monkeypatch.setattr(routing, "_csr_array", None)
        engine = CSREngine(grid_network(3, 3, weight_jitter=0.2, seed=5))
        views = engine.prefetch_trees([1, 8])
        reference = DictDijkstraEngine(engine.network)
        for source in (1, 8):
            fresh = reference.distances_from(source)
            assert {v: round(views[source][v], 9) for v in views[source]} == {
                v: round(fresh[v], 9) for v in fresh
            }


class TestTableEngine:
    def test_distance_matches_dijkstra(self):
        network = grid_network(5, 5, weight_jitter=0.4, seed=3)
        engine = TableEngine(network)
        for source, target in [(1, 25), (13, 2), (7, 19)]:
            assert engine.distance(source, target) == pytest.approx(
                shortest_path_distance(network, source, target)
            )

    def test_distance_is_plain_float(self):
        engine = TableEngine(grid_network(3, 3))
        assert type(engine.distance(1, 9)) is float

    def test_disconnected_raises(self):
        network = grid_network(3, 3)
        network.add_vertex(99)
        engine = TableEngine(network)
        with pytest.raises(DisconnectedError):
            engine.distance(1, 99)

    def test_unknown_vertex_raises(self):
        engine = TableEngine(grid_network(2, 2))
        with pytest.raises(VertexNotFoundError):
            engine.distance(1, 999)

    def test_tree_view_is_a_row_of_the_table(self):
        network = grid_network(3, 3)
        engine = TableEngine(network)
        tree = engine.distances_from(1)
        assert tree[1] == 0.0
        assert len(tree) == 9
        oracle_tree = DistanceOracle(network).distances_from(1)
        assert {v: tree[v] for v in tree} == pytest.approx(oracle_tree)

    def test_path_is_valid_and_optimal(self):
        network = grid_network(4, 4, weight_jitter=0.3, seed=9)
        engine = TableEngine(network)
        result = engine.path(1, 16)
        assert result.path[0] == 1 and result.path[-1] == 16
        assert path_length(network, result.path) == pytest.approx(result.distance)
        assert result.distance == pytest.approx(shortest_path_distance(network, 1, 16))

    def test_lower_bound_is_exact(self):
        engine = TableEngine(grid_network(4, 4, weight_jitter=0.2, seed=4))
        assert engine.exact_lower_bounds
        assert engine.distance_lower_bound(1, 16) == engine.distance(1, 16)
        assert engine.distance_lower_bound(7, 7) == 0.0

    def test_lower_bound_infinite_for_disconnected(self):
        network = grid_network(3, 3)
        network.add_vertex(99)
        engine = TableEngine(network)
        assert engine.distance_lower_bound(1, 99) == float("inf")

    def test_invalidate_rebuilds_after_mutation(self):
        network = grid_network(1, 3)  # a path 1 - 2 - 3
        engine = TableEngine(network)
        before = engine.distance(1, 3)
        network.add_vertex(4, x=0.5, y=1.0)
        network.add_edge(1, 4, 0.1)
        network.add_edge(4, 3, 0.1)
        engine.invalidate()
        assert engine.distance(1, 3) == pytest.approx(min(before, 0.2))

    def test_build_counts_one_run_per_vertex(self):
        engine = TableEngine(grid_network(3, 3))
        assert engine.stats.dijkstra_runs == 9
        engine.distance(1, 9)
        assert engine.stats.dijkstra_runs == 9  # queries never re-run Dijkstra

    def test_vertex_cap_refuses_large_networks(self):
        with pytest.raises(ConfigurationError):
            TableEngine(grid_network(3, 3), max_vertices=4)

    def test_blocked_build_matches_unblocked(self):
        network = grid_network(4, 4, weight_jitter=0.3, seed=11)
        small_blocks = TableEngine(network, block_size=3)
        one_block = TableEngine(network, block_size=1024)
        vertices = network.vertices()
        for u in vertices[::3]:
            for v in vertices[::4]:
                assert small_blocks.distance(u, v) == one_block.distance(u, v)

    def test_invalid_block_size(self):
        with pytest.raises(ValueError):
            TableEngine(grid_network(2, 2), block_size=0)

    def test_pure_python_table(self, monkeypatch):
        monkeypatch.setattr(routing, "_csr_array", None)
        network = grid_network(3, 3, weight_jitter=0.2, seed=5)
        engine = TableEngine(network, block_size=2)
        assert engine.graph.matrix is None
        reference = DictDijkstraEngine(network)
        for source, target in [(1, 9), (4, 6), (2, 8)]:
            assert engine.distance(source, target) == pytest.approx(
                reference.distance(source, target)
            )


class TestDictEngine:
    def test_requires_network_or_oracle(self):
        with pytest.raises(ValueError):
            DictDijkstraEngine()

    def test_delegates_to_oracle(self):
        network = grid_network(3, 3)
        engine = DictDijkstraEngine(network)
        assert engine.network is network
        assert engine.distance(1, 9) == pytest.approx(shortest_path_distance(network, 1, 9))
        assert engine.distances_from(1)[9] == pytest.approx(engine.distance(1, 9))
        result = engine.path(1, 9)
        assert result.path[0] == 1 and result.path[-1] == 9
        engine.invalidate()
        assert engine.distance_lower_bound(1, 9) == 0.0
