"""Unit tests for the contraction-hierarchy routing backend."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, DisconnectedError, VertexNotFoundError
from repro.roadnet.generators import (
    arterial_grid_network,
    figure1_network,
    grid_network,
)
from repro.roadnet.routing import (
    ROUTING_BACKENDS,
    CHEngine,
    ContractionHierarchy,
    CSREngine,
    CSRGraph,
    make_engine,
)

from tests.routing_reference import path_length, shortest_path_distance


class TestContractionHierarchy:
    def test_every_vertex_gets_a_rank(self):
        graph = CSRGraph(grid_network(4, 4, weight_jitter=0.3, seed=5))
        hierarchy = ContractionHierarchy.build(graph)
        assert sorted(hierarchy.rank) == list(range(len(graph)))
        assert [hierarchy.rank[v] for v in hierarchy.order] == list(range(len(graph)))

    def test_upward_edges_point_upward(self):
        graph = CSRGraph(grid_network(5, 5, weight_jitter=0.4, seed=3))
        hierarchy = ContractionHierarchy.build(graph)
        for v in range(len(graph)):
            for k in range(hierarchy.up_indptr[v], hierarchy.up_indptr[v + 1]):
                assert hierarchy.rank[hierarchy.up_indices[k]] > hierarchy.rank[v]

    def test_shortcut_middles_rank_below_endpoints(self):
        graph = CSRGraph(grid_network(6, 6, weight_jitter=0.3, seed=9))
        hierarchy = ContractionHierarchy.build(graph)
        for v in range(len(graph)):
            for k in range(hierarchy.up_indptr[v], hierarchy.up_indptr[v + 1]):
                mid = hierarchy.up_mids[k]
                if mid >= 0:
                    assert hierarchy.rank[mid] < hierarchy.rank[v]
                    assert hierarchy.rank[mid] < hierarchy.rank[hierarchy.up_indices[k]]

    def test_distance_of_identical_indices_is_zero(self):
        graph = CSRGraph(grid_network(3, 3))
        hierarchy = ContractionHierarchy.build(graph)
        assert hierarchy.distance(4, 4) == 0.0

    def test_disconnected_indices_return_none(self):
        network = grid_network(3, 3)
        network.add_vertex(99)
        graph = CSRGraph(network)
        hierarchy = ContractionHierarchy.build(graph)
        assert hierarchy.distance(graph.index(1), graph.index(99)) is None

    def test_array_round_trip(self):
        graph = CSRGraph(grid_network(5, 5, weight_jitter=0.3, seed=7))
        hierarchy = ContractionHierarchy.build(graph)
        arrays = hierarchy.to_arrays()
        clone = ContractionHierarchy.from_arrays(
            arrays["rank"],
            arrays["up_indptr"],
            arrays["up_indices"],
            arrays["up_weights"],
            arrays["up_mids"],
            arrays["shortcut_count"],
        )
        assert clone.rank == hierarchy.rank
        assert clone.order == hierarchy.order
        assert clone.up_weights == hierarchy.up_weights
        assert clone.shortcut_count == hierarchy.shortcut_count
        for s in range(0, len(graph), 3):
            for t in range(0, len(graph), 4):
                assert clone.distance(s, t) == hierarchy.distance(s, t)


class TestCHEngine:
    def test_distance_matches_dijkstra(self):
        network = grid_network(5, 5, weight_jitter=0.4, seed=3)
        engine = CHEngine(network)
        for source, target in [(1, 25), (13, 2), (7, 19)]:
            assert engine.distance(source, target) == pytest.approx(
                shortest_path_distance(network, source, target)
            )

    def test_distance_bit_identical_to_csr(self):
        network = grid_network(6, 6, weight_jitter=0.35, seed=11)
        csr = CSREngine(network, max_cached_sources=1)
        ch = CHEngine(network, max_cached_sources=1)
        vertices = network.vertices()
        for u in vertices[::3]:
            for v in vertices[::2]:
                assert ch.distance(u, v) == csr.distance(u, v)

    def test_distance_is_plain_float(self):
        engine = CHEngine(grid_network(3, 3))
        assert type(engine.distance(1, 9)) is float

    def test_point_queries_count_bidirectional_runs(self):
        engine = CHEngine(grid_network(4, 4))
        engine.distance(1, 16)
        engine.distance(2, 15)
        assert engine.stats.queries == 2
        assert engine.stats.bidirectional_runs == 2
        assert engine.stats.dijkstra_runs == 0  # no tree was ever grown

    def test_cached_tree_answers_point_queries(self):
        engine = CHEngine(grid_network(4, 4))
        engine.distances_from(1)  # roots and caches the tree at vertex 1
        engine.distance(1, 16)
        assert engine.stats.cache_hits == 1
        assert engine.stats.bidirectional_runs == 0

    def test_trees_are_inherited_csr_trees(self):
        network = grid_network(4, 4, weight_jitter=0.25, seed=9)
        ch_tree = CHEngine(network).distances_from(3)
        csr_tree = CSREngine(network).distances_from(3)
        assert {v: ch_tree[v] for v in ch_tree} == {v: csr_tree[v] for v in csr_tree}

    def test_disconnected_raises(self):
        network = grid_network(3, 3)
        network.add_vertex(99)
        engine = CHEngine(network)
        with pytest.raises(DisconnectedError):
            engine.distance(1, 99)

    def test_unknown_vertex_raises(self):
        engine = CHEngine(grid_network(2, 2))
        with pytest.raises(VertexNotFoundError):
            engine.distance(1, 999)

    def test_path_is_valid_and_optimal(self):
        network = grid_network(4, 4, weight_jitter=0.3, seed=9)
        engine = CHEngine(network)
        result = engine.path(1, 16)
        assert result.path[0] == 1 and result.path[-1] == 16
        assert path_length(network, result.path) == pytest.approx(result.distance)
        assert result.distance == pytest.approx(shortest_path_distance(network, 1, 16))

    def test_invalidate_recontracts_after_mutation(self):
        network = grid_network(1, 3)  # a path 1 - 2 - 3
        engine = CHEngine(network)
        before = engine.distance(1, 3)
        network.add_vertex(4, x=0.5, y=1.0)
        network.add_edge(1, 4, 0.1)
        network.add_edge(4, 3, 0.1)
        engine.invalidate()
        assert engine.distance(1, 3) == pytest.approx(min(before, 0.2))

    def test_figure1_worked_example_distances(self):
        network = figure1_network()
        engine = CHEngine(network)
        reference = CSREngine(network)
        for u in network.vertices():
            for v in network.vertices():
                assert engine.distance(u, v) == reference.distance(u, v)

    def test_pure_python_fallback_matches(self, monkeypatch):
        from repro.roadnet import routing

        network = grid_network(4, 4, weight_jitter=0.25, seed=11)
        reference = CHEngine(network)
        monkeypatch.setattr(routing, "_csr_array", None)
        fallback = CHEngine(network)
        assert fallback.graph.matrix is None
        for source, target in [(1, 16), (5, 12), (3, 14)]:
            assert fallback.distance(source, target) == pytest.approx(
                reference.distance(source, target)
            )

    def test_make_engine_builds_ch(self):
        engine = make_engine(grid_network(3, 3), "ch")
        assert isinstance(engine, CHEngine)
        assert engine.backend == "ch"
        assert "ch" in ROUTING_BACKENDS

    def test_dense_contraction_branch_stays_bit_identical(self):
        """A hub of degree 49 forces the ``CH_DENSE_DEGREE`` contraction
        branch (direct-edge / shared-neighbour witnesses instead of Dijkstra
        searches) -- every vertex is planned during the initial priority
        build, so an initial degree above the threshold guarantees the
        branch runs.  Extra shortcuts are allowed; wrong answers are not."""
        from repro.roadnet.routing import CH_DENSE_DEGREE

        network = grid_network(7, 7, weight_jitter=0.3, seed=13)
        hub = 999
        network.add_vertex(hub, x=3.0, y=3.0)
        for index, vertex in enumerate(network.vertices()):
            if vertex != hub:
                network.add_edge(hub, vertex, 2.0 + index * 0.013)
        assert network.degree(hub) > CH_DENSE_DEGREE
        csr = CSREngine(network, max_cached_sources=1)
        ch = CHEngine(network, max_cached_sources=1)
        vertices = network.vertices()
        for u in vertices[::3] + [hub]:
            for v in vertices[::2] + [hub]:
                assert ch.distance(u, v) == csr.distance(u, v)


class TestArterialGridNetwork:
    def test_size_and_connectivity(self):
        network = arterial_grid_network(8, 9, weight_jitter=0.2, seed=3)
        assert network.vertex_count == 72
        assert network.is_connected()
        assert network.has_coordinates()

    def test_arterial_edges_stay_fast_locals_slow(self):
        network = arterial_grid_network(
            8, 8, arterial_every=4, local_factor=3.0, seed=None
        )
        # no jitter: arterial edges weigh exactly 1.0, local edges 3.0
        weights = {round(edge.weight, 9) for edge in network.edges()}
        assert weights == {1.0, 3.0}

    def test_degenerates_to_plain_grid(self):
        plain = grid_network(4, 5, weight_jitter=0.3, seed=7)
        arterial = arterial_grid_network(
            4, 5, weight_jitter=0.3, arterial_every=1, seed=7
        )
        assert {e.key(): e.weight for e in plain.edges()} == {
            e.key(): e.weight for e in arterial.edges()
        }

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            arterial_grid_network(3, 3, arterial_every=0)
        with pytest.raises(ConfigurationError):
            arterial_grid_network(3, 3, local_factor=0.5)
