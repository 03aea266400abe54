"""Unit tests for the shortest-path routines and the distance oracle."""

from __future__ import annotations

import pytest

from repro.errors import DisconnectedError, VertexNotFoundError
from repro.roadnet.generators import figure1_network, grid_network
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.shortest_path import DistanceOracle, dijkstra_all, shortest_path

from tests.routing_reference import (
    bidirectional_dijkstra,
    bounded_dijkstra,
    path_length,
    shortest_path_distance,
)


@pytest.fixture
def diamond() -> RoadNetwork:
    """A diamond where the indirect route is shorter than the direct edge."""
    return RoadNetwork.from_edges(
        [(1, 2, 1.0), (2, 4, 1.0), (1, 3, 2.0), (3, 4, 2.0), (1, 4, 5.0)],
        coordinates={1: (0, 0), 2: (1, 1), 3: (1, -1), 4: (2, 0)},
    )


class TestPointToPoint:
    def test_distance_prefers_indirect_route(self, diamond: RoadNetwork):
        assert shortest_path_distance(diamond, 1, 4) == pytest.approx(2.0)

    def test_distance_to_self_is_zero(self, diamond: RoadNetwork):
        assert shortest_path_distance(diamond, 3, 3) == 0.0

    def test_path_reconstruction(self, diamond: RoadNetwork):
        result = shortest_path(diamond, 1, 4)
        assert result.path == (1, 2, 4)
        assert result.distance == pytest.approx(2.0)
        assert result.hop_count == 2

    def test_path_length_matches_distance(self, diamond: RoadNetwork):
        result = shortest_path(diamond, 1, 4)
        assert path_length(diamond, result.path) == pytest.approx(result.distance)

    def test_unknown_vertex(self, diamond: RoadNetwork):
        with pytest.raises(VertexNotFoundError):
            shortest_path_distance(diamond, 1, 99)

    def test_disconnected(self, diamond: RoadNetwork):
        diamond.add_vertex(99)
        with pytest.raises(DisconnectedError):
            shortest_path_distance(diamond, 1, 99)


class TestBidirectional:
    def test_matches_unidirectional_on_grid(self):
        network = grid_network(6, 6, weight_jitter=0.3, seed=11)
        for source, target in [(1, 36), (7, 30), (3, 33), (14, 14)]:
            expected = shortest_path_distance(network, source, target)
            result = bidirectional_dijkstra(network, source, target)
            assert result.distance == pytest.approx(expected)
            assert path_length(network, result.path) == pytest.approx(expected)

    def test_path_endpoints(self):
        network = figure1_network()
        result = bidirectional_dijkstra(network, 1, 17)
        assert result.path[0] == 1
        assert result.path[-1] == 17

    def test_same_vertex(self, ):
        network = figure1_network()
        result = bidirectional_dijkstra(network, 5, 5)
        assert result.distance == 0.0
        assert result.path == (5,)

    def test_disconnected(self):
        network = figure1_network()
        network.add_vertex(99)
        with pytest.raises(DisconnectedError):
            bidirectional_dijkstra(network, 1, 99)


class TestExpansions:
    def test_bounded_dijkstra_respects_radius(self, diamond: RoadNetwork):
        reachable = bounded_dijkstra(diamond, 1, radius=1.5)
        assert set(reachable) == {1, 2}
        assert reachable[2] == pytest.approx(1.0)

    def test_bounded_dijkstra_negative_radius(self, diamond: RoadNetwork):
        with pytest.raises(ValueError):
            bounded_dijkstra(diamond, 1, radius=-1.0)

    def test_dijkstra_all_covers_component(self, diamond: RoadNetwork):
        distances = dijkstra_all(diamond, 1)
        assert set(distances) == {1, 2, 3, 4}
        assert distances[4] == pytest.approx(2.0)


class TestDistanceOracle:
    def test_matches_dijkstra(self):
        network = grid_network(5, 5, weight_jitter=0.4, seed=3)
        oracle = DistanceOracle(network)
        for source, target in [(1, 25), (13, 2), (7, 19)]:
            assert oracle.distance(source, target) == pytest.approx(
                shortest_path_distance(network, source, target)
            )

    def test_caches_single_source_trees(self):
        network = grid_network(4, 4)
        oracle = DistanceOracle(network)
        oracle.distance(1, 16)
        oracle.distance(1, 8)
        oracle.distance(1, 5)
        assert oracle.stats.dijkstra_runs == 1
        assert oracle.stats.cache_hits >= 2

    def test_symmetric_reuse(self):
        network = grid_network(4, 4)
        oracle = DistanceOracle(network)
        first = oracle.distance(1, 16)
        second = oracle.distance(16, 1)
        assert first == pytest.approx(second)
        assert oracle.stats.dijkstra_runs == 1

    def test_eviction_bound(self):
        network = grid_network(4, 4)
        oracle = DistanceOracle(network, max_cached_sources=2)
        for source in (1, 2, 3, 4):
            oracle.distances_from(source)
        assert oracle.stats.dijkstra_runs == 4
        assert len(oracle._trees) <= 2  # noqa: SLF001 - asserting the eviction policy

    def test_invalidate(self):
        network = grid_network(3, 3)
        oracle = DistanceOracle(network)
        oracle.distance(1, 9)
        oracle.invalidate()
        oracle.distance(1, 9)
        assert oracle.stats.dijkstra_runs == 2

    def test_disconnected_raises(self):
        network = grid_network(3, 3)
        network.add_vertex(99)
        oracle = DistanceOracle(network)
        with pytest.raises(DisconnectedError):
            oracle.distance(1, 99)

    def test_path_delegates(self):
        network = grid_network(3, 3)
        oracle = DistanceOracle(network)
        result = oracle.path(1, 9)
        assert result.path[0] == 1 and result.path[-1] == 9

    def test_invalid_cache_size(self):
        with pytest.raises(ValueError):
            DistanceOracle(grid_network(2, 2), max_cached_sources=0)
