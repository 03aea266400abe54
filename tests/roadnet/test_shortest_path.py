"""Unit tests for the shortest-path routines."""

from __future__ import annotations

import pytest

from repro.errors import DisconnectedError, VertexNotFoundError
from repro.roadnet.generators import figure1_network, grid_network
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.routing import CSRGraph
from repro.roadnet.shortest_path import shortest_path

from tests.routing_reference import (
    bidirectional_dijkstra,
    bounded_dijkstra,
    dijkstra_all,
    path_length,
    shortest_path_distance,
)


def _walk(network: RoadNetwork, source, target):
    """``shortest_path`` over the source's tree row on the network's CSR graph."""
    graph = CSRGraph(network)
    return shortest_path(graph, source, target, graph.tree(graph.index(source)))


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
        result = _walk(diamond, 1, 4)
        assert result.path == (1, 2, 4)
        assert result.distance == pytest.approx(2.0)

    def test_path_length_matches_distance(self, diamond: RoadNetwork):
        result = _walk(diamond, 1, 4)
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
