"""Unit tests for the road-network graph."""

from __future__ import annotations

import pytest

from repro.errors import EdgeNotFoundError, InvalidNetworkError, VertexNotFoundError
from repro.roadnet.graph import Edge, RoadNetwork

from tests.routing_reference import is_connected


def build_triangle() -> RoadNetwork:
    network = RoadNetwork()
    for vertex, (x, y) in {1: (0, 0), 2: (1, 0), 3: (0, 1)}.items():
        network.add_vertex(vertex, x=x, y=y)
    network.add_edge(1, 2, 1.0)
    network.add_edge(2, 3, 2.0)
    network.add_edge(1, 3, 2.5)
    return network


class TestEdge:
    def test_positive_weight_required(self):
        with pytest.raises(InvalidNetworkError):
            Edge(1, 2, 0.0)

    def test_self_loop_rejected(self):
        with pytest.raises(InvalidNetworkError):
            Edge(1, 1, 1.0)


class TestConstruction:
    def test_from_edges_keeps_a_coordinate_only_vertex(self):
        network = RoadNetwork.from_edges([(1, 2, 1.0)], coordinates={1: (0, 0), 2: (1, 0), 9: (5, 5)})
        assert 9 in network
        assert not network.neighbours_view(9)
        assert tuple(network.coordinate(9)) == (5.0, 5.0)
        assert not is_connected(network)

    def test_from_edges_builds_vertices_and_coordinates(self):
        network = RoadNetwork.from_edges(
            [(1, 2, 1.0), (2, 3, 2.0)], coordinates={1: (0, 0), 2: (1, 0), 3: (2, 0)}
        )
        assert network.vertex_count == 3
        assert network.edge_count == 2
        assert network.coordinate(3).x == 2.0

    def test_add_edge_requires_vertices(self):
        network = RoadNetwork()
        network.add_vertex(1)
        with pytest.raises(VertexNotFoundError):
            network.add_edge(1, 2, 1.0)

    def test_add_edge_rejects_nonpositive_weight(self):
        network = RoadNetwork()
        network.add_vertex(1)
        network.add_vertex(2)
        with pytest.raises(InvalidNetworkError):
            network.add_edge(1, 2, -1.0)

    def test_add_edge_rejects_self_loop(self):
        network = RoadNetwork()
        network.add_vertex(1)
        with pytest.raises(InvalidNetworkError):
            network.add_edge(1, 1, 1.0)

    def test_re_adding_edge_overwrites_weight_without_double_count(self):
        network = build_triangle()
        network.add_edge(1, 2, 5.0)
        assert network.edge_count == 3
        assert network.edge_weight(1, 2) == 5.0
        assert network.edge_weight(2, 1) == 5.0

    def test_add_vertex_idempotent(self):
        network = RoadNetwork()
        network.add_vertex(1, x=0.0, y=0.0)
        network.add_vertex(1)
        assert network.vertex_count == 1
        assert network.coordinate(1).x == 0.0


class TestQueries:
    def test_bounding_box_needs_coordinates(self):
        with pytest.raises(InvalidNetworkError):
            RoadNetwork.from_edges([(1, 2, 1.0)]).bounding_box()

    def test_vertex_count_contains_iter(self):
        network = build_triangle()
        assert network.vertex_count == 3
        assert 2 in network
        assert 99 not in network
        assert sorted(network) == [1, 2, 3]

    def test_edges_are_yielded_once(self):
        network = build_triangle()
        edges = list(network.edges())
        assert len(edges) == 3
        assert all(edge.u < edge.v for edge in edges)

    def test_edge_weight_missing_edge(self):
        network = build_triangle()
        network.add_vertex(4)
        with pytest.raises(EdgeNotFoundError):
            network.edge_weight(1, 4)

    def test_coordinate_missing(self):
        network = RoadNetwork()
        network.add_vertex(1)
        with pytest.raises(InvalidNetworkError):
            network.coordinate(1)

    def test_unknown_vertex_raises(self):
        network = build_triangle()
        with pytest.raises(VertexNotFoundError):
            network.neighbours_view(42)

    def test_euclidean_distance(self):
        network = build_triangle()
        assert network.euclidean_distance(1, 2) == pytest.approx(1.0)

    def test_bounding_box(self):
        box = build_triangle().bounding_box()
        assert (box.min_x, box.min_y, box.max_x, box.max_y) == (0.0, 0.0, 1.0, 1.0)

    def test_bounding_box_is_the_tightest_box(self):
        network = RoadNetwork()
        for vertex, (x, y) in {4: (2, 1), 1: (0, 0), 7: (1, 3)}.items():
            network.add_vertex(vertex, x=x, y=y)
        network.add_vertex(9)  # no coordinate: not in the box
        box = network.bounding_box()
        assert (box.min_x, box.min_y, box.max_x, box.max_y) == (0.0, 0.0, 2.0, 3.0)


class TestStructure:
    def test_validate_requires_coordinates(self):
        network = RoadNetwork()
        network.add_vertex(1)
        with pytest.raises(InvalidNetworkError):
            network.validate(require_coordinates=True)

    def test_validate_passes_for_good_network(self):
        build_triangle().validate(require_coordinates=True)
