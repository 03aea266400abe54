"""Unit tests for the synthetic network generators and the Fig. 1 reconstruction."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.roadnet.generators import (
    FIGURE1_VEHICLE_POSITIONS,
    figure1_network,
    grid_network,
    random_geometric_network,
    ring_radial_network,
)

from tests.routing_reference import shortest_path_distance


class TestGridNetwork:
    def test_size(self):
        network = grid_network(4, 5)
        assert network.vertex_count == 20
        assert network.edge_count == 4 * 4 + 3 * 5  # horizontal + vertical

    def test_connected_with_coordinates(self):
        network = grid_network(6, 6, weight_jitter=0.5, seed=1)
        network.validate(require_coordinates=True, require_connected=True)

    def test_deterministic_for_seed(self):
        a = grid_network(5, 5, weight_jitter=0.5, seed=42)
        b = grid_network(5, 5, weight_jitter=0.5, seed=42)
        assert [e.weight for e in a.edges()] == [e.weight for e in b.edges()]

    def test_jitter_bounds(self):
        network = grid_network(5, 5, spacing=2.0, weight_jitter=0.5, seed=9)
        for edge in network.edges():
            assert 2.0 <= edge.weight <= 3.0 + 1e-9

    def test_weights_at_least_euclidean(self):
        network = grid_network(5, 5, weight_jitter=0.5, seed=9)
        for edge in network.edges():
            assert edge.weight >= network.euclidean_distance(edge.u, edge.v) - 1e-9

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            grid_network(0, 5)
        with pytest.raises(ConfigurationError):
            grid_network(5, 5, spacing=0)
        with pytest.raises(ConfigurationError):
            grid_network(5, 5, weight_jitter=-0.1)


class TestRandomGeometricNetwork:
    def test_connected(self):
        network = random_geometric_network(60, radius=0.2, seed=3)
        assert network.vertex_count == 60
        assert network.is_connected()

    def test_deterministic(self):
        a = random_geometric_network(30, radius=0.25, seed=5)
        b = random_geometric_network(30, radius=0.25, seed=5)
        assert a.edge_count == b.edge_count

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            random_geometric_network(0)
        with pytest.raises(ConfigurationError):
            random_geometric_network(10, radius=0)


class TestRingRadialNetwork:
    def test_size(self):
        network = ring_radial_network(rings=3, spokes=8)
        assert network.vertex_count == 1 + 3 * 8
        assert network.is_connected()

    def test_coordinates_present(self):
        network = ring_radial_network(rings=2, spokes=6)
        network.validate(require_coordinates=True, require_connected=True)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            ring_radial_network(rings=0, spokes=6)
        with pytest.raises(ConfigurationError):
            ring_radial_network(rings=2, spokes=2)


class TestFigure1Network:
    """The reconstruction must satisfy every quantitative statement of the paper."""

    def test_seventeen_vertices_connected(self):
        network = figure1_network()
        assert network.vertex_count == 17
        network.validate(require_coordinates=True, require_connected=True)

    def test_vehicle_positions_exist(self):
        network = figure1_network()
        for vertex in FIGURE1_VEHICLE_POSITIONS.values():
            assert vertex in network

    def test_pickup_distance_of_c1_is_14(self):
        network = figure1_network()
        assert shortest_path_distance(network, 1, 2) + shortest_path_distance(network, 2, 12) == pytest.approx(14.0)

    def test_pickup_distance_of_c2_is_8(self):
        network = figure1_network()
        assert shortest_path_distance(network, 13, 12) == pytest.approx(8.0)

    def test_direct_distance_v12_v17_is_7(self):
        network = figure1_network()
        assert shortest_path_distance(network, 12, 17) == pytest.approx(7.0)

    def test_added_distance_for_c1_is_3(self):
        network = figure1_network()
        added = (
            shortest_path_distance(network, 2, 12)
            + shortest_path_distance(network, 12, 16)
            + shortest_path_distance(network, 16, 17)
            - shortest_path_distance(network, 2, 16)
        )
        assert added == pytest.approx(3.0)

    def test_weights_at_least_euclidean(self):
        network = figure1_network()
        for edge in network.edges():
            assert edge.weight >= network.euclidean_distance(edge.u, edge.v) - 1e-9
