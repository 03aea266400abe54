"""Unit and property tests for the A* search."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DisconnectedError, VertexNotFoundError
from repro.roadnet.generators import figure1_network, grid_network, ring_radial_network

from tests.routing_reference import astar_path, path_length, shortest_path_distance


class TestAstar:
    def test_matches_dijkstra_on_figure1(self):
        network = figure1_network()
        for source in (1, 5, 13):
            for target in (17, 10, 2):
                expected = shortest_path_distance(network, source, target)
                result = astar_path(network, source, target)
                assert result.distance == pytest.approx(expected)
                assert path_length(network, result.path) == pytest.approx(expected)

    def test_same_vertex(self):
        network = figure1_network()
        result = astar_path(network, 4, 4)
        assert result.distance == 0.0
        assert result.path == (4,)

    def test_path_endpoints(self):
        network = grid_network(6, 6, weight_jitter=0.3, seed=2)
        result = astar_path(network, 1, 36)
        assert result.path[0] == 1 and result.path[-1] == 36

    def test_unknown_vertex(self):
        network = figure1_network()
        with pytest.raises(VertexNotFoundError):
            astar_path(network, 1, 999)

    def test_disconnected(self):
        network = figure1_network()
        network.add_vertex(999, x=50.0, y=50.0)
        with pytest.raises(DisconnectedError):
            astar_path(network, 1, 999)

    def test_explicit_zero_heuristic_reduces_to_dijkstra(self):
        network = grid_network(5, 5, weight_jitter=0.4, seed=3)
        expected = shortest_path_distance(network, 1, 25)
        result = astar_path(network, 1, 25, heuristic={})
        assert result.distance == pytest.approx(expected)

    def test_ring_radial_network(self):
        network = ring_radial_network(rings=3, spokes=10)
        for target in (5, 17, 25):
            assert astar_path(network, 1, target).distance == pytest.approx(
                shortest_path_distance(network, 1, target)
            )


@given(
    rows=st.integers(min_value=2, max_value=7),
    columns=st.integers(min_value=2, max_value=7),
    jitter=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=10_000),
    pair_seed=st.integers(min_value=0, max_value=1_000),
)
@settings(max_examples=40, deadline=None)
def test_astar_equals_dijkstra_property(rows, columns, jitter, seed, pair_seed):
    """On generator networks (weights >= Euclidean) A* is exact for any pair."""
    import random

    network = grid_network(rows, columns, weight_jitter=jitter, seed=seed)
    rng = random.Random(pair_seed)
    vertices = network.vertices()
    source, target = rng.choice(vertices), rng.choice(vertices)
    expected = shortest_path_distance(network, source, target)
    result = astar_path(network, source, target)
    assert result.distance == pytest.approx(expected)
    assert path_length(network, result.path) == pytest.approx(expected)
