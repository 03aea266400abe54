"""Unit tests for constant-speed vehicle motion."""

from __future__ import annotations

import random

import pytest

from repro.errors import EdgeNotFoundError, SimulationError
from repro.roadnet.generators import figure1_network, grid_network
from repro.roadnet.routing import make_engine
from repro.vehicles.movement import MotionState, drive_route, plan_route, step_along_route

from tests.movement_reference import random_idle_route


@pytest.fixture
def network():
    return figure1_network()


@pytest.fixture
def engine(network):
    return make_engine(network, "csr")


class TestPlanRoute:
    def test_route_follows_shortest_path(self, network, engine):
        state = plan_route(engine, 1, 16)
        assert state.location == 1
        assert state.route[-1] == 16
        assert state.offset == 0.0

    def test_same_source_target(self, network, engine):
        state = plan_route(engine, 5, 5)
        assert not state.has_route
        assert state.next_vertex is None

    def test_remaining_distance(self, network, engine):
        state = plan_route(engine, 1, 2)
        assert state.remaining_distance(network) == pytest.approx(8.0)
        assert plan_route(engine, 3, 3).remaining_distance(network) == 0.0


class TestRandomIdleRoute:
    def test_route_uses_adjacent_vertices(self, network):
        rng = random.Random(1)
        state = random_idle_route(network, 5, rng, hops=3)
        previous = 5
        for vertex in state.route:
            assert network.has_edge(previous, vertex)
            previous = vertex

    def test_invalid_hops(self, network):
        with pytest.raises(SimulationError):
            random_idle_route(network, 5, random.Random(1), hops=0)

    def test_isolated_vertex_gives_empty_route(self):
        network = grid_network(2, 2)
        network.add_vertex(99, x=5.0, y=5.0)
        state = random_idle_route(network, 99, random.Random(1))
        assert not state.has_route


class TestStepAlongRoute:
    def test_exact_arrival(self, network, engine):
        state = plan_route(engine, 1, 2)
        new_state, travelled = step_along_route(network, state, 8.0)
        assert travelled == pytest.approx(8.0)
        assert new_state.location == 2
        assert not new_state.has_route

    def test_partial_edge_progress(self, network, engine):
        state = plan_route(engine, 1, 2)
        new_state, travelled = step_along_route(network, state, 3.0)
        assert travelled == pytest.approx(3.0)
        assert new_state.location == 1
        assert new_state.offset == pytest.approx(3.0)
        assert new_state.next_vertex == 2

    def test_multi_edge_progress(self, network, engine):
        state = plan_route(engine, 1, 12)  # 1 -> 2 -> 12, lengths 8 and 6
        new_state, travelled = step_along_route(network, state, 10.0)
        assert travelled == pytest.approx(10.0)
        assert new_state.location == 2
        assert new_state.route == (12,)
        assert new_state.offset == pytest.approx(2.0)

    def test_budget_beyond_route_end(self, network, engine):
        state = plan_route(engine, 1, 2)
        new_state, travelled = step_along_route(network, state, 100.0)
        assert travelled == pytest.approx(8.0)
        assert new_state.location == 2
        assert not new_state.has_route

    def test_zero_budget(self, network, engine):
        state = plan_route(engine, 1, 2)
        new_state, travelled = step_along_route(network, state, 0.0)
        assert travelled == 0.0
        assert new_state == state

    def test_negative_budget_rejected(self, network, engine):
        state = plan_route(engine, 1, 2)
        with pytest.raises(SimulationError):
            step_along_route(network, state, -1.0)

    def test_resuming_partial_progress(self, network, engine):
        state = plan_route(engine, 1, 2)
        state, _ = step_along_route(network, state, 3.0)
        state, travelled = step_along_route(network, state, 5.0)
        assert travelled == pytest.approx(5.0)
        assert state.location == 2
        assert not state.has_route

    def test_total_distance_conserved(self, network, engine):
        state = plan_route(engine, 1, 17)
        expected = state.remaining_distance(network)
        total = 0.0
        for _ in range(100):
            state, travelled = step_along_route(network, state, 1.7)
            total += travelled
            if not state.has_route:
                break
        assert total == pytest.approx(expected)
        assert state.location == 17

    def test_inconsistent_offset_detected(self, network):
        broken = MotionState(location=1, route=(2,), offset=100.0)
        with pytest.raises(SimulationError):
            step_along_route(network, broken, 1.0)


class TestDriveRoute:
    def test_steps_by_index_from_a_mid_edge_start(self, network, engine):
        route = plan_route(engine, 1, 12).route  # 1 -> 2 -> 12, lengths 8 and 6
        assert drive_route(network, 1, route, 0, 3.0, 7.0) == (2, 1, 2.0, 7.0)
        assert drive_route(network, 2, route, 1, 2.0, 100.0) == (12, 2, 0.0, 4.0)
        assert drive_route(network, 12, route, 2, 0.0, 5.0) == (12, 2, 0.0, 0.0)

    def test_sums_the_driven_distance_edge_by_edge(self):
        network = grid_network(1, 4, weight_jitter=0.9, seed=4)
        lengths = [network.edge_weight(v, v + 1) for v in (1, 2, 3)]
        travelled = drive_route(network, 1, (2, 3, 4), 0, 0.0, sum(lengths) + 1.0)[3]
        expected = 0.0
        for length in lengths:
            expected += length
        assert travelled == expected

    def test_missing_edge_is_reported(self, network):
        with pytest.raises(EdgeNotFoundError):
            drive_route(network, 1, (16,), 0, 0.0, 1.0)
