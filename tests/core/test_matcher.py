"""Unit tests for the shared matcher machinery and its lower bounds."""

from __future__ import annotations

import pytest

from repro.core.config import SystemConfig
from repro.core.dual_side import DualSideSearchMatcher
from repro.core.matcher import MatcherStatistics, added_distance_lower_bound
from repro.core.naive import NaiveKineticTreeMatcher
from repro.core.single_side import SingleSideSearchMatcher
from repro.model.request import Request
from repro.roadnet.generators import figure1_network, grid_network
from repro.service.api import build_system
from repro.roadnet.shortest_path import DistanceOracle
from repro.vehicles.schedule import schedule_distance
from repro.vehicles.vehicle import Vehicle

from tests.conftest import assign_request, build_fleet


class TestMatcherStatistics:
    def test_reset(self):
        stats = MatcherStatistics()
        stats.requests_answered = 4
        stats.insertion.candidates_enumerated = 10
        stats.reset()
        assert stats.requests_answered == 0
        assert stats.insertion.candidates_enumerated == 0

    def test_as_dict_keys(self):
        keys = MatcherStatistics().as_dict()
        assert "vehicles_evaluated" in keys
        assert "vehicles_beyond_cap" in keys
        assert "insertions_feasible" in keys


class TestVehiclesBeyondCap:
    """``vehicles_beyond_cap`` counts the pruned vehicles whose pick-up
    bound exceeds ``max_pickup_distance``, on a unit-weight line where every
    bound is known: vertices 1..6, cells {1, 2}, {3, 4}, {5, 6}."""

    @staticmethod
    def _fleet():
        network = grid_network(1, 6)
        fleet = build_fleet(network, [4, 3, 3], grid_rows=1, grid_columns=3)
        fleet.get("c2").set_location(3, 2.0)  # 2.0 short of vertex 3
        return fleet

    @pytest.mark.parametrize("matcher_class", [SingleSideSearchMatcher, DualSideSearchMatcher])
    def test_counts_the_vehicles_beyond_the_cap(self, matcher_class):
        fleet = self._fleet()
        config = SystemConfig(max_waiting=6.0, service_constraint=0.5, max_pickup_distance=2.5)
        matcher = matcher_class(fleet, config=config)
        probe = Request(start=1, destination=3, riders=1, max_waiting=6.0,
                        service_constraint=0.5, request_id="q")
        matcher.match(probe)
        stats = matcher.statistics
        # from vertex 1: c1 is 3.0 away and c2 2.0 + 2.0, beyond 2.5; c3 is 2.0
        assert stats.vehicles_considered == 3
        assert stats.vehicles_beyond_cap == 2
        assert stats.vehicles_pruned == 2
        assert stats.vehicles_evaluated == 1
        assert stats.as_dict()["vehicles_beyond_cap"] == 2.0
        stats.reset()
        assert stats.vehicles_beyond_cap == 0

    def test_no_cap_prunes_nothing_at_the_cap(self):
        fleet = self._fleet()
        matcher = SingleSideSearchMatcher(fleet, config=SystemConfig(max_waiting=6.0))
        matcher.match(Request(start=1, destination=3, riders=1, max_waiting=6.0,
                              service_constraint=0.5, request_id="q"))
        assert matcher.statistics.vehicles_beyond_cap == 0

    def test_service_panel_shows_it(self):
        service = build_system(vehicles=6, seed=3)
        vertices = service.fleet.grid.network.vertices()
        service.book_request(Request(start=vertices[0], destination=vertices[-1], riders=1,
                                     max_waiting=service.config.max_waiting,
                                     service_constraint=service.config.service_constraint,
                                     request_id="panel"))
        panel = service.statistics()
        assert panel["matcher_vehicles_beyond_cap"] == float(
            service.matcher.statistics.vehicles_beyond_cap
        )


class TestVerifyVehicle:
    def test_per_vehicle_options_are_skyline(self, figure1_fleet, paper_config):
        matcher = NaiveKineticTreeMatcher(figure1_fleet, config=paper_config)
        request = Request(start=12, destination=17, riders=2, max_waiting=50.0, service_constraint=3.0)
        context = matcher.make_context(request)
        options = matcher._verify_vehicle(figure1_fleet.get("c1"), context)  # noqa: SLF001
        for first in options:
            for second in options:
                if first is not second:
                    assert not first.dominates(second)

    def test_max_pickup_distance_filters_options(self, figure1_fleet):
        config = SystemConfig(max_waiting=5.0, service_constraint=0.2, max_pickup_distance=10.0)
        matcher = NaiveKineticTreeMatcher(figure1_fleet, config=config)
        request = Request(start=12, destination=17, riders=2, max_waiting=5.0, service_constraint=0.2)
        options = matcher.match(request)
        # c1's pick-up distance is 14 > 10, so only c2 remains.
        assert [option.vehicle_id for option in options] == ["c2"]

    def test_match_counts_statistics(self, figure1_fleet, paper_config, paper_request_r2):
        matcher = NaiveKineticTreeMatcher(figure1_fleet, config=paper_config)
        matcher.match(paper_request_r2)
        assert matcher.statistics.requests_answered == 1
        assert matcher.statistics.vehicles_evaluated == 2
        assert matcher.statistics.options_returned == 2


class TestLowerBounds:
    def test_pickup_lower_bound_admissible(self, figure1_fleet, paper_request_r2, paper_config):
        matcher = SingleSideSearchMatcher(figure1_fleet, config=paper_config)
        oracle = figure1_fleet.oracle
        context = matcher.make_context(paper_request_r2)
        for vehicle in figure1_fleet.vehicles():
            bound = matcher._pickup_lower_bound(vehicle, context)  # noqa: SLF001
            exact = oracle.distance(vehicle.location, paper_request_r2.start) + vehicle.offset
            assert bound <= exact + 1e-9

    def test_price_lower_bound_admissible(self, figure1_fleet, paper_request_r2, paper_config):
        matcher = SingleSideSearchMatcher(figure1_fleet, config=paper_config)
        context = matcher.make_context(paper_request_r2)
        reference = NaiveKineticTreeMatcher(figure1_fleet, config=paper_config)
        options = {o.vehicle_id: o for o in reference.match(paper_request_r2)}
        for vehicle in figure1_fleet.vehicles():
            bound = matcher._price_lower_bound(vehicle, context)  # noqa: SLF001
            if vehicle.vehicle_id in options:
                assert bound <= options[vehicle.vehicle_id].price + 1e-9


class TestAddedDistanceLowerBound:
    def test_empty_vehicle_uses_pickup_bound(self):
        network = figure1_network()
        fleet = build_fleet(network, [13])
        vehicle = fleet.get("c1")
        bound = added_distance_lower_bound(vehicle, 12, fleet.grid, fleet.oracle)
        assert bound <= fleet.oracle.distance(13, 12) + 1e-9

    def test_bound_is_admissible_against_actual_insertion(self):
        network = figure1_network()
        fleet = build_fleet(network, [1])
        r1 = Request(start=2, destination=16, riders=2, max_waiting=5.0, service_constraint=0.2, request_id="R1")
        assign_request(fleet, "c1", r1, planned_pickup_distance=8.0)
        vehicle = fleet.get("c1")
        oracle = fleet.oracle

        for probe_vertex in (12, 17, 5, 9):
            bound = added_distance_lower_bound(vehicle, probe_vertex, fleet.grid, oracle)
            # actual minimal added distance of inserting the single stop
            base = vehicle.kinetic_tree.schedules()[0]
            base_total = schedule_distance(vehicle.location, base, oracle.distance)
            best_added = float("inf")
            vertices = [vehicle.location] + [stop.vertex for stop in base]
            for index in range(len(vertices) - 1):
                added = (
                    oracle.distance(vertices[index], probe_vertex)
                    + oracle.distance(probe_vertex, vertices[index + 1])
                    - oracle.distance(vertices[index], vertices[index + 1])
                )
                best_added = min(best_added, added)
            best_added = min(best_added, oracle.distance(vertices[-1], probe_vertex))
            assert bound <= best_added + 1e-9

    def test_each_leg_bound_is_asked_once(self):
        """A stop's outgoing bound is the next position's incoming one: a
        branch of ``n`` stops costs ``n + 1`` bound calls, not ``2n + 1``, and
        the value is the one the two-calls-a-position form computes."""
        network = figure1_network()
        fleet = build_fleet(network, [1])
        r1 = Request(start=2, destination=16, riders=2, max_waiting=5.0, service_constraint=0.2, request_id="R1")
        assign_request(fleet, "c1", r1, planned_pickup_distance=8.0)
        vehicle = fleet.get("c1")
        grid, distance = fleet.grid.distance_lower_bound, fleet.oracle.distance
        asked = []

        def bound(u, v):
            asked.append(frozenset((u, v)))
            return grid(u, v)

        (branch,) = vehicle.kinetic_tree.schedules()
        vertices = [vehicle.location] + [stop.vertex for stop in branch]
        for probe_vertex in (12, 17, 5, 9):
            del asked[:]
            got = added_distance_lower_bound(vehicle, probe_vertex, fleet.grid, fleet.oracle, bound=bound)
            assert asked == [frozenset((vertex, probe_vertex)) for vertex in vertices]
            expected = grid(vertices[-1], probe_vertex)
            for before, after in zip(vertices, vertices[1:]):
                detour = grid(before, probe_vertex) + grid(probe_vertex, after) - distance(before, after)
                expected = min(expected, max(0.0, detour))
            assert got == expected

    def test_bound_zero_when_vertex_on_schedule(self):
        network = figure1_network()
        fleet = build_fleet(network, [1])
        r1 = Request(start=2, destination=16, riders=2, max_waiting=5.0, service_constraint=0.2, request_id="R1")
        assign_request(fleet, "c1", r1, planned_pickup_distance=8.0)
        vehicle = fleet.get("c1")
        assert added_distance_lower_bound(vehicle, 2, fleet.grid, fleet.oracle) == pytest.approx(0.0)
