"""Unit and scenario tests for the simulation engine."""

from __future__ import annotations

import pytest

from repro.core.config import SystemConfig
from repro.core.dispatcher import Dispatcher, OptionPolicy
from repro.core.single_side import SingleSideSearchMatcher
from repro.errors import SimulationError
from repro.model.request import Request
from repro.roadnet.generators import figure1_network, grid_network
from repro.roadnet.grid_index import GridIndex
from repro.roadnet.routing import CSREngine
from repro.sim.engine import SimulationEngine
from repro.sim.workload import RequestWorkload, random_requests
from repro.vehicles.fleet import Fleet
from repro.vehicles.vehicle import Vehicle


def build_engine(requests, vehicles, network=None, speed=1.0, tick=1.0, seed=1,
                 config=None, idle_wander=True):
    network = network or grid_network(8, 8, weight_jitter=0.2, seed=seed)
    grid = GridIndex(network, rows=4, columns=4)
    fleet = Fleet(grid, CSREngine(network))
    for index, location in enumerate(vehicles, 1):
        fleet.add_vehicle(Vehicle(f"c{index}", location=location, capacity=4))
    config = config or SystemConfig(max_waiting=8.0, service_constraint=0.5, max_pickup_distance=15.0)
    matcher = SingleSideSearchMatcher(fleet, config=config)
    dispatcher = Dispatcher(fleet, matcher, config)
    workload = RequestWorkload(requests)
    engine = SimulationEngine(dispatcher, workload, speed=speed, tick=tick, seed=seed,
                              idle_wander=idle_wander)
    return engine


class TestValidation:
    def test_invalid_speed(self):
        engine_args = ([], [1])
        with pytest.raises(SimulationError):
            build_engine(*engine_args, speed=0.0)

    def test_invalid_tick(self):
        with pytest.raises(SimulationError):
            build_engine([], [1], tick=0.0)


class TestSingleRequestDelivery:
    def test_request_is_served_end_to_end(self):
        network = figure1_network()
        request = Request(start=12, destination=17, riders=2, max_waiting=5.0,
                          service_constraint=0.2, request_id="R2", submit_time=1.0)
        engine = build_engine([request], vehicles=[13], network=network, idle_wander=False)
        report = engine.run(until=60.0)
        stats = report.statistics
        assert stats.matched_requests == 1
        assert stats.pickups == 1
        assert stats.dropoffs == 1
        assert stats.completed_requests == 1
        # the serving vehicle ends empty at the destination
        vehicle = engine.dispatcher.fleet.get("c1")
        assert vehicle.is_empty
        assert vehicle.location == 17
        # it drove exactly pick-up (8) plus trip (7) distance
        assert vehicle.distance_driven == pytest.approx(15.0)

    def test_unmatched_request_recorded(self):
        network = figure1_network()
        request = Request(start=12, destination=17, riders=2, submit_time=1.0)
        engine = build_engine([request], vehicles=[], network=network)
        report = engine.run(until=10.0)
        assert report.statistics.unmatched_requests == 1
        assert report.statistics.matched_requests == 0

    def test_waiting_distance_measured(self):
        network = figure1_network()
        request = Request(start=12, destination=17, riders=1, max_waiting=5.0,
                          service_constraint=0.2, request_id="RW", submit_time=1.0)
        engine = build_engine([request], vehicles=[13], network=network, idle_wander=False)
        engine.run(until=60.0)
        # the vehicle drives straight to the pick-up: no extra waiting
        assert engine.statistics.waiting_distances == [pytest.approx(0.0)]


class TestSharingDetection:
    def test_two_overlapping_requests_count_as_shared(self):
        network = figure1_network()
        # Both requests travel along the same corridor and are submitted
        # back-to-back, so the single vehicle serves them together.
        r1 = Request(start=2, destination=16, riders=1, max_waiting=30.0,
                     service_constraint=1.0, request_id="S1", submit_time=1.0)
        r2 = Request(start=2, destination=16, riders=1, max_waiting=30.0,
                     service_constraint=1.0, request_id="S2", submit_time=2.0)
        config = SystemConfig(max_waiting=30.0, service_constraint=1.0)
        engine = build_engine([r1, r2], vehicles=[1], network=network, config=config,
                              idle_wander=False)
        report = engine.run(until=120.0)
        stats = report.statistics
        assert stats.completed_requests == 2
        assert stats.shared_requests == 2
        assert stats.sharing_rate == pytest.approx(1.0)

    def test_disjoint_requests_are_not_shared(self):
        network = figure1_network()
        r1 = Request(start=2, destination=12, riders=1, max_waiting=30.0,
                     service_constraint=1.0, request_id="D1", submit_time=1.0)
        # second request enters long after the first completed
        r2 = Request(start=16, destination=17, riders=1, max_waiting=30.0,
                     service_constraint=1.0, request_id="D2", submit_time=60.0)
        config = SystemConfig(max_waiting=30.0, service_constraint=1.0)
        engine = build_engine([r1, r2], vehicles=[1], network=network, config=config,
                              idle_wander=False)
        report = engine.run(until=200.0)
        assert report.statistics.completed_requests == 2
        assert report.statistics.shared_requests == 0


class TestIdleBehaviour:
    def test_idle_vehicles_wander_when_enabled(self):
        engine = build_engine([], vehicles=[1, 10, 20], seed=3, idle_wander=True)
        for _ in range(20):
            engine.step()
        driven = [vehicle.distance_driven for vehicle in engine.dispatcher.fleet.vehicles()]
        assert all(distance > 0 for distance in driven)

    def test_idle_vehicles_stand_still_when_disabled(self):
        engine = build_engine([], vehicles=[1, 10, 20], seed=3, idle_wander=False)
        fleet = engine.dispatcher.fleet
        parked = [(vehicle.stamp(), set(vehicle.registered_cells)) for vehicle in fleet.vehicles()]
        for _ in range(10):
            engine.step()
        driven = [vehicle.distance_driven for vehicle in fleet.vehicles()]
        assert all(distance == 0 for distance in driven)
        # a parked taxi is not touched at all, not moved by zero
        assert parked == [(vehicle.stamp(), vehicle.registered_cells) for vehicle in fleet.vehicles()]

    def test_grid_registration_follows_wandering_vehicles(self):
        engine = build_engine([], vehicles=[1], seed=5, idle_wander=True)
        fleet = engine.dispatcher.fleet
        for _ in range(30):
            engine.step()
        vehicle = fleet.get("c1")
        cell = fleet.grid.cell_of_vertex(vehicle.location)
        assert vehicle.vehicle_id in cell.empty_vehicles


class TestLargerScenario:
    def test_workload_mostly_served(self):
        network = grid_network(8, 8, weight_jitter=0.2, seed=2)
        requests = random_requests(network, 20, max_waiting=8.0, service_constraint=0.5,
                                   duration=60.0, seed=2)
        vehicles = [((i * 7) % 64) + 1 for i in range(10)]
        engine = build_engine(requests, vehicles=vehicles, network=network, seed=2)
        report = engine.run(until=400.0)
        stats = report.statistics
        assert stats.total_requests == 20
        assert stats.match_rate > 0.5
        assert stats.dropoffs == stats.completed_requests
        assert stats.completed_requests >= stats.matched_requests * 0.8
        assert report.simulated_time <= 400.0 + 1e-9
        panel = report.panel()
        assert panel["requests"] == 20.0

    def test_deterministic_given_seed(self):
        network = grid_network(6, 6, weight_jitter=0.2, seed=4)
        def run():
            requests = random_requests(network, 10, 8.0, 0.5, duration=30.0, seed=4)
            engine = build_engine(requests, vehicles=[1, 10, 20, 30], network=network, seed=4)
            report = engine.run(until=150.0)
            return (
                report.statistics.matched_requests,
                report.statistics.completed_requests,
                round(sum(v.distance_driven for v in engine.dispatcher.fleet.vehicles()), 6),
            )
        assert run() == run()

    def test_register_assignment_external(self):
        network = figure1_network()
        engine = build_engine([], vehicles=[13], network=network, idle_wander=False)
        dispatcher = engine.dispatcher
        request = Request(start=12, destination=17, riders=1, max_waiting=5.0,
                          service_constraint=0.2, request_id="EXT")
        outcome = dispatcher.dispatch(request)
        assert outcome.matched
        engine.statistics.record_submission(
            "EXT", 0.0, option_count=outcome.option_count, response_seconds=outcome.match_seconds,
            matched=True, planned_pickup_distance=outcome.chosen.pickup_distance,
            direct_distance=engine.dispatcher.fleet.oracle.distance(12, 17),
        )
        engine.register_assignment("EXT", outcome.chosen.vehicle_id, outcome.chosen.pickup_distance)
        engine.run(until=40.0)
        assert engine.statistics.pickups == 1
        assert engine.statistics.waiting_distances == [pytest.approx(0.0)]
        assert engine.statistics.completed_requests == 1
