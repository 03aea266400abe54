"""End-to-end integration tests: workload -> matching -> movement -> statistics."""

from __future__ import annotations

import pytest

from repro.core.config import SystemConfig
from repro.core.dispatcher import Dispatcher, OptionPolicy
from repro.core.dual_side import DualSideSearchMatcher
from repro.core.single_side import SingleSideSearchMatcher
from repro.roadnet.generators import grid_network
from repro.roadnet.grid_index import GridIndex
from repro.roadnet.routing import CSREngine
from repro.service.api import build_system
from repro.sim.engine import SimulationEngine
from repro.sim.trips import ShanghaiLikeTripGenerator
from repro.sim.workload import RequestWorkload
from repro.vehicles.fleet import Fleet
from repro.vehicles.vehicle import Vehicle


def build_city(seed: int, vehicles: int = 12, rows: int = 10):
    network = grid_network(rows, rows, weight_jitter=0.3, seed=seed)
    grid = GridIndex(network, rows=5, columns=5)
    fleet = Fleet(grid, CSREngine(network))
    import random

    rng = random.Random(seed)
    for index in range(vehicles):
        fleet.add_vehicle(Vehicle(f"c{index + 1}", location=rng.choice(network.vertices()), capacity=4))
    return network, fleet


class TestDayFractionSimulation:
    @pytest.mark.parametrize("matcher_class", [SingleSideSearchMatcher, DualSideSearchMatcher])
    def test_trip_replay_produces_consistent_statistics(self, matcher_class):
        network, fleet = build_city(seed=21)
        config = SystemConfig(max_waiting=8.0, service_constraint=0.6, max_pickup_distance=12.0)
        matcher = matcher_class(fleet, config=config)
        dispatcher = Dispatcher(fleet, matcher, config)
        trips = ShanghaiLikeTripGenerator(network, seed=21).generate(60, day_seconds=300.0)
        workload = RequestWorkload.from_trips(trips, config.max_waiting, config.service_constraint)
        engine = SimulationEngine(dispatcher, workload, speed=1.0, tick=1.0, seed=21,
                                  policy=OptionPolicy.BALANCED)
        report = engine.run(until=800.0)
        stats = report.statistics

        # conservation: every request is accounted for exactly once
        assert stats.total_requests == 60
        assert stats.matched_requests + stats.unmatched_requests == 60
        # every completed request was picked up first
        assert stats.pickups >= stats.dropoffs == stats.completed_requests
        # matched requests either completed or are still in progress
        assert stats.completed_requests <= stats.matched_requests
        # a healthy fleet serves most demand at this density
        assert stats.match_rate > 0.5
        # response times are real measurements
        assert all(t >= 0 for t in stats.response_times)
        assert len(stats.response_times) == 60
        # fleet bookkeeping is consistent with the statistics
        in_progress = sum(len(v.request_states()) for v in fleet.vehicles())
        assert in_progress == stats.matched_requests - stats.completed_requests
        # vehicles never exceed capacity
        assert all(v.occupancy <= v.capacity for v in fleet.vehicles())

    def test_options_offer_price_time_tradeoffs_under_load(self):
        """Once the fleet is busy, a noticeable share of requests get >= 2 options."""
        network, fleet = build_city(seed=5, vehicles=10)
        config = SystemConfig(max_waiting=10.0, service_constraint=0.8, max_pickup_distance=15.0)
        matcher = SingleSideSearchMatcher(fleet, config=config)
        dispatcher = Dispatcher(fleet, matcher, config)
        trips = ShanghaiLikeTripGenerator(network, seed=5).generate(80, day_seconds=200.0)
        workload = RequestWorkload.from_trips(trips, config.max_waiting, config.service_constraint)
        engine = SimulationEngine(dispatcher, workload, speed=0.8, tick=1.0, seed=5)
        report = engine.run(until=260.0)
        counts = report.statistics.option_counts
        assert counts
        assert max(counts) >= 2
        multi = sum(1 for count in counts if count >= 2)
        assert multi / len(counts) > 0.1

    def test_sharing_emerges_under_dense_demand(self):
        network, fleet = build_city(seed=9, vehicles=6)
        config = SystemConfig(max_waiting=12.0, service_constraint=1.0, max_pickup_distance=20.0)
        matcher = SingleSideSearchMatcher(fleet, config=config)
        dispatcher = Dispatcher(fleet, matcher, config)
        trips = ShanghaiLikeTripGenerator(network, seed=9, hotspot_bias=0.9).generate(
            70, day_seconds=150.0
        )
        workload = RequestWorkload.from_trips(trips, config.max_waiting, config.service_constraint)
        engine = SimulationEngine(dispatcher, workload, speed=1.0, tick=1.0, seed=9)
        report = engine.run(until=500.0)
        assert report.statistics.completed_requests > 10
        assert report.statistics.sharing_rate > 0.0


class TestServiceRoundTrip:
    def test_many_bookings_through_the_service(self):
        system = build_system(network_rows=8, network_columns=8, vehicles=10, seed=31)
        import random

        rng = random.Random(31)
        vertices = system.fleet.grid.network.vertices()
        chosen = 0
        for _ in range(20):
            start, destination = rng.sample(vertices, 2)
            booking = system.book(start, destination, riders=rng.randint(1, 2))
            if booking.options:
                system.choose(booking.booking_id, rng.randrange(len(booking.options)))
                chosen += 1
            system.advance(5.0)
        system.advance(120.0)
        stats = system.statistics()
        assert stats["matched"] == float(chosen)
        assert stats["dropoffs"] > 0
        assert stats["average_response_time"] > 0.0
        # the statistics clock advanced with the world
        assert stats["current_time"] == pytest.approx(20 * 5.0 + 120.0)
