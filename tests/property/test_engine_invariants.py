"""Property-based invariants of the simulation engine.

Whatever the seed, the workload or the fleet, a finished (or interrupted)
simulation must satisfy conservation laws: requests are never lost or double
counted, vehicles never exceed their capacity, pick-ups precede drop-offs,
and the realised detours and waiting slips respect the constraints that were
promised when the options were accepted.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SystemConfig
from repro.core.dispatcher import Dispatcher, OptionPolicy
from repro.core.single_side import SingleSideSearchMatcher
from repro.roadnet.generators import grid_network
from repro.roadnet.grid_index import GridIndex
from repro.roadnet.routing import CSREngine
from repro.sim.engine import SimulationEngine
from repro.sim.trips import ShanghaiLikeTripGenerator
from repro.sim.workload import RequestWorkload
from repro.vehicles.fleet import Fleet
from repro.vehicles.vehicle import Vehicle


@st.composite
def simulation_cases(draw):
    seed = draw(st.integers(min_value=0, max_value=20_000))
    vehicles = draw(st.integers(min_value=1, max_value=8))
    trips = draw(st.integers(min_value=1, max_value=25))
    duration = draw(st.sampled_from([40.0, 80.0, 150.0]))
    epsilon = draw(st.sampled_from([0.2, 0.5, 1.0]))
    waiting = draw(st.sampled_from([2.0, 6.0, 12.0]))
    return seed, vehicles, trips, duration, epsilon, waiting


@given(simulation_cases())
@settings(max_examples=20, deadline=None)
def test_simulation_conservation_laws(case):
    seed, vehicle_count, trip_count, duration, epsilon, waiting = case
    network = grid_network(7, 7, weight_jitter=0.3, seed=seed)
    grid = GridIndex(network, rows=3, columns=3)
    fleet = Fleet(grid, CSREngine(network))
    rng = random.Random(seed)
    for index in range(vehicle_count):
        fleet.add_vehicle(Vehicle(f"c{index + 1}", location=rng.choice(network.vertices())))
    config = SystemConfig(max_waiting=waiting, service_constraint=epsilon, max_pickup_distance=15.0)
    dispatcher = Dispatcher(fleet, SingleSideSearchMatcher(fleet, config=config), config)
    trips = ShanghaiLikeTripGenerator(network, seed=seed).generate(trip_count, day_seconds=duration)
    workload = RequestWorkload.from_trips(trips, waiting, epsilon)
    engine = SimulationEngine(dispatcher, workload, speed=1.0, tick=1.0, seed=seed,
                              policy=OptionPolicy.CHEAPEST)
    report = engine.run(until=duration + 150.0)
    stats = report.statistics

    # conservation of requests
    assert stats.total_requests == trip_count
    assert stats.matched_requests + stats.unmatched_requests == trip_count
    assert stats.completed_requests <= stats.matched_requests
    assert stats.dropoffs == stats.completed_requests
    assert stats.pickups >= stats.dropoffs
    assert stats.shared_requests <= stats.completed_requests

    # in-flight bookkeeping matches the fleet
    in_flight = sum(len(vehicle.request_states()) for vehicle in fleet.vehicles())
    assert in_flight == stats.matched_requests - stats.completed_requests

    # vehicle-level invariants
    for vehicle in fleet.vehicles():
        assert 0 <= vehicle.occupancy <= vehicle.capacity
        assert vehicle.occupied_distance <= vehicle.distance_driven + 1e-9

    # promised constraints were honoured for completed trips
    for ratio in stats.detour_ratios:
        assert ratio <= 1.0 + epsilon + 1e-6
    for slip in stats.waiting_distances:
        assert slip <= waiting + 1e-6
