"""Property-based tests on schedule feasibility and option invariants."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SystemConfig
from repro.core.insertion import insertion_candidates
from repro.core.naive import NaiveKineticTreeMatcher
from repro.core.pricing import LinearPriceModel, rider_price_ratio
from repro.model.request import Request
from repro.roadnet.generators import grid_network
from repro.vehicles.schedule import evaluate_schedule
from repro.vehicles.vehicle import Vehicle

from tests.conftest import assign_request, build_fleet


@st.composite
def busy_vehicle_and_request(draw):
    """A vehicle (possibly already serving a request) plus a probe request."""
    seed = draw(st.integers(min_value=0, max_value=50_000))
    rng = random.Random(seed)
    network = grid_network(5, 5, weight_jitter=0.4, seed=seed)
    vertices = network.vertices()
    fleet = build_fleet(network, [rng.choice(vertices)], grid_rows=3, grid_columns=3)
    if draw(st.booleans()):
        start, destination = rng.sample(vertices, 2)
        seed_request = Request(
            start=start, destination=destination, riders=rng.randint(1, 2),
            max_waiting=8.0, service_constraint=0.8, request_id=f"pre-{seed}",
        )
        try:
            assign_request(fleet, "c1", seed_request)
        except AssertionError:
            pass
    start, destination = rng.sample(vertices, 2)
    probe = Request(
        start=start, destination=destination, riders=rng.randint(1, 3),
        max_waiting=8.0, service_constraint=0.8, request_id=f"probe-{seed}",
    )
    return fleet, probe


@given(busy_vehicle_and_request())
@settings(max_examples=50, deadline=None)
def test_candidates_respect_every_definition2_condition(case):
    """Every insertion candidate honours capacity, point order, waiting and service constraints."""
    fleet, probe = case
    vehicle = fleet.get("c1")
    oracle = fleet.oracle
    candidates = insertion_candidates(vehicle, probe, oracle)
    states = dict(vehicle.request_states())
    for candidate in candidates:
        metrics = evaluate_schedule(vehicle.location, candidate.schedule, oracle.distance, vehicle.offset)
        # capacity along the schedule
        occupancy = vehicle.occupancy
        for stop in candidate.schedule:
            occupancy += stop.occupancy_delta
            assert 0 <= occupancy <= vehicle.capacity
        # point order for the probe
        vertices = [stop for stop in candidate.schedule if stop.request_id == probe.request_id]
        assert vertices[0].is_pickup and vertices[1].is_dropoff
        # waiting-time condition for the pre-assigned request
        for request_id, state in states.items():
            if not state.onboard:
                assert metrics.pickup_distance[request_id] <= state.waiting_budget() + 1e-6
            travelled = metrics.dropoff_distance[request_id] - (
                metrics.pickup_distance.get(request_id, 0.0) if not state.onboard else 0.0
            )
            assert travelled <= state.remaining_service_budget() + 1e-6
        # service condition for the probe itself
        probe_travel = metrics.dropoff_distance[probe.request_id] - metrics.pickup_distance[probe.request_id]
        direct = oracle.distance(probe.start, probe.destination)
        assert probe_travel <= probe.detour_budget(direct) + 1e-6


@given(busy_vehicle_and_request())
@settings(max_examples=50, deadline=None)
def test_option_prices_match_the_price_model(case):
    """price == f_n * (added + direct) for every returned option."""
    fleet, probe = case
    config = SystemConfig(max_waiting=8.0, service_constraint=0.8)
    matcher = NaiveKineticTreeMatcher(fleet, config=config)
    direct = fleet.oracle.distance(probe.start, probe.destination)
    ratio = rider_price_ratio(probe.riders)
    for option in matcher.match(probe):
        assert option.price >= ratio * direct - 1e-9
        # The matcher's `direct` comes from the request-rooted tree while this
        # test recomputes it through the oracle, whose symmetric cache reuse
        # may sum the same path in the opposite order -- allow ulp noise.
        assert option.price == pytest.approx(
            LinearPriceModel().price(probe.riders, option.added_distance, direct), rel=1e-12
        )
        assert option.pickup_distance >= fleet.grid.distance_lower_bound(
            fleet.get(option.vehicle_id).location, probe.start
        ) - 1e-9


@given(
    riders=st.integers(min_value=1, max_value=6),
    added=st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
    direct=st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
)
@settings(max_examples=200)
def test_price_model_properties(riders, added, direct):
    model = LinearPriceModel()
    price = model.price(riders, added, direct)
    assert price >= 0.0
    assert price >= model.minimum_price(riders, direct) - 1e-12
    # monotone in every argument
    assert model.price(riders, added + 1.0, direct) >= price
    assert model.price(riders, added, direct + 1.0) >= price
    assert model.price(riders + 1, added, direct) >= price
