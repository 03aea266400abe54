"""Unit tests for the SHAREK-style baseline."""

from __future__ import annotations

import pytest

from repro.baselines.sharek import SharekStyleMatcher
from repro.core.config import SystemConfig
from repro.core.naive import NaiveKineticTreeMatcher
from repro.core.pricing import LinearPriceModel
from repro.model.options import skyline_of
from repro.model.request import Request
from repro.sim.workload import random_requests

from tests.conftest import assign_request, build_random_fleet, option_points


@pytest.fixture
def mixed_fleet():
    """A fleet with both empty and busy vehicles."""
    fleet = build_random_fleet(vehicles=10, seed=13)
    requests = random_requests(fleet.grid.network, 3, 6.0, 0.5, seed=1, id_prefix="seed")
    for index, request in enumerate(requests):
        assign_request(fleet, f"c{index + 1}", request)
    return fleet


class TestSharekStyleMatcher:
    def test_only_offers_empty_vehicles(self, mixed_fleet):
        config = SystemConfig(max_waiting=6.0, service_constraint=0.5)
        matcher = SharekStyleMatcher(mixed_fleet, config=config)
        busy_ids = {vehicle.vehicle_id for vehicle in mixed_fleet.nonempty_vehicles()}
        for request in random_requests(mixed_fleet.grid.network, 8, 6.0, 0.5, seed=3):
            for option in matcher.match(request):
                assert option.vehicle_id not in busy_ids

    def test_matches_naive_restricted_to_empty_vehicles(self, mixed_fleet):
        """On empty vehicles only, SHAREK finds the same skyline as the exact matcher."""
        config = SystemConfig(max_waiting=6.0, service_constraint=0.5)
        sharek = SharekStyleMatcher(mixed_fleet, config=config)

        # Build a comparison fleet containing only the empty vehicles.
        empty_only = build_random_fleet(vehicles=0, seed=13)
        for vehicle in (v for v in mixed_fleet.vehicles() if v.is_empty):
            clone = type(vehicle)(vehicle.vehicle_id, location=vehicle.location, capacity=vehicle.capacity)
            empty_only.add_vehicle(clone)
        # Reuse the same road network for both fleets so distances agree.
        reference = NaiveKineticTreeMatcher(mixed_fleet, config=config)

        for request in random_requests(mixed_fleet.grid.network, 6, 6.0, 0.5, seed=5):
            sharek_points = option_points(sharek.match(request))
            full_points = option_points(
                [o for o in reference.match(request)
                 if mixed_fleet.get(o.vehicle_id).is_empty]
            )
            # every SHAREK option appears among the naive empty-vehicle options
            naive_empty_all = [
                o for o in reference._collect_options(reference.make_context(request))  # noqa: SLF001
                if mixed_fleet.get(o.vehicle_id).is_empty
            ]
            naive_points = option_points(naive_empty_all)
            for point in sharek_points:
                assert point in naive_points

    def test_fewer_options_than_ptrider_when_fleet_busy(self, mixed_fleet):
        config = SystemConfig(max_waiting=6.0, service_constraint=0.5)
        sharek = SharekStyleMatcher(mixed_fleet, config=config)
        ptrider = NaiveKineticTreeMatcher(mixed_fleet, config=config)
        sharek_total = 0
        ptrider_total = 0
        for request in random_requests(mixed_fleet.grid.network, 10, 6.0, 0.5, seed=9):
            sharek_total += len(sharek.match(request))
            ptrider_total += len(ptrider.match(request))
        assert sharek_total <= ptrider_total

    def test_euclidean_pruning_is_admissible(self, mixed_fleet):
        """Pruning never removes an option that survives the exact evaluation."""
        config = SystemConfig(max_waiting=6.0, service_constraint=0.5, max_pickup_distance=6.0)
        sharek = SharekStyleMatcher(mixed_fleet, config=config)
        reference = NaiveKineticTreeMatcher(mixed_fleet, config=config)
        for request in random_requests(mixed_fleet.grid.network, 8, 6.0, 0.5, seed=11):
            sharek_points = set(option_points(sharek.match(request)))
            expected = set(
                option_points(
                    [o for o in reference.match(request) if mixed_fleet.get(o.vehicle_id).is_empty]
                )
            )
            # SHAREK must find every empty-vehicle skyline point that the exact
            # matcher keeps in its own skyline restricted to empty vehicles.
            # (It may return additional points dominated only by busy vehicles.)
            assert expected <= sharek_points or not expected

    def test_counts_pruned_vehicles(self, mixed_fleet):
        config = SystemConfig(max_waiting=6.0, service_constraint=0.5, max_pickup_distance=3.0)
        matcher = SharekStyleMatcher(mixed_fleet, config=config)
        for request in random_requests(mixed_fleet.grid.network, 10, 6.0, 0.5, seed=13):
            matcher.match(request)
        assert matcher.statistics.vehicles_pruned > 0

    def test_skyline_prune_fires_at_a_zero_price_ratio(self):
        """With a zero price ratio every option costs the booking fee, so the
        first verified taxi's option dominates every farther one and the
        skyline prune skips it; the answer is still the skyline of every
        idle taxi's verified options."""
        fleet = build_random_fleet(vehicles=30, seed=17)
        config = SystemConfig(max_waiting=6.0, service_constraint=0.5)
        flat_fee = LinearPriceModel(base_ratio=0.0, rider_increment=0.0, booking_fee=5.0)
        sharek = SharekStyleMatcher(fleet, config=config, price_model=flat_fee)
        exhaustive = SharekStyleMatcher(fleet, config=config, price_model=flat_fee)
        for request in random_requests(fleet.grid.network, 40, 6.0, 0.5, seed=19):
            context = exhaustive.make_context(request)
            expected = skyline_of(
                option
                for vehicle in fleet.vehicles()
                if vehicle.is_empty
                for option in exhaustive._verify_vehicle(vehicle, context)  # noqa: SLF001
            )
            assert sharek.match(request) == expected
        assert sharek.statistics.vehicles_considered == 40 * 30
        assert sharek.statistics.vehicles_pruned > 0
        assert sharek.statistics.vehicles_beyond_cap == 0

    def test_name(self, mixed_fleet):
        assert SharekStyleMatcher(mixed_fleet).name == "sharek"
