"""Unit tests for the single-side search matcher."""

from __future__ import annotations

import random

import pytest

from repro.core.config import SystemConfig
from repro.core.dual_side import DualSideSearchMatcher
from repro.core.naive import NaiveKineticTreeMatcher
from repro.core.single_side import SingleSideSearchMatcher
from repro.model.options import dominates
from repro.model.request import Request
from repro.roadnet.graph import RoadNetwork
from repro.sim.workload import random_requests

from tests.conftest import assign_request, build_fleet, build_random_fleet, option_points


@pytest.fixture
def busy_fleet():
    """A fleet where some vehicles already carry requests."""
    fleet = build_random_fleet(rows=8, columns=8, vehicles=14, seed=11)
    network = fleet.grid.network
    rng = random.Random(3)
    config_requests = random_requests(network, 6, max_waiting=6.0, service_constraint=0.5, seed=5, id_prefix="seed")
    vehicle_ids = fleet.vehicle_ids()
    for index, request in enumerate(config_requests):
        vehicle = fleet.get(vehicle_ids[index % len(vehicle_ids)])
        try:
            assign_request(fleet, vehicle.vehicle_id, request)
        except AssertionError:
            continue
    return fleet


class TestEquivalenceWithNaive:
    @pytest.mark.parametrize("max_pickup", [None, 8.0])
    def test_same_skyline_points(self, busy_fleet, max_pickup):
        config = SystemConfig(max_waiting=6.0, service_constraint=0.5, max_pickup_distance=max_pickup)
        naive = NaiveKineticTreeMatcher(busy_fleet, config=config)
        single = SingleSideSearchMatcher(busy_fleet, config=config)
        requests = random_requests(
            busy_fleet.grid.network, 15, max_waiting=6.0, service_constraint=0.5, seed=21
        )
        for request in requests:
            assert option_points(single.match(request)) == option_points(naive.match(request))


class TestMidEdgeEmptyVehicle:
    @pytest.mark.xfail(
        strict=True,
        reason="the empty-vehicle price probe prices vehicle.offset, which the "
        "insertion's added distance does not contain: inadmissible for a taxi "
        "driving mid-edge (ROADMAP item 1 carries the one-line fix)",
    )
    def test_slower_but_cheaper_mid_edge_taxi_is_offered(self):
        """Two empty taxis in the start cell: c1 parked 0.8 from ``s``; c2
        mid-edge, 0.9 short of a vertex 0.3 from ``s``.  c2 arrives later
        (1.2) but drives less for the rider (0.3 + direct against 0.8 +
        direct), so both options are on the skyline -- yet c2's probe
        ``(0.9, price(0.9 + direct))`` is dominated by c1's option."""
        s, d, a, b, x = 1, 2, 3, 4, 5
        network = RoadNetwork.from_edges(
            [(s, a, 0.8), (s, b, 0.3), (b, x, 1.5), (s, d, 2.0)],
            coordinates={s: (0, 0), d: (2, 0), a: (0, 1), b: (-1, 0), x: (-2, 0)},
        )
        fleet = build_fleet(network, [a, b], grid_rows=1, grid_columns=1)
        fleet.get("c2").set_location(b, 0.9)
        fleet.refresh_vehicle("c2")
        request = Request(start=s, destination=d, riders=1, max_waiting=6.0, service_constraint=0.5)

        def offered(matcher):
            return [(o.vehicle_id, o.pickup_distance, o.price) for o in matcher.match(request)]

        expected = offered(NaiveKineticTreeMatcher(fleet))
        assert [vehicle_id for vehicle_id, _, _ in expected] == ["c1", "c2"]
        assert offered(SingleSideSearchMatcher(fleet)) == expected
        assert offered(DualSideSearchMatcher(fleet)) == expected


class TestPruning:
    def test_prunes_vehicles_compared_to_naive(self, busy_fleet):
        config = SystemConfig(max_waiting=6.0, service_constraint=0.5, max_pickup_distance=6.0)
        naive = NaiveKineticTreeMatcher(busy_fleet, config=config)
        single = SingleSideSearchMatcher(busy_fleet, config=config)
        requests = random_requests(
            busy_fleet.grid.network, 10, max_waiting=6.0, service_constraint=0.5, seed=33
        )
        for request in requests:
            naive.match(request)
            single.match(request)
        assert single.statistics.vehicles_evaluated < naive.statistics.vehicles_evaluated
        assert single.statistics.vehicles_pruned + single.statistics.vehicles_evaluated <= (
            naive.statistics.vehicles_evaluated
        )

    def test_cells_visited_bounded_by_grid(self, busy_fleet):
        config = SystemConfig(max_waiting=6.0, service_constraint=0.5, max_pickup_distance=4.0)
        single = SingleSideSearchMatcher(busy_fleet, config=config)
        request = random_requests(busy_fleet.grid.network, 1, 6.0, 0.5, seed=2)[0]
        single.match(request)
        assert single.statistics.cells_visited <= busy_fleet.grid.cell_count


class TestBehaviour:
    def test_no_vehicles_returns_empty(self):
        fleet = build_random_fleet(vehicles=0)
        matcher = SingleSideSearchMatcher(fleet)
        request = random_requests(fleet.grid.network, 1, 5.0, 0.2, seed=1)[0]
        assert matcher.match(request) == []

    def test_options_never_exceed_max_pickup(self, busy_fleet):
        config = SystemConfig(max_waiting=6.0, service_constraint=0.5, max_pickup_distance=5.0)
        matcher = SingleSideSearchMatcher(busy_fleet, config=config)
        for request in random_requests(busy_fleet.grid.network, 10, 6.0, 0.5, seed=8):
            for option in matcher.match(request):
                assert option.pickup_distance <= 5.0 + 1e-9

    def test_options_are_mutually_non_dominated(self, busy_fleet):
        config = SystemConfig(max_waiting=6.0, service_constraint=0.5)
        matcher = SingleSideSearchMatcher(busy_fleet, config=config)
        for request in random_requests(busy_fleet.grid.network, 10, 6.0, 0.5, seed=13):
            options = matcher.match(request)
            for first in options:
                for second in options:
                    if first is not second:
                        assert not dominates(first, second)

    def test_empty_vehicle_option_price_structure(self):
        """An empty vehicle's price equals f_n * (pickup + 2 * direct)."""
        fleet = build_random_fleet(vehicles=5, seed=2)
        config = SystemConfig(max_waiting=6.0, service_constraint=0.5)
        matcher = SingleSideSearchMatcher(fleet, config=config)
        oracle = fleet.oracle
        request = Request(start=1, destination=30, riders=1, max_waiting=6.0, service_constraint=0.5)
        direct = oracle.distance(1, 30)
        for option in matcher.match(request):
            expected = 0.3 * (option.pickup_distance + 2.0 * direct)
            assert option.price == pytest.approx(expected)
