"""Unit tests for the dual-side search matcher."""

from __future__ import annotations

import pytest

from repro.core.config import SystemConfig
from repro.core.dual_side import DualSideSearchMatcher
from repro.core.naive import NaiveKineticTreeMatcher
from repro.core.single_side import SingleSideSearchMatcher
from repro.model.request import Request
from repro.sim.workload import random_requests

from tests.conftest import assign_request, build_fleet, build_random_fleet, option_points
from repro.roadnet.generators import figure1_network


@pytest.fixture
def busy_fleet():
    fleet = build_random_fleet(rows=8, columns=8, vehicles=14, seed=11)
    requests = random_requests(
        fleet.grid.network, 6, max_waiting=6.0, service_constraint=0.5, seed=5, id_prefix="seed"
    )
    vehicle_ids = fleet.vehicle_ids()
    for index, request in enumerate(requests):
        try:
            assign_request(fleet, vehicle_ids[index % len(vehicle_ids)], request)
        except AssertionError:
            continue
    return fleet


class TestEquivalence:
    def test_matches_naive_and_single_side(self, busy_fleet):
        config = SystemConfig(max_waiting=6.0, service_constraint=0.5, max_pickup_distance=8.0)
        naive = NaiveKineticTreeMatcher(busy_fleet, config=config)
        single = SingleSideSearchMatcher(busy_fleet, config=config)
        dual = DualSideSearchMatcher(busy_fleet, config=config)
        for request in random_requests(busy_fleet.grid.network, 15, 6.0, 0.5, seed=17):
            expected = option_points(naive.match(request))
            assert option_points(single.match(request)) == expected
            assert option_points(dual.match(request)) == expected


class TestDestinationSidePruning:
    def test_prunes_at_least_as_much_as_single_side(self, busy_fleet):
        config = SystemConfig(max_waiting=6.0, service_constraint=0.5, max_pickup_distance=8.0)
        single = SingleSideSearchMatcher(busy_fleet, config=config)
        dual = DualSideSearchMatcher(busy_fleet, config=config)
        for request in random_requests(busy_fleet.grid.network, 20, 6.0, 0.5, seed=29):
            single.match(request)
            dual.match(request)
        assert dual.statistics.vehicles_evaluated <= single.statistics.vehicles_evaluated

    def test_prunes_schedule_near_start_far_from_destination(self):
        """The paper's motivating case: a schedule near s but far from d gets pruned."""
        network = figure1_network()
        fleet = build_fleet(network, [12, 13])
        # c1 is busy driving the short corridor v12 -> v16 near the start of the
        # probe request, but the probe's destination v10 is far from that corridor.
        busy = Request(start=16, destination=17, riders=1, max_waiting=5.0, service_constraint=0.2, request_id="B1")
        assign_request(fleet, "c1", busy)
        config = SystemConfig(max_waiting=5.0, service_constraint=0.2)
        probe = Request(start=12, destination=10, riders=1, max_waiting=5.0, service_constraint=0.2)

        single = SingleSideSearchMatcher(fleet, config=config)
        dual = DualSideSearchMatcher(fleet, config=config)
        expected = option_points(single.match(probe))
        assert option_points(dual.match(probe)) == expected

        context = single.make_context(probe)
        single_bound = single._price_lower_bound(fleet.get("c1"), context)  # noqa: SLF001
        dual_bound = dual._price_lower_bound(fleet.get("c1"), context)  # noqa: SLF001
        assert dual_bound >= single_bound

    def test_empty_vehicle_bound_unchanged(self, busy_fleet):
        config = SystemConfig(max_waiting=6.0, service_constraint=0.5)
        single = SingleSideSearchMatcher(busy_fleet, config=config)
        dual = DualSideSearchMatcher(busy_fleet, config=config)
        request = random_requests(busy_fleet.grid.network, 1, 6.0, 0.5, seed=4)[0]
        context = single.make_context(request)
        for vehicle in (v for v in busy_fleet.vehicles() if v.is_empty):
            assert dual._price_lower_bound(vehicle, context) == pytest.approx(  # noqa: SLF001
                single._price_lower_bound(vehicle, context)  # noqa: SLF001
            )

    def test_name(self, busy_fleet):
        assert DualSideSearchMatcher(busy_fleet).name == "dual_side"
