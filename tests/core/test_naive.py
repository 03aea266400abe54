"""Unit tests for the naive kinetic-tree matcher."""

from __future__ import annotations

import pytest

from repro.core.config import SystemConfig
from repro.core.dispatcher import Dispatcher
from repro.core.naive import NaiveKineticTreeMatcher
from repro.core.single_side import SingleSideSearchMatcher
from repro.model.request import Request
from repro.sim.workload import random_requests

from tests.conftest import build_random_fleet


class TestNaiveMatcher:
    def test_evaluates_every_vehicle(self):
        fleet = build_random_fleet(vehicles=9, seed=4)
        matcher = NaiveKineticTreeMatcher(fleet)
        request = random_requests(fleet.grid.network, 1, 5.0, 0.3, seed=1)[0]
        matcher.match(request)
        assert matcher.statistics.vehicles_considered == 9
        assert matcher.statistics.vehicles_evaluated == 9
        assert matcher.statistics.vehicles_pruned == 0

    def test_differs_from_the_search_by_screening_alone(self):
        """The vehicles the single-side search verifies, the naive matcher
        verifies the same way: same candidates, same insertion counters."""
        fleet = build_random_fleet(vehicles=8, seed=4)
        naive = NaiveKineticTreeMatcher(fleet)
        single = SingleSideSearchMatcher(fleet)
        requests = random_requests(fleet.grid.network, 10, 8.0, 0.5, seed=2)
        loader = Dispatcher(fleet, naive)
        for request in requests[:6]:
            loader.dispatch(request)
        assert any(not vehicle.is_empty for vehicle in fleet.vehicles())
        naive.statistics.reset()
        for request in requests[6:]:
            searched, exhaustive = single.make_context(request), naive.make_context(request)
            single.match(request, searched)
            for vehicle_id in searched.verified:
                naive._verify_vehicle(fleet.get(vehicle_id), exhaustive)  # noqa: SLF001
            assert exhaustive.verified == searched.verified
        assert 0 < single.statistics.vehicles_evaluated < 4 * len(fleet.vehicles())
        assert naive.statistics.vehicles_evaluated == single.statistics.vehicles_evaluated
        assert naive.statistics.insertion == single.statistics.insertion
        assert naive.statistics.insertion.candidates_feasible > 0
        assert naive.statistics.insertion.candidates_rejected_by_bounds == 0

    def test_returns_skyline(self):
        fleet = build_random_fleet(vehicles=10, seed=6)
        matcher = NaiveKineticTreeMatcher(fleet)
        for request in random_requests(fleet.grid.network, 5, 5.0, 0.3, seed=3):
            options = matcher.match(request)
            for first in options:
                for second in options:
                    if first is not second:
                        assert not first.dominates(second)

    def test_empty_fleet(self):
        fleet = build_random_fleet(vehicles=0)
        matcher = NaiveKineticTreeMatcher(fleet)
        request = random_requests(fleet.grid.network, 1, 5.0, 0.3, seed=4)[0]
        assert matcher.match(request) == []

    def test_respects_max_pickup_distance(self):
        fleet = build_random_fleet(vehicles=10, seed=6)
        config = SystemConfig(max_pickup_distance=3.0)
        matcher = NaiveKineticTreeMatcher(fleet, config=config)
        for request in random_requests(fleet.grid.network, 5, 5.0, 0.3, seed=5):
            for option in matcher.match(request):
                assert option.pickup_distance <= 3.0 + 1e-9

    def test_options_carry_request_id(self):
        fleet = build_random_fleet(vehicles=5, seed=6)
        matcher = NaiveKineticTreeMatcher(fleet)
        request = Request(start=1, destination=20, riders=1, request_id="Rxyz")
        for option in matcher.match(request):
            assert option.request_id == "Rxyz"
