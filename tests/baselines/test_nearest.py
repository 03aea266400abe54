"""Unit tests for the single-option (system-optimal) baseline."""

from __future__ import annotations

import pytest

from repro.baselines.nearest import NearestVehicleMatcher
from repro.core.config import SystemConfig
from repro.core.naive import NaiveKineticTreeMatcher
from repro.sim.workload import random_requests

from tests.conftest import build_random_fleet


class TestNearestVehicleMatcher:
    def test_returns_at_most_one_option(self):
        fleet = build_random_fleet(vehicles=10, seed=3)
        matcher = NearestVehicleMatcher(fleet)
        for request in random_requests(fleet.grid.network, 8, 5.0, 0.3, seed=2):
            options = matcher.match(request)
            assert len(options) <= 1

    def test_option_minimises_added_distance(self):
        fleet = build_random_fleet(vehicles=10, seed=3)
        config = SystemConfig(max_waiting=5.0, service_constraint=0.3)
        baseline = NearestVehicleMatcher(fleet, config=config)
        reference = NaiveKineticTreeMatcher(fleet, config=config)
        for request in random_requests(fleet.grid.network, 8, 5.0, 0.3, seed=5):
            chosen = baseline.match(request)
            everything = reference._collect_options(reference.make_context(request))  # noqa: SLF001
            if not everything:
                assert chosen == []
                continue
            best_added = min(option.added_distance for option in everything)
            assert chosen[0].added_distance == pytest.approx(best_added)

    def test_option_is_in_ptrider_skyline_or_dominated(self):
        """The system-optimal single option never beats the PTRider skyline."""
        fleet = build_random_fleet(vehicles=10, seed=3)
        config = SystemConfig(max_waiting=5.0, service_constraint=0.3)
        baseline = NearestVehicleMatcher(fleet, config=config)
        reference = NaiveKineticTreeMatcher(fleet, config=config)
        for request in random_requests(fleet.grid.network, 8, 5.0, 0.3, seed=7):
            single = baseline.match(request)
            skyline = reference.match(request)
            if not single:
                continue
            option = single[0]
            assert skyline  # sanity: the reference offers something too
            # the cheapest skyline price is at most the baseline's price
            assert min(o.price for o in skyline) <= option.price + 1e-9
            # the earliest skyline pick-up is at most the baseline's pick-up
            assert min(o.pickup_distance for o in skyline) <= option.pickup_distance + 1e-9

    def test_empty_fleet(self):
        fleet = build_random_fleet(vehicles=0)
        matcher = NearestVehicleMatcher(fleet)
        request = random_requests(fleet.grid.network, 1, 5.0, 0.3, seed=2)[0]
        assert matcher.match(request) == []

    def test_name(self):
        fleet = build_random_fleet(vehicles=1)
        assert NearestVehicleMatcher(fleet).name == "nearest"
