"""Unit tests for the T-Share-style baseline."""

from __future__ import annotations

import pytest

from repro.baselines.tshare import TShareStyleMatcher
from repro.core.config import SystemConfig
from repro.core.naive import NaiveKineticTreeMatcher
from repro.sim.workload import random_requests

from tests.conftest import assign_request, build_random_fleet


@pytest.fixture
def mixed_fleet():
    fleet = build_random_fleet(vehicles=10, seed=17)
    requests = random_requests(fleet.grid.network, 3, 6.0, 0.5, seed=2, id_prefix="seed")
    for index, request in enumerate(requests):
        assign_request(fleet, f"c{index + 1}", request)
    return fleet


class TestTShareStyleMatcher:
    def test_returns_at_most_one_option(self, mixed_fleet):
        matcher = TShareStyleMatcher(mixed_fleet, config=SystemConfig(max_waiting=6.0, service_constraint=0.5))
        for request in random_requests(mixed_fleet.grid.network, 10, 6.0, 0.5, seed=3):
            assert len(matcher.match(request)) <= 1

    def test_option_has_earliest_pickup(self, mixed_fleet):
        config = SystemConfig(max_waiting=6.0, service_constraint=0.5)
        tshare = TShareStyleMatcher(mixed_fleet, config=config)
        reference = NaiveKineticTreeMatcher(mixed_fleet, config=config)
        for request in random_requests(mixed_fleet.grid.network, 10, 6.0, 0.5, seed=5):
            single = tshare.match(request)
            all_options = reference._collect_options(reference.make_context(request))  # noqa: SLF001
            if not all_options:
                assert single == []
                continue
            assert single
            best = min(option.pickup_distance for option in all_options)
            assert single[0].pickup_distance == pytest.approx(best)

    def test_respects_max_pickup(self, mixed_fleet):
        config = SystemConfig(max_waiting=6.0, service_constraint=0.5, max_pickup_distance=4.0)
        matcher = TShareStyleMatcher(mixed_fleet, config=config)
        for request in random_requests(mixed_fleet.grid.network, 10, 6.0, 0.5, seed=7):
            for option in matcher.match(request):
                assert option.pickup_distance <= 4.0 + 1e-9

    def test_visits_fewer_cells_than_grid_size(self, mixed_fleet):
        config = SystemConfig(max_waiting=6.0, service_constraint=0.5)
        matcher = TShareStyleMatcher(mixed_fleet, config=config)
        requests = random_requests(mixed_fleet.grid.network, 5, 6.0, 0.5, seed=9)
        for request in requests:
            matcher.match(request)
        total_possible = mixed_fleet.grid.cell_count * len(requests)
        assert matcher.statistics.cells_visited < total_possible

    def test_empty_fleet(self):
        fleet = build_random_fleet(vehicles=0)
        matcher = TShareStyleMatcher(fleet)
        request = random_requests(fleet.grid.network, 1, 5.0, 0.3, seed=2)[0]
        assert matcher.match(request) == []

    def test_name(self, mixed_fleet):
        assert TShareStyleMatcher(mixed_fleet).name == "tshare"


def test_the_pickup_cap_stops_the_cell_walk_before_a_far_vehicle():
    from repro.model.request import Request
    from repro.roadnet.generators import grid_network
    from tests.conftest import build_fleet

    network = grid_network(6, 6)
    vertices = network.vertices()
    fleet = build_fleet(network, [vertices[-1]])
    request = Request(start=vertices[14], destination=vertices[7], riders=1,
                      max_waiting=100.0, service_constraint=0.5, request_id="far")
    uncapped = TShareStyleMatcher(fleet, config=SystemConfig(max_waiting=100.0, service_constraint=0.5))
    (option,) = uncapped.match(request)
    assert option.pickup_distance > 2.0
    assert uncapped.statistics.cells_visited == fleet.grid.cell_count

    capped = TShareStyleMatcher(fleet, config=SystemConfig(
        max_waiting=100.0, service_constraint=0.5, max_pickup_distance=2.0))
    assert capped.match(request) == []
    assert capped.statistics.vehicles_considered == 0
    assert capped.statistics.cells_visited < fleet.grid.cell_count
