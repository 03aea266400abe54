"""E1 -- the worked example of Section 2 (Fig. 1).

Paper claim: for the Fig. 1 scenario the system returns exactly the two
non-dominated results r1 = <c1, 14, 4> and r2 = <c2, 8, 8.8>.  The benchmark
verifies the values and measures how long one such fully indexed match takes
with each matcher.
"""

from __future__ import annotations

import pytest

from repro.core.config import SystemConfig
from repro.core.dual_side import DualSideSearchMatcher
from repro.core.naive import NaiveKineticTreeMatcher
from repro.core.single_side import SingleSideSearchMatcher
from repro.core.insertion import insertion_candidates
from repro.model.request import Request
from repro.roadnet.generators import figure1_network
from repro.roadnet.grid_index import GridIndex
from repro.roadnet.routing import make_engine
from repro.vehicles.fleet import Fleet
from repro.vehicles.vehicle import Vehicle

MATCHERS = {
    "naive": NaiveKineticTreeMatcher,
    "single_side": SingleSideSearchMatcher,
    "dual_side": DualSideSearchMatcher,
}


def build_paper_scenario():
    network = figure1_network()
    grid = GridIndex(network, rows=4, columns=4)
    oracle = make_engine(network)
    fleet = Fleet(grid, oracle)
    fleet.add_vehicle(Vehicle("c1", location=1, capacity=4))
    fleet.add_vehicle(Vehicle("c2", location=13, capacity=4))
    r1 = Request(start=2, destination=16, riders=2, max_waiting=5.0, service_constraint=0.2,
                 request_id="R1")
    c1 = fleet.get("c1")
    schedules = [candidate.schedule for candidate in insertion_candidates(c1, r1, oracle)]
    c1.assign(r1, planned_pickup_distance=8.0, direct_distance=oracle.distance(2, 16),
              schedules=schedules)
    fleet.refresh_vehicle("c1")
    config = SystemConfig(max_waiting=5.0, service_constraint=0.2)
    request = Request(start=12, destination=17, riders=2, max_waiting=5.0, service_constraint=0.2,
                      request_id="R2")
    return fleet, config, request


@pytest.mark.parametrize("matcher_name", sorted(MATCHERS))
def test_e1_worked_example(benchmark, matcher_name):
    fleet, config, request = build_paper_scenario()
    matcher = MATCHERS[matcher_name](fleet, config=config)

    options = benchmark(lambda: matcher.match(request))

    by_vehicle = {option.vehicle_id: option for option in options}
    assert set(by_vehicle) == {"c1", "c2"}
    assert by_vehicle["c1"].pickup_distance == pytest.approx(14.0)
    assert by_vehicle["c1"].price == pytest.approx(4.0)
    assert by_vehicle["c2"].pickup_distance == pytest.approx(8.0)
    assert by_vehicle["c2"].price == pytest.approx(8.8)

    benchmark.extra_info["options"] = [
        (option.vehicle_id, option.pickup_distance, option.price) for option in options
    ]
    benchmark.extra_info["paper_expectation"] = [("c1", 14.0, 4.0), ("c2", 8.0, 8.8)]
