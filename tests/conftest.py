"""Shared fixtures and builders for the PTRider test suite."""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

import pytest

from repro.core.config import SystemConfig
from repro.core.dispatcher import Dispatcher
from repro.core.naive import NaiveKineticTreeMatcher
from repro.core.single_side import SingleSideSearchMatcher
from repro.model.request import Request
from repro.roadnet.generators import figure1_network, grid_network
from repro.roadnet.graph import RoadNetwork
from repro.roadnet import routing
from repro.roadnet.grid_index import GridIndex
from repro.roadnet.routing import CSREngine
from repro.vehicles.fleet import Fleet
from repro.vehicles.vehicle import Vehicle

from tests.commit_reference import feasible_schedules_for_commit
from tests.insertion_reference import evaluate_schedule
from tests.routing_arms import PURE_PYTHON_TREES


def pytest_configure(config) -> None:
    config.addinivalue_line(
        "markers",
        f"{PURE_PYTHON_TREES}: build every routing graph without SciPy (see tests/routing_arms.py)",
    )


@pytest.fixture(autouse=True)
def _pure_python_trees(request, monkeypatch) -> None:
    """Hide SciPy from the routing module for tests on the pure-Python arm."""
    if request.node.get_closest_marker(PURE_PYTHON_TREES) is not None:
        monkeypatch.setattr(routing, "_csr_array", None)


# ----------------------------------------------------------------------
# deterministic builders (importable from tests via the fixtures below)
# ----------------------------------------------------------------------
def build_fleet(
    network: RoadNetwork,
    vehicle_locations: List[int],
    capacity: int = 4,
    grid_rows: int = 4,
    grid_columns: int = 4,
) -> Fleet:
    """Build a fleet with vehicles ``c1, c2, ...`` at the given vertices."""
    grid = GridIndex(network, rows=grid_rows, columns=grid_columns)
    fleet = Fleet(grid, CSREngine(network))
    for index, location in enumerate(vehicle_locations, 1):
        fleet.add_vehicle(Vehicle(f"c{index}", location=location, capacity=capacity))
    return fleet


def build_random_fleet(
    rows: int = 8,
    columns: int = 8,
    vehicles: int = 12,
    capacity: int = 4,
    seed: int = 7,
    weight_jitter: float = 0.25,
    grid_rows: int = 5,
    grid_columns: int = 5,
) -> Fleet:
    """Build a seeded random fleet on a jittered grid network."""
    network = grid_network(rows, columns, weight_jitter=weight_jitter, seed=seed)
    rng = random.Random(seed)
    locations = [rng.choice(network.vertices()) for _ in range(vehicles)]
    return build_fleet(network, locations, capacity=capacity, grid_rows=grid_rows, grid_columns=grid_columns)


def assign_request(
    fleet: Fleet,
    vehicle_id: str,
    request: Request,
    planned_pickup_distance: Optional[float] = None,
) -> None:
    """Assign ``request`` to ``vehicle_id`` using the normal commit machinery."""
    vehicle = fleet.get(vehicle_id)
    oracle = fleet.oracle
    schedules = feasible_schedules_for_commit(vehicle, request, oracle)
    assert schedules, f"vehicle {vehicle_id} cannot feasibly serve {request.request_id}"
    if planned_pickup_distance is None:
        # Promise the pick-up distance of the shortest candidate schedule.
        planned_pickup_distance = min(
            evaluate_schedule(vehicle.location, schedule, oracle.distance, vehicle.offset).pickup_distance[
                request.request_id
            ]
            for schedule in schedules
        )
    vehicle.assign(
        request,
        planned_pickup_distance=planned_pickup_distance,
        direct_distance=oracle.distance(request.start, request.destination),
        schedules=schedules,
    )
    fleet.refresh_vehicle(vehicle_id)


def option_points(options) -> List[Tuple[float, float]]:
    """Return the sorted (pickup, price) points of an option list (rounded)."""
    return sorted((round(o.pickup_distance, 6), round(o.price, 6)) for o in options)


# ----------------------------------------------------------------------
# fixtures
# ----------------------------------------------------------------------
@pytest.fixture
def figure1() -> RoadNetwork:
    """The reconstructed 17-vertex example network of Fig. 1."""
    return figure1_network()


@pytest.fixture
def figure1_oracle(figure1: RoadNetwork) -> CSREngine:
    return CSREngine(figure1)


@pytest.fixture
def figure1_fleet(figure1: RoadNetwork) -> Fleet:
    """The two-vehicle scenario of Section 2.5 (c1 at v1, c2 at v13), c1 serving R1."""
    fleet = build_fleet(figure1, [1, 13])
    request_r1 = Request(
        start=2, destination=16, riders=2, max_waiting=5.0, service_constraint=0.2, request_id="R1"
    )
    assign_request(fleet, "c1", request_r1, planned_pickup_distance=8.0)
    return fleet


@pytest.fixture
def paper_request_r2() -> Request:
    """The request R2 = <v12, v17, 2, 5, 0.2> of the worked example."""
    return Request(
        start=12, destination=17, riders=2, max_waiting=5.0, service_constraint=0.2, request_id="R2"
    )


@pytest.fixture
def paper_config() -> SystemConfig:
    """Global constraints matching the worked example."""
    return SystemConfig(max_waiting=5.0, service_constraint=0.2)


@pytest.fixture
def small_fleet() -> Fleet:
    """A seeded 12-vehicle fleet on an 8x8 jittered grid network."""
    return build_random_fleet()


@pytest.fixture
def small_dispatcher(small_fleet: Fleet) -> Dispatcher:
    """A dispatcher using the single-side matcher on the small fleet."""
    config = SystemConfig(max_waiting=6.0, service_constraint=0.4, max_pickup_distance=10.0)
    matcher = SingleSideSearchMatcher(small_fleet, config=config)
    return Dispatcher(small_fleet, matcher, config)


@pytest.fixture
def naive_dispatcher(small_fleet: Fleet) -> Dispatcher:
    """A dispatcher using the naive matcher on the small fleet."""
    config = SystemConfig(max_waiting=6.0, service_constraint=0.4, max_pickup_distance=10.0)
    matcher = NaiveKineticTreeMatcher(small_fleet, config=config)
    return Dispatcher(small_fleet, matcher, config)
