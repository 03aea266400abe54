"""Vehicles drive the same routes whichever routing backend plans them.

``plan_route`` reads its route from ``engine.path``, which every backend
answers by walking back along the source's distance tree.  The reference
day plans with the early-terminated search of ``tests/routing_reference.py``
(``search_path``) instead.
On a unit-weight grid shortest paths tie everywhere, so the only way they
all agree on every vehicle position at every tick is for the walk to break
ties exactly as the search does.
"""

from __future__ import annotations

import pytest

from repro.core.config import SystemConfig
from repro.core.dispatcher import Dispatcher
from repro.core.single_side import SingleSideSearchMatcher
from repro.roadnet.generators import grid_network
from repro.roadnet.grid_index import GridIndex
from repro.roadnet.routing import CSREngine, make_engine
from repro.service.api import build_system
from repro.sim.engine import SimulationEngine
from repro.sim.workload import RequestWorkload, random_requests
from repro.vehicles.fleet import Fleet
from repro.vehicles.vehicle import Vehicle

from tests.routing_arms import ROUTING_ARMS
from tests.routing_reference import search_path

TICKS = 120


class _SearchingEngine(CSREngine):
    """The csr engine, planning routes by search instead of the tree walk."""

    def path(self, source, target):
        return search_path(self.network, source, target)


def _positions(fleet):
    return [
        (vehicle.vehicle_id, vehicle.location, vehicle.offset, vehicle.distance_driven)
        for vehicle in fleet.vehicles()
    ]


def _deterministic(panel):
    """The panel minus its wall-clock entries."""
    return {key: value for key, value in panel.items() if "response_time" not in key}


def _run_day(engine_for):
    """One seeded day, tick by tick: ``(per-tick positions, panel, mid-edge re-plans)``."""
    network = grid_network(9, 9)  # unit weights: ties everywhere
    fleet = Fleet(GridIndex(network, rows=3, columns=3), engine_for(network))
    for index, location in enumerate((1, 9, 23, 41, 47, 62, 73, 81), 1):
        fleet.add_vehicle(Vehicle(f"c{index}", location=location, capacity=4))
    config = SystemConfig(max_waiting=10.0, service_constraint=0.6, max_pickup_distance=12.0)
    dispatcher = Dispatcher(fleet, SingleSideSearchMatcher(fleet, config=config), config)
    requests = random_requests(
        network, 40, duration=80.0, max_waiting=10.0, service_constraint=0.6, seed=5
    )
    # 0.4 edges a tick: assignments find wandering vehicles mid-edge
    engine = SimulationEngine(dispatcher, RequestWorkload(requests), speed=0.4, tick=1.0, seed=5)
    mid_edge_replans = []
    plan_towards = engine._plan_towards

    def spy(motion, target):
        if motion.offset > 0 and motion.has_route:
            mid_edge_replans.append((motion.location, motion.route[0], target))
        return plan_towards(motion, target)

    engine._plan_towards = spy
    timeline = []
    for _ in range(TICKS):
        engine.step()
        timeline.append(_positions(fleet))
    return timeline, _deterministic(engine.report().panel()), mid_edge_replans


@pytest.fixture(scope="module")
def searched_day():
    return _run_day(_SearchingEngine)


@pytest.mark.parametrize("backend", ROUTING_ARMS)
def test_walked_routes_equal_searched_routes_tick_by_tick(backend, searched_day):
    timeline, panel, mid_edge_replans = searched_day
    assert panel["pickups"] > 0 and mid_edge_replans  # the day exercises both
    walked_timeline, walked_panel, walked_replans = _run_day(
        lambda network: make_engine(network, backend)
    )
    for tick, (expected, actual) in enumerate(zip(timeline, walked_timeline), 1):
        assert actual == expected, f"tick {tick}"
    assert walked_panel == panel
    assert walked_replans == mid_edge_replans


@pytest.mark.parametrize("backend", ("csr+alt",))
def test_backend_swap_mid_run_keeps_vehicles_on_their_routes(backend):
    def service():
        return build_system(
            network=grid_network(8, 8), vehicles=6, grid_rows=2, grid_columns=2,
            seed=3, routing_backend="csr",
        )

    steady, swapped = service(), service()
    trips = [(1, 64), (8, 57), (28, 5), (60, 19), (33, 40), (12, 50)]
    served = 0
    for tick in range(60):
        if tick == 20:
            swapped.set_parameters(routing_backend=backend)
            assert swapped.fleet.routing_engine.backend == backend
        if tick % 8 == 0:
            start, destination = trips[(tick // 8) % len(trips)]
            for system in (steady, swapped):
                booking = system.book(start, destination)
                if booking.option_count:
                    system.choose(booking.booking_id, 0)
                    served += 1
        for system in (steady, swapped):
            system.advance(1.0)
        assert _positions(swapped.fleet) == _positions(steady.fleet), f"tick {tick}"
    assert served > 0
    assert steady.fleet.routing_engine.backend == "csr"
    keep = ("requests", "matched", "completed", "pickups", "dropoffs", "sharing_rate",
            "average_detour_ratio")
    steady_panel, swapped_panel = steady.statistics(), swapped.statistics()
    assert {k: swapped_panel[k] for k in keep} == {k: steady_panel[k] for k in keep}
