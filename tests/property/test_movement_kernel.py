"""Property-based equivalence: the per-taxi movement loop == the per-leg loop.

``SimulationEngine`` spends an empty taxi's whole remaining budget in one
wander loop that writes its motion state, location and kinetic-tree root once
per tick, and steps serving routes by index.  ``tests/movement_reference.py``
keeps the loop it replaced (``random_idle_route`` per leg, the list-popping
``step_along_route``, state written after every leg).  Two copies of one
drawn world -- one per engine -- are stepped tick by tick and must agree after
every tick on the RNG state, ``_motions``, ``_targets``, each vehicle's
``location``, ``offset`` and ``distance_driven`` (bit-equal) and the grid
registration.

Worlds are small jittered grids with a dead-end street (a pendant vertex)
and, optionally, a stranded vertex with no road at all, where the three-hop
draw stops at once; taxis may start mid-edge; requests are assigned directly
(no matcher), some of them mid-run, so serving taxis drop their last rider
inside a tick and wander on with what is left of it; speeds run from a
fraction of an edge to several legs per tick, with ``idle_wander`` on or off.
"""

from __future__ import annotations

from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.core.config import SystemConfig
from repro.core.dispatcher import Dispatcher
from repro.core.single_side import SingleSideSearchMatcher
from repro.model.request import Request
from repro.roadnet.generators import grid_network
from repro.roadnet.grid_index import GridIndex
from repro.roadnet.routing import make_engine
from repro.sim.engine import SimulationEngine
from repro.sim.workload import RequestWorkload
from repro.vehicles.fleet import Fleet
from repro.vehicles.movement import MotionState
from repro.vehicles.vehicle import Vehicle

from tests.commit_reference import feasible_schedules_for_commit
from tests.movement_reference import ReferenceSimulationEngine


@st.composite
def movement_cases(draw):
    rows = draw(st.integers(min_value=2, max_value=5))
    columns = draw(st.integers(min_value=2, max_value=5))
    corners = rows * columns
    taxis = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=corners),  # start vertex
                st.none() | st.tuples(st.integers(0, 3), st.floats(0.05, 0.95)),  # mid-edge
            ),
            min_size=1,
            max_size=5,
        )
    )
    trips = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=8),  # tick it is assigned at
                st.integers(min_value=0, max_value=4),  # taxi
                st.integers(min_value=1, max_value=corners + 1),  # start (incl. dead end)
                st.integers(min_value=1, max_value=corners + 1),  # destination
            ),
            max_size=6,
        )
    )
    return {
        "rows": rows,
        "columns": columns,
        "jitter": draw(st.floats(min_value=0.0, max_value=0.9)),
        "network_seed": draw(st.integers(min_value=0, max_value=10_000)),
        "pendant_weight": draw(st.floats(min_value=1.0, max_value=2.0)),
        "stranded": draw(st.booleans()),
        "taxis": taxis,
        "trips": trips,
        "speed": draw(st.floats(min_value=0.05, max_value=10.0)),
        "ticks": draw(st.integers(min_value=1, max_value=40)),
        "idle_wander": draw(st.booleans()),
        "seed": draw(st.integers(min_value=0, max_value=2**32 - 1)),
    }


def _network(case):
    network = grid_network(
        case["rows"], case["columns"], weight_jitter=case["jitter"], seed=case["network_seed"]
    )
    dead_end = case["rows"] * case["columns"] + 1
    network.add_vertex(dead_end, x=-1.0, y=0.0)
    network.add_edge(1, dead_end, case["pendant_weight"])  # >= its Euclidean length
    if case["stranded"]:
        network.add_vertex(dead_end + 1, x=0.5, y=0.5)
    return network


def _world(case, engine_class):
    """One copy of the drawn world, driven by ``engine_class``."""
    network = _network(case)
    fleet = Fleet(GridIndex(network, rows=2, columns=2), make_engine(network, "csr"))
    config = SystemConfig(max_waiting=1e6, service_constraint=50.0)
    dispatcher = Dispatcher(fleet, SingleSideSearchMatcher(fleet, config=config), config)
    engine = engine_class(
        dispatcher, RequestWorkload([]), speed=case["speed"], tick=1.0,
        seed=case["seed"], idle_wander=case["idle_wander"],
    )
    for index, (location, mid_edge) in enumerate(case["taxis"], 1):
        vehicle = Vehicle(f"c{index}", location=location, capacity=4)
        fleet.add_vehicle(vehicle)
        if mid_edge is not None:
            # partway along an edge, with the rest of the edge as the route
            choice, fraction = mid_edge
            neighbours = sorted(network.neighbours_view(location))
            head = neighbours[choice % len(neighbours)]
            length = network.edge_weight(location, head)
            engine._motions[vehicle.vehicle_id] = MotionState(
                location=location, route=(head,), offset=fraction * length
            )
            vehicle.set_location(head, offset=length - fraction * length)
            fleet.refresh_vehicle(vehicle.vehicle_id)
    if case["stranded"]:
        stranded = Vehicle("stranded", location=max(network.vertices()), capacity=4)
        fleet.add_vehicle(stranded)
    return engine, fleet


def _assign_due(case, tick, engine, fleet):
    """Assign the trips due at ``tick`` straight to their taxis (no matcher)."""
    taxis = len(case["taxis"])
    for number, (at, taxi, start, destination) in enumerate(case["trips"]):
        if at != tick or start == destination:
            continue
        vehicle = fleet.get(f"c{taxi % taxis + 1}")
        if len(vehicle.unfinished_request_ids()) >= 2:
            continue  # loose constraints: every ordering is valid, trees explode
        request = Request(
            start=start, destination=destination, riders=1, max_waiting=1e6,
            service_constraint=50.0, request_id=f"R{number}",
        )
        schedules = feasible_schedules_for_commit(vehicle, request, fleet.oracle)
        if not schedules:
            continue
        vehicle.assign(
            request,
            planned_pickup_distance=1e6,
            direct_distance=fleet.oracle.distance(start, destination),
            schedules=schedules,
        )
        fleet.refresh_vehicle(vehicle.vehicle_id)
        engine.register_assignment(request.request_id, vehicle.vehicle_id, 1e6)


def _observed(engine, fleet):
    vehicles = [
        (
            vehicle.vehicle_id,
            vehicle.location,
            vehicle.offset.hex(),
            vehicle.distance_driven.hex(),
            vehicle.kinetic_tree.root_location,
            sorted(vehicle.registered_cells),
        )
        for vehicle in fleet.vehicles()
    ]
    motions = {
        vid: (motion.location, motion.route, motion.offset.hex())
        for vid, motion in engine._motions.items()
    }
    cells = [
        (cell.cell_id, sorted(cell.empty_vehicles), sorted(cell.nonempty_vehicles))
        for cell in fleet.grid.cells()
    ]
    return engine._rng.getstate(), motions, dict(engine._targets), vehicles, cells


def _drive_both(case):
    """Step both worlds tick by tick, asserting equality after each tick;
    returns how many times a taxi emptied inside a tick and wandered on."""
    engine, fleet = _world(case, SimulationEngine)
    reference, reference_fleet = _world(case, ReferenceSimulationEngine)
    wandered_after_dropoff = 0
    wander = engine._wander
    serving_at_tick_start = set()

    def spy(vehicle, budget, guard):
        nonlocal wandered_after_dropoff
        if vehicle.vehicle_id in serving_at_tick_start:
            wandered_after_dropoff += 1
        return wander(vehicle, budget, guard)

    engine._wander = spy
    assert _observed(engine, fleet) == _observed(reference, reference_fleet)
    for tick in range(case["ticks"]):
        _assign_due(case, tick, engine, fleet)
        _assign_due(case, tick, reference, reference_fleet)
        serving_at_tick_start = {v.vehicle_id for v in fleet.vehicles() if not v.is_empty}
        engine.step()
        reference.step()
        assert _observed(engine, fleet) == _observed(reference, reference_fleet), f"tick {tick + 1}"
    return wandered_after_dropoff


@given(case=movement_cases())
@settings(max_examples=200, deadline=None)
def test_engine_moves_every_taxi_as_the_per_leg_loop_did(case):
    if _drive_both(case):
        event("a taxi dropped its last rider mid-tick and wandered on")


def test_a_taxi_emptied_mid_tick_wanders_the_rest_of_it():
    """A fixed world where the case above is certain to occur: each taxi gets
    one trip of one to three edges, one of them from the dead end, and a tick
    covers more than one leg."""
    case = {
        "rows": 4, "columns": 4, "jitter": 0.4, "network_seed": 3, "pendant_weight": 1.3,
        "stranded": True, "taxis": [(6, (1, 0.4)), (11, None), (16, None)],
        "trips": [(0, 0, 7, 8), (2, 1, 10, 14), (5, 2, 17, 3)],
        "speed": 3.7, "ticks": 25, "idle_wander": True, "seed": 12345,
    }
    assert _drive_both(case) >= 3
    assert _drive_both(dict(case, idle_wander=False)) == 0
