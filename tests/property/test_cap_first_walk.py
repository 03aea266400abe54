"""The cap-first cell walk against the sorted-list walk it replaced.

``SingleSideSearchMatcher._collect_options`` -- which the dual-side matcher
inherits -- tests each visited cell's registrations against the pick-up cap
before it sorts, probes or screens anything, and runs the per-cell dominance
probes only once the skyline holds an option.  Nothing a caller can observe
may move.  Per request, the walk is compared with
:class:`tests.pruning_reference.SortedListWalk` mixed into the same matcher:

* the ``_consider`` calls that screen a vehicle past the cap, in order;
* the options, ``==`` (vehicle ids, floats and schedules);
* the keys of ``MatchContext.verified``, in order;
* every ``MatcherStatistics`` field (or the same error, raised alike).

The fleets are driven through the simulation (mid-edge taxis, multi-branch
kinetic trees), and then given what the grid lists can hold besides: a taxi
still registered in a cell it has left (what ROADMAP item 1(a)'s registration
bug leaves behind), a removed taxi whose id is still registered, an id no
taxi ever had, and a taxi on an island the start tree does not hold.  Caps
``None`` to tight, csr and csr+alt engines.  A pinned
fleet puts one taxi's bound exactly on ``cap + 1e-9`` and one ulp either side.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SystemConfig
from repro.core.context import BOUND_SLACK
from repro.core.dispatcher import Dispatcher
from repro.core.dual_side import DualSideSearchMatcher
from repro.core.single_side import SingleSideSearchMatcher
from repro.model.request import Request
from repro.roadnet.generators import grid_network
from repro.roadnet.routing import ROUTING_BACKENDS, make_engine
from repro.sim.engine import SimulationEngine
from repro.sim.workload import RequestWorkload
from repro.vehicles.vehicle import Vehicle

from tests.conftest import assign_request, build_fleet
from tests.pruning_reference import ListWalkDualSideMatcher, ListWalkSingleSideMatcher
from tests.routing_arms import ROUTING_ARMS

ISLAND = 9_001


class _Recording:
    """Records the ``_consider`` calls that screen a vehicle past the cap:
    a first look at it (``vehicles_considered`` moves) that the cap did not
    end (``vehicles_beyond_cap`` stays)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.screened = []

    def _consider(self, vehicle, context, max_pickup, seen, skyline):
        statistics = self.statistics
        considered, beyond = statistics.vehicles_considered, statistics.vehicles_beyond_cap
        super()._consider(vehicle, context, max_pickup, seen, skyline)
        if statistics.vehicles_considered > considered and statistics.vehicles_beyond_cap == beyond:
            self.screened.append(vehicle.vehicle_id)


class CapFirstSingle(_Recording, SingleSideSearchMatcher):
    pass


class CapFirstDual(_Recording, DualSideSearchMatcher):
    pass


class ListWalkSingle(_Recording, ListWalkSingleSideMatcher):
    pass


class ListWalkDual(_Recording, ListWalkDualSideMatcher):
    pass


PAIRS = [(CapFirstSingle, ListWalkSingle), (CapFirstDual, ListWalkDual)]


def _answer(matcher_class, fleet, config, probe):
    """What one walk did for ``probe``: its result, the vehicles it screened
    past the cap, the verification order and its counters."""
    matcher = matcher_class(fleet, config=config)
    context = matcher.make_context(probe)
    try:
        result = ("options", matcher.match(probe, context))
    except Exception as error:  # noqa: BLE001 - both walks must fail alike
        result = ("error", type(error), error.args)
    return result, matcher.screened, list(context.verified), matcher.statistics


@st.composite
def driven_scenarios(draw):
    """A fleet driven busy, the leftovers a grid list can hold, and probes."""
    seed = draw(st.integers(min_value=0, max_value=100_000))
    rng = random.Random(seed)
    network = grid_network(
        draw(st.integers(min_value=4, max_value=7)),
        draw(st.integers(min_value=4, max_value=7)),
        weight_jitter=0.4,
        seed=seed,
    )
    vertices = network.vertices()
    corner = network.coordinate(vertices[-1])
    network.add_vertex(ISLAND, x=corner.x, y=corner.y)
    grid_rows = draw(st.integers(min_value=2, max_value=4))
    locations = [rng.choice(vertices) for _ in range(draw(st.integers(min_value=2, max_value=8)))]
    fleet = build_fleet(network, locations, capacity=4, grid_rows=grid_rows, grid_columns=grid_rows)
    fleet.set_routing_engine(make_engine(network, draw(st.sampled_from(ROUTING_BACKENDS))))

    ticks = draw(st.integers(min_value=0, max_value=4))
    stream = []
    for index in range(draw(st.integers(min_value=0, max_value=8))):
        start, destination = rng.sample(vertices, 2)
        stream.append(
            Request(
                start=start, destination=destination, riders=rng.randint(1, 2),
                max_waiting=8.0, service_constraint=0.8, request_id=f"w-{seed}-{index}",
                submit_time=float(rng.randint(0, max(ticks - 1, 0))),
            )
        )
    drive = SystemConfig(max_waiting=8.0, service_constraint=0.8)
    dispatcher = Dispatcher(fleet, SingleSideSearchMatcher(fleet, config=drive), drive)
    SimulationEngine(
        dispatcher, RequestWorkload(stream), speed=draw(st.sampled_from([0.35, 0.8, 1.3])),
        seed=seed, idle_wander=False,
    ).run(max_ticks=ticks)

    grid = fleet.grid
    taxis = fleet.vehicles()
    if draw(st.booleans()):
        # still registered in a cell it has left
        taxi = rng.choice(taxis)
        elsewhere = grid.cell_of_vertex(rng.choice(vertices)).cell_id
        if taxi.is_empty:
            grid.register_empty_vehicle(taxi.vehicle_id, rng.choice(vertices))
        else:
            grid.register_nonempty_vehicle(taxi.vehicle_id, [elsewhere])
    if draw(st.booleans()):
        # removed from the fleet, its id left in the lists
        taxi = rng.choice(taxis)
        cells, was_empty = set(taxi.registered_cells), taxi.is_empty
        fleet._clear_cells(taxi)
        del fleet._vehicles[taxi.vehicle_id]
        if was_empty:
            grid.register_empty_vehicle(taxi.vehicle_id, taxi.location)
        else:
            grid.register_nonempty_vehicle(taxi.vehicle_id, cells)
    if draw(st.booleans()):
        grid.register_nonempty_vehicle("ghost", [grid.cell_of_vertex(rng.choice(vertices)).cell_id])
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        # verified with an empty skyline, it raises: both walks must raise alike
        fleet.add_vehicle(Vehicle("island", location=ISLAND, capacity=4))

    probes = []
    for index in range(3):
        start, destination = rng.sample(vertices, 2)
        probes.append(
            Request(
                start=start, destination=destination, riders=rng.randint(1, 3),
                max_waiting=8.0, service_constraint=0.8, request_id=f"p-{seed}-{index}",
            )
        )
    cap = draw(st.sampled_from([None, 1.5, 3.0, 5.0]))
    config = SystemConfig(max_waiting=8.0, service_constraint=0.8, max_pickup_distance=cap)
    return fleet, config, probes


@given(driven_scenarios())
@settings(max_examples=40, deadline=None)
def test_cap_first_walk_equals_the_sorted_list_walk(scenario):
    fleet, config, probes = scenario
    for cap_first, list_walk in PAIRS:
        for probe in probes:
            assert _answer(cap_first, fleet, config, probe) == _answer(
                list_walk, fleet, config, probe
            )


def _offset_onto(floor, target):
    """The offset that makes ``floor + offset`` round to exactly ``target``."""
    offset = target - floor
    while floor + offset < target:
        offset = math.nextafter(offset, math.inf)
    while floor + offset > target:
        offset = math.nextafter(offset, -math.inf)
    return offset


@pytest.mark.parametrize("backend", ROUTING_ARMS)
@pytest.mark.parametrize("serving", [False, True])
@pytest.mark.parametrize("ulps", [-1, 0, 1])
def test_a_bound_on_the_cap_is_let_through_and_one_ulp_above_is_not(backend, serving, ulps):
    """``c1``'s pick-up bound is put on ``cap + 1e-9`` to the bit, or one ulp
    below or above it: the comparison is strict, so only the ulp above is
    pruned at the cap, and both walks decide alike."""
    network = grid_network(6, 6, weight_jitter=0.3, seed=5)
    vertices = network.vertices()
    fleet = build_fleet(network, [vertices[33]], grid_rows=3, grid_columns=3)
    fleet.set_routing_engine(make_engine(network, backend))
    if serving:
        assign_request(
            fleet, "c1",
            Request(start=vertices[27], destination=vertices[20], riders=1, max_waiting=8.0,
                    service_constraint=0.8, request_id="onboard"),
        )
    probe = Request(start=vertices[7], destination=vertices[16], riders=1, max_waiting=9.0,
                    service_constraint=0.8, request_id="edge")
    taxi = fleet.get("c1")
    exact = fleet.routing_engine.distances_from(probe.start)[taxi.location]
    cap = math.floor(exact) + 1.25
    target = cap + 1e-9
    for _ in range(abs(ulps)):
        target = math.nextafter(target, math.copysign(math.inf, ulps))
    floor = exact - BOUND_SLACK
    taxi.set_location(taxi.location, _offset_onto(floor, target))
    assert floor + taxi.offset == target
    config = SystemConfig(max_waiting=9.0, service_constraint=0.8, max_pickup_distance=cap)

    for cap_first, list_walk in PAIRS:
        answer = _answer(cap_first, fleet, config, probe)
        assert answer == _answer(list_walk, fleet, config, probe)
        _result, screened, _verified, statistics = answer
        assert statistics.vehicles_considered == 1
        assert statistics.vehicles_beyond_cap == (1 if ulps > 0 else 0)
        assert screened == ([] if ulps > 0 else ["c1"])
