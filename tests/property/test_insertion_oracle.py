"""The insertion kernel against two independent oracles.

``repro.core.insertion.insertion_candidates`` evaluates ``(branch, i, j)``
insertions incrementally over shared prefixes.  ``tests/insertion_reference.py``
keeps the per-candidate path it replaced, and a brute force that checks
Definition 2 directly.  Over fleets that have been *driven* -- so kinetic
trees hold stale branches, riders are on board, vehicles sit mid-edge and
capacity binds -- the kernel's one exact scan must return the reference's
candidate list with ``==`` (schedules, order, floats), both as the reference
runs without a grid and as it runs the old two-scan design with one, and
count the same enumerated and feasible candidates.
"""

from __future__ import annotations

import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SystemConfig
from repro.core.dispatcher import Dispatcher
from repro.core.insertion import InsertionStatistics, insertion_candidates
from repro.core.naive import NaiveKineticTreeMatcher
from repro.model.request import Request
from repro.roadnet.generators import grid_network
from repro.sim.engine import SimulationEngine
from repro.sim.workload import RequestWorkload

from tests.conftest import assign_request, build_fleet
from tests.insertion_reference import (
    brute_force_insertions,
    brute_force_orderings,
    check_schedule,
    enumerate_insertions,
    new_stops,
    reference_insertion_candidates,
)


@st.composite
def driven_fleets(draw):
    """A small fleet after a few ticks of serving a request stream, plus a probe."""
    seed = draw(st.integers(min_value=0, max_value=100_000))
    rng = random.Random(seed)
    network = grid_network(
        draw(st.integers(min_value=4, max_value=6)),
        draw(st.integers(min_value=4, max_value=6)),
        weight_jitter=0.4,
        seed=seed,
    )
    vertices = network.vertices()
    capacity = draw(st.sampled_from([2, 3, 4]))
    vehicle_count = draw(st.integers(min_value=1, max_value=3))
    grid_rows = draw(st.integers(min_value=2, max_value=4))
    fleet = build_fleet(
        network,
        [rng.choice(vertices) for _ in range(vehicle_count)],
        capacity=capacity,
        grid_rows=grid_rows,
        grid_columns=grid_rows,
    )
    # Loose constraints grow long kinetic trees; tight ones make bounds fire.
    max_waiting = draw(st.sampled_from([3.0, 8.0, 20.0]))
    service_constraint = draw(st.sampled_from([0.2, 0.8, 2.0]))
    ticks = draw(st.integers(min_value=0, max_value=6))
    requests = []
    for index in range(draw(st.integers(min_value=1, max_value=9))):
        start, destination = rng.sample(vertices, 2)
        requests.append(
            Request(
                start=start, destination=destination, riders=rng.randint(1, capacity),
                max_waiting=max_waiting, service_constraint=service_constraint,
                request_id=f"r-{seed}-{index}", submit_time=float(rng.randint(0, max(ticks - 1, 0))),
            )
        )
    config = SystemConfig(max_waiting=max_waiting, service_constraint=service_constraint)
    dispatcher = Dispatcher(fleet, NaiveKineticTreeMatcher(fleet, config=config), config)
    engine = SimulationEngine(
        dispatcher,
        RequestWorkload(requests),
        # a speed that is no multiple of the edge weights leaves vehicles mid-edge
        speed=draw(st.sampled_from([0.35, 0.8, 1.3])),
        seed=seed,
        idle_wander=draw(st.booleans()),
    )
    engine.run(max_ticks=ticks + 1)
    start, destination = rng.sample(vertices, 2)
    probe = Request(
        start=start, destination=destination, riders=rng.randint(1, capacity),
        max_waiting=max_waiting, service_constraint=service_constraint,
        request_id=f"probe-{seed}",
    )
    return fleet, probe


@given(driven_fleets())
@settings(max_examples=120, deadline=None)
def test_kernel_equals_per_candidate_reference(scenario):
    fleet, probe = scenario
    for vehicle in fleet.vehicles():
        stats, plain_stats, two_scan_stats = (InsertionStatistics() for _ in range(3))
        got = insertion_candidates(vehicle, probe, fleet.oracle, statistics=stats)
        # dataclass equality: schedule tuples, base schedules and every float, bit for bit
        assert got == reference_insertion_candidates(
            vehicle, probe, fleet.oracle, None, statistics=plain_stats
        )
        assert got == reference_insertion_candidates(
            vehicle, probe, fleet.oracle, fleet.grid, statistics=two_scan_stats
        )
        assert stats == plain_stats
        branches = vehicle.kinetic_tree.schedules() or [()]
        assert stats.candidates_enumerated == two_scan_stats.candidates_enumerated == sum(
            (len(branch) + 1) * (len(branch) + 2) // 2 for branch in branches
        )
        assert stats.candidates_feasible == two_scan_stats.candidates_feasible == len(got)
        assert stats.candidates_rejected_by_bounds == 0


@given(driven_fleets())
@settings(max_examples=120, deadline=None)
def test_the_append_is_always_a_candidate(scenario):
    """Why no bound pre-scan can spare the exact scan: putting both new stops
    after a valid branch's last stop delays nobody and finds the vehicle
    empty, so ``(size, size)`` is feasible (the probe's riders fit an empty
    vehicle) -- a serving vehicle never verifies to ``[]``."""
    fleet, probe = scenario
    new_pickup, new_dropoff = new_stops(probe)
    for vehicle in fleet.vehicles():
        got = insertion_candidates(vehicle, probe, fleet.oracle)
        appended = {c.base_schedule for c in got if c.schedule[-2:] == (new_pickup, new_dropoff)}
        valid = {
            branch
            for branch in vehicle.kinetic_tree.schedules() or [()]
            if check_schedule(
                origin=vehicle.location, stops=branch, capacity=vehicle.capacity,
                onboard_riders=vehicle.occupancy, request_states=vehicle.request_states(),
                distance=fleet.oracle.distance, origin_offset=vehicle.offset,
            )
        }
        assert valid <= appended
        if valid:
            assert got


@given(driven_fleets())
@settings(max_examples=60, deadline=None)
def test_kernel_equals_definition2_brute_force(scenario):
    fleet, probe = scenario
    distance = fleet.oracle.distance
    for vehicle in fleet.vehicles():
        if max(map(len, vehicle.kinetic_tree.schedules()), default=0) > 6:
            continue  # the brute force is for small schedules
        got = insertion_candidates(vehicle, probe, fleet.oracle)
        assert [
            (c.schedule, c.pickup_distance, c.total_distance) for c in got
        ] == brute_force_insertions(vehicle, probe, distance)


@given(driven_fleets())
@settings(max_examples=60, deadline=None)
def test_no_two_insertions_produce_the_same_schedule(scenario):
    """Why the kernel has no ``seen`` set: branches are unique after
    ``KineticTree.set_schedules`` / ``advance_through``, ``has_request`` keeps
    the new stops distinct from every branch stop, and the new stops'
    positions identify ``(i, j)`` -- so ``(branch, i, j)`` schedules never
    collide and a dedup pass could never hit."""
    fleet, probe = scenario
    new_pickup, new_dropoff = new_stops(probe)
    for vehicle in fleet.vehicles():
        assert not vehicle.has_request(probe.request_id)
        branches = vehicle.kinetic_tree.schedules()
        assert len(set(branches)) == len(branches)
        produced = Counter(
            schedule
            for branch in branches or [()]
            for schedule in enumerate_insertions(branch, new_pickup, new_dropoff)
        )
        assert all(count == 1 for count in produced.values())


@st.composite
def parked_vehicles(draw):
    """One vehicle that has not moved since its requests were assigned."""
    seed = draw(st.integers(min_value=0, max_value=100_000))
    rng = random.Random(seed)
    network = grid_network(5, 5, weight_jitter=0.4, seed=seed)
    vertices = network.vertices()
    capacity = draw(st.sampled_from([2, 4]))
    fleet = build_fleet(network, [rng.choice(vertices)], capacity=capacity, grid_rows=3, grid_columns=3)
    max_waiting = draw(st.sampled_from([4.0, 12.0]))
    service_constraint = draw(st.sampled_from([0.4, 1.5]))

    def request(name):
        start, destination = rng.sample(vertices, 2)
        return Request(
            start=start, destination=destination, riders=rng.randint(1, 2),
            max_waiting=max_waiting, service_constraint=service_constraint,
            request_id=f"{name}-{seed}",
        )

    for index in range(draw(st.integers(min_value=0, max_value=2))):
        try:
            assign_request(fleet, "c1", request(f"pre{index}"))
        except AssertionError:
            pass
    return fleet, request("probe")


@given(parked_vehicles())
@settings(max_examples=60, deadline=None)
def test_parked_vehicle_offers_every_valid_ordering(scenario):
    """Kinetic tree + insertion against all permutations: while the vehicle
    stands where its requests were assigned, inserting into the tree's
    branches finds exactly the orderings Definition 2 allows."""
    fleet, probe = scenario
    vehicle = fleet.get("c1")
    got = insertion_candidates(vehicle, probe, fleet.oracle)
    assert sorted(map(str, (c.schedule for c in got))) == sorted(
        map(str, brute_force_orderings(vehicle, probe, fleet.oracle.distance))
    )
