"""A commit installs what the old commit installed -- carried or re-enumerated.

``Dispatcher.commit`` no longer enumerates a chosen vehicle's insertions a
second time: it installs the candidates ``Matcher._verify_vehicle`` found
while pricing the option, as long as the vehicle's stamp says nothing changed
since.  These properties hold it to the commit it replaced
(``tests/commit_reference.py``) on twin fleets built from one draw -- taxis
mid-edge and serving, unit-weight and jittered grids, every routing backend:

* after ``book -> choose`` and after ``dispatch_batch`` the kinetic trees,
  request states and registered cells ``==`` the reference's;
* whatever happens to the taxi between ``book`` and ``choose`` -- the day
  advancing, another rider's commit, a pick-up or drop-off, the vehicle object
  being replaced, its tree being set directly -- the carried candidates are
  not installed: the commit enumerates afresh and ends where the reference
  ends, the same ``UnknownOptionError`` included.

Floats: both commits read start-side legs off different trees (the request's
start tree here, the canonical-rooted one there), so a direct distance may
differ in its last bit on jittered weights; it is compared to 1e-9 there and
exactly on unit weights, where every distance is an integer.
"""

from __future__ import annotations

import dataclasses
import random
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.core import dispatcher as dispatcher_module
from repro.core.dispatcher import Dispatcher, OptionPolicy
from repro.core.naive import NaiveKineticTreeMatcher
from repro.core.single_side import SingleSideSearchMatcher
from repro.errors import UnknownOptionError
from repro.model.request import Request
from repro.roadnet.routing import make_engine
from repro.service.api import PTRiderService
from repro.vehicles.fleet import restore_vehicle, snapshot_vehicle

from tests.commit_reference import reference_commit
from tests.property.test_matcher_equivalence import build_scenario
from tests.routing_arms import ROUTING_ARMS

scenario_parameters = st.fixed_dictionaries(
    dict(
        seed=st.integers(min_value=0, max_value=100_000),
        rows=st.integers(min_value=4, max_value=7),
        columns=st.integers(min_value=4, max_value=7),
        vehicle_count=st.integers(min_value=1, max_value=8),
        grid_rows=st.integers(min_value=2, max_value=4),
        preassigned=st.integers(min_value=0, max_value=3),
        max_pickup=st.sampled_from([None, 4.0, 8.0]),
        weight_jitter=st.sampled_from([0.0, 0.4]),
    )
)


def twins(parameters, backend):
    """The same draw built twice: (fleet, fleet, probe request, config)."""
    built = []
    for _ in range(2):
        fleet, probe, config = build_scenario(mid_edge_empty=True, **parameters)
        fleet.set_routing_engine(make_engine(fleet.grid.network, backend))
        built.append(fleet)
    return built[0], built[1], probe, config


def fleet_state(fleet, exact_direct):
    """Per vehicle: where it is, its kinetic tree, request states, cells."""

    def state_of(state):
        if exact_direct:
            return state
        return dataclasses.replace(state, direct_distance=round(state.direct_distance, 9))

    return {
        vehicle.vehicle_id: (
            vehicle.location,
            vehicle.offset,
            vehicle.kinetic_tree.schedules(),
            {rid: state_of(state) for rid, state in vehicle.request_states().items()},
            sorted(vehicle.registered_cells),
        )
        for vehicle in fleet.vehicles()
    }


def offered(options):
    return [(o.vehicle_id, o.pickup_distance, o.price, o.schedule) for o in options]


@pytest.mark.parametrize("backend", ROUTING_ARMS)
@given(scenario_parameters, st.integers(min_value=0, max_value=7))
@settings(max_examples=20, deadline=None)
def test_book_then_choose_installs_what_the_old_commit_did(backend, parameters, pick):
    fleet, twin, probe, config = twins(parameters, backend)
    service = PTRiderService(fleet, config=config, seed=parameters["seed"])
    reference_options = SingleSideSearchMatcher(twin, config=config).match(probe)
    booking = service.book_request(probe)
    assert offered(booking.options) == offered(reference_options)
    if not booking.options:
        return
    index = pick % len(booking.options)
    with mock.patch.object(
        dispatcher_module, "insertion_candidates", wraps=dispatcher_module.insertion_candidates
    ) as enumerate_again:
        service.choose(booking.booking_id, index)
    assert enumerate_again.call_count == 0  # the carried candidates were installed
    assert booking.context is None
    reference_commit(twin, probe, reference_options[index])
    exact = parameters["weight_jitter"] == 0.0
    assert fleet_state(fleet, exact) == fleet_state(twin, exact)


@pytest.mark.parametrize("backend", ROUTING_ARMS)
@given(scenario_parameters)
@settings(max_examples=15, deadline=None)
def test_dispatch_batch_installs_what_the_old_commits_did(backend, parameters):
    fleet, twin, probe, config = twins(parameters, backend)
    rng = random.Random(parameters["seed"] + 1)
    vertices = fleet.grid.network.vertices()
    requests = [probe]
    for index in range(4):
        start, destination = rng.sample(vertices, 2)
        requests.append(
            Request(
                start=start, destination=destination, riders=rng.randint(1, 2),
                max_waiting=6.0, service_constraint=0.6,
                request_id=f"batch-{parameters['seed']}-{index}",
            )
        )
    # The naive matcher on both sides: with empty taxis mid-edge the screened
    # searches may drop an option (the inadmissible empty-vehicle probe,
    # ROADMAP item 1), which is not what this property is about.  Verification, and so what a commit carries, is
    # the same code for every matcher.
    dispatcher = Dispatcher(fleet, NaiveKineticTreeMatcher(fleet, config=config), config)
    outcomes = dispatcher.dispatch_batch(requests)

    matcher = NaiveKineticTreeMatcher(twin, config=config)
    expected = []
    for request in requests:
        context = matcher.make_context(request)
        options = matcher.match(request, context)
        chosen = OptionPolicy.CHEAPEST.choose(options) if options else None
        if chosen is not None:
            # the old pipeline handed its commit the context's direct distance
            reference_commit(twin, request, chosen, direct=context.direct)
        expected.append((offered(options), chosen))
    assert [(offered(o.options), o.chosen) for o in outcomes] == expected
    assert fleet_state(fleet, True) == fleet_state(twin, True)


PERTURBATIONS = ["advance", "other_commit", "serve_stop", "replace", "set_schedules"]


def swap_in(fleet, vehicle):
    """Put ``vehicle`` in the slot of the registered vehicle with its id, as a
    snapshot restore into a live fleet would: the old object's cells are
    cleared and the new one is registered."""
    fleet._clear_cells(fleet.get(vehicle.vehicle_id))
    fleet._vehicles[vehicle.vehicle_id] = vehicle
    fleet.refresh_vehicle(vehicle.vehicle_id)


def perturb(service, action, vehicle_id, other):
    """Change ``vehicle_id``'s state the way ``action`` names; False if it could not."""
    fleet, dispatcher = service.fleet, service.dispatcher
    vehicle = fleet.get(vehicle_id)
    if action == "advance":
        service.advance(1.0)
        return True
    if action == "other_commit":
        if vehicle.has_request(other.request_id):
            return False
        for option in dispatcher.submit(other):
            if option.vehicle_id == vehicle_id:
                dispatcher.commit(other, option)
                return True
        return False
    if action == "serve_stop":
        stop = vehicle.kinetic_tree.next_stop(fleet.routing_engine.distance, vehicle.offset)
        if stop is None:
            return False
        vehicle.set_location(stop.vertex)
        vehicle.arrive_at_stop(stop)
        if stop.is_pickup:
            dispatcher.notify_pickup(vehicle_id, stop.request_id)
        else:
            dispatcher.notify_dropoff(vehicle_id, stop.request_id)
        return True
    if action == "replace":
        swap_in(fleet, restore_vehicle(snapshot_vehicle(vehicle)))
        return True
    # a caller reaching past the vehicle, straight into its tree
    vehicle.kinetic_tree.set_schedules(vehicle.kinetic_tree.schedules()[:1])
    return True


@pytest.mark.parametrize("backend", ROUTING_ARMS)
@given(
    scenario_parameters,
    st.integers(min_value=0, max_value=7),
    st.lists(st.sampled_from(PERTURBATIONS), min_size=1, max_size=3),
)
@settings(max_examples=30, deadline=None)
def test_a_stale_verification_is_never_installed(backend, parameters, pick, actions):
    fleet, twin, probe, config = twins(parameters, backend)
    seed = parameters["seed"]
    services = [PTRiderService(each, config=config, seed=seed) for each in (fleet, twin)]
    bookings = [service.book_request(probe) for service in services]
    assert offered(bookings[0].options) == offered(bookings[1].options)
    if not bookings[0].options:
        return
    index = pick % len(bookings[0].options)
    vehicle_id = bookings[0].options[index].vehicle_id
    rng = random.Random(seed + 2)
    start, destination = rng.sample(fleet.grid.network.vertices(), 2)
    other = Request(
        start=start, destination=destination, riders=1, max_waiting=6.0,
        service_constraint=0.6, request_id=f"other-{seed}",
    )
    applied = [
        [perturb(service, action, vehicle_id, other) for action in actions]
        for service in services
    ]
    assert applied[0] == applied[1]
    if not any(applied[0]):
        return
    event("perturbed: " + ", ".join(a for a, done in zip(actions, applied[0]) if done))

    results = []
    with mock.patch.object(
        dispatcher_module, "insertion_candidates", wraps=dispatcher_module.insertion_candidates
    ) as enumerate_again:
        try:
            services[0].choose(bookings[0].booking_id, index)
            results.append(None)
        except UnknownOptionError as error:
            results.append(str(error))
    assert enumerate_again.call_count == 1  # not what the booking carried
    try:
        reference_commit(twin, probe, bookings[1].options[index])
        results.append(None)
    except UnknownOptionError as error:
        results.append(str(error))
    assert results[0] == results[1]
    event("refused" if results[0] else "installed")
    exact = parameters["weight_jitter"] == 0.0
    assert fleet_state(fleet, exact) == fleet_state(twin, exact)
