"""Unit tests for the dispatcher (request / options / choice cycle)."""

from __future__ import annotations

import pytest

from repro.core.dispatcher import DispatchOutcome, Dispatcher, OptionPolicy
from repro.core.naive import NaiveKineticTreeMatcher
from repro.core.config import SystemConfig
from repro.errors import MatchingError, UnknownOptionError
from repro.model.options import RideOption
from repro.model.request import Request
from repro.sim.workload import random_requests

from tests.conftest import build_random_fleet


def make_options():
    return [
        RideOption(vehicle_id="a", pickup_distance=2.0, price=8.0),
        RideOption(vehicle_id="b", pickup_distance=6.0, price=3.0),
        RideOption(vehicle_id="c", pickup_distance=4.0, price=5.0),
    ]


class TestOptionPolicy:
    def test_cheapest(self):
        assert OptionPolicy.CHEAPEST.choose(make_options()).vehicle_id == "b"

    def test_fastest(self):
        assert OptionPolicy.FASTEST.choose(make_options()).vehicle_id == "a"

    def test_balanced_picks_compromise(self):
        assert OptionPolicy.BALANCED.choose(make_options()).vehicle_id == "c"

    def test_first(self):
        assert OptionPolicy.FIRST.choose(make_options()).vehicle_id == "a"

    def test_empty_raises(self):
        with pytest.raises(MatchingError):
            OptionPolicy.CHEAPEST.choose([])


@pytest.fixture
def dispatcher():
    fleet = build_random_fleet(vehicles=10, seed=9)
    config = SystemConfig(max_waiting=6.0, service_constraint=0.4)
    matcher = NaiveKineticTreeMatcher(fleet, config=config)
    return Dispatcher(fleet, matcher, config)


class TestSubmitCommit:
    def test_submit_returns_options(self, dispatcher):
        request = random_requests(dispatcher.fleet.grid.network, 1, 6.0, 0.4, seed=2)[0]
        options = dispatcher.submit(request)
        assert options
        assert all(option.request_id == request.request_id for option in options)

    def test_commit_assigns_vehicle(self, dispatcher):
        request = random_requests(dispatcher.fleet.grid.network, 1, 6.0, 0.4, seed=3)[0]
        options = dispatcher.submit(request)
        dispatcher.commit(request, options[0])
        vehicle = dispatcher.fleet.get(options[0].vehicle_id)
        serving = [v.vehicle_id for v in dispatcher.fleet.vehicles() if v.has_request(request.request_id)]
        assert serving == [vehicle.vehicle_id]

    def test_commit_wrong_request_rejected(self, dispatcher):
        request = random_requests(dispatcher.fleet.grid.network, 1, 6.0, 0.4, seed=4)[0]
        foreign = RideOption(vehicle_id="c1", pickup_distance=1.0, price=1.0, request_id="other")
        with pytest.raises(UnknownOptionError):
            dispatcher.commit(request, foreign)

    def test_commit_infeasible_vehicle_rejected(self, dispatcher):
        request = Request(start=1, destination=5, riders=9, max_waiting=6.0, service_constraint=0.4)
        option = RideOption(vehicle_id="c1", pickup_distance=1.0, price=1.0, request_id=request.request_id)
        with pytest.raises(UnknownOptionError):
            dispatcher.commit(request, option)

    def test_commit_rejects_broken_pickup_promise(self, dispatcher):
        """A promise the vehicle can no longer honour within ``w`` is refused.

        The option pretends a zero-distance pick-up was promised while the
        request allows no extra waiting, so every (otherwise feasible)
        schedule exceeds the promised-pickup budget and the commit's
        promised-pick-up filter must empty the schedule list.
        """
        network = dispatcher.fleet.grid.network
        base = random_requests(network, 1, 6.0, 0.4, seed=11)[0]
        options = dispatcher.submit(base)
        assert options
        real = options[0]
        assert real.pickup_distance > 0  # otherwise the promise is trivially kept
        tight = Request(
            start=base.start, destination=base.destination, riders=base.riders,
            max_waiting=0.0, service_constraint=base.service_constraint,
            request_id=base.request_id,
        )
        broken_promise = RideOption(
            vehicle_id=real.vehicle_id, pickup_distance=0.0, price=real.price,
            request_id=tight.request_id,
        )
        with pytest.raises(UnknownOptionError):
            dispatcher.commit(tight, broken_promise)
        # the honest promise with the same waiting budget still commits
        honest = RideOption(
            vehicle_id=real.vehicle_id, pickup_distance=real.pickup_distance,
            price=real.price, request_id=tight.request_id,
        )
        dispatcher.commit(tight, honest)
        assert dispatcher.fleet.get(real.vehicle_id).has_request(tight.request_id)

    def test_normalise_applies_global_constraints(self, dispatcher):
        request = Request(start=1, destination=5, riders=1, max_waiting=99.0, service_constraint=9.0)
        normalised = dispatcher.normalise(request)
        assert normalised.max_waiting == dispatcher.config.max_waiting
        assert normalised.service_constraint == dispatcher.config.service_constraint
        assert normalised.request_id == request.request_id

    def test_normalise_noop_when_already_global(self, dispatcher):
        request = Request(
            start=1, destination=5, riders=1,
            max_waiting=dispatcher.config.max_waiting,
            service_constraint=dispatcher.config.service_constraint,
        )
        assert dispatcher.normalise(request) is request


class TestDispatch:
    def test_dispatch_matches_and_commits(self, dispatcher):
        request = random_requests(dispatcher.fleet.grid.network, 1, 6.0, 0.4, seed=5)[0]
        outcome = dispatcher.dispatch(request, policy=OptionPolicy.CHEAPEST)
        assert isinstance(outcome, DispatchOutcome)
        assert outcome.matched
        assert outcome.option_count >= 1
        assert outcome.match_seconds >= 0.0
        assert outcome.chosen.price == min(option.price for option in outcome.options)

    def test_dispatch_unmatched_request(self):
        fleet = build_random_fleet(vehicles=0)
        config = SystemConfig()
        dispatcher = Dispatcher(fleet, NaiveKineticTreeMatcher(fleet, config=config), config)
        request = random_requests(fleet.grid.network, 1, 5.0, 0.2, seed=6)[0]
        outcome = dispatcher.dispatch(request)
        assert not outcome.matched
        assert outcome.options == ()
        assert outcome.chosen is None

    def test_dispatch_batch_greedy_order(self, dispatcher):
        requests = random_requests(dispatcher.fleet.grid.network, 6, 6.0, 0.4, seed=7)
        outcomes = dispatcher.dispatch_batch(requests)
        assert len(outcomes) == 6
        # every matched request must now be assigned to its chosen vehicle
        for outcome in outcomes:
            if outcome.matched:
                vehicle = dispatcher.fleet.get(outcome.chosen.vehicle_id)
                assert vehicle.has_request(outcome.request.request_id)

    def test_later_requests_see_earlier_commitments(self, dispatcher):
        network = dispatcher.fleet.grid.network
        base = random_requests(network, 1, 6.0, 0.4, seed=8)[0]
        duplicate = Request(
            start=base.start, destination=base.destination, riders=base.riders,
            max_waiting=base.max_waiting, service_constraint=base.service_constraint,
        )
        first = dispatcher.dispatch(base)
        second = dispatcher.dispatch(duplicate)
        assert first.matched and second.matched
        # The twin request can share the first rider's vehicle along the very
        # same route, so its cheapest price is at most the first rider's price
        # (the greedy order makes the fleet state visible to the second rider).
        assert second.chosen.price <= first.chosen.price + 1e-9
        assert second.chosen.added_distance <= first.chosen.added_distance + 1e-9


class TestLifecycleNotifications:
    def test_pickup_and_dropoff_refresh_state(self, dispatcher):
        request = random_requests(dispatcher.fleet.grid.network, 1, 6.0, 0.4, seed=9)[0]
        outcome = dispatcher.dispatch(request)
        vehicle_id = outcome.chosen.vehicle_id
        dispatcher.notify_pickup(vehicle_id, request.request_id)
        vehicle = dispatcher.fleet.get(vehicle_id)
        assert request.request_id in vehicle.onboard_requests
        dispatcher.notify_dropoff(vehicle_id, request.request_id)
        assert vehicle.is_empty
        assert not any(v.has_request(request.request_id) for v in dispatcher.fleet.vehicles())
