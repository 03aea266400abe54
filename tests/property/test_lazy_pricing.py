"""The lazy screening of a cap survivor against the eager one it replaced.

``SingleSideSearchMatcher._consider`` -- which the dual-side matcher
inherits -- takes the pick-up floor the cap walk already read off the start
tree, and computes a vehicle's price bound only when the skyline
:meth:`~repro.model.options.Skyline.reaches` its pick-up bound.  Nothing a
caller can observe may move.  Per request, each matcher is compared with
:class:`tests.pruning_reference.EagerPricing` mixed into the same matcher
(every survivor reads ``_pickup_lower_bound`` and is priced):

* the options, ``==`` (vehicle ids, floats and schedules);
* the keys of ``MatchContext.verified``, in order;
* every ``MatcherStatistics`` field (or the same error, raised alike).

The fleets are the driven ones of ``tests/property/test_cap_first_walk.py``
(csr and csr+alt, stale registrations, a removed taxi, a ghost id, a taxi on
an island the start tree does not hold).  A floor that is handed on must be
:meth:`~repro.core.matcher.Matcher._pickup_lower_bound`'s float to the bit.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.core.config import SystemConfig
from repro.core.dual_side import DualSideSearchMatcher
from repro.core.single_side import SingleSideSearchMatcher
from repro.model.request import Request
from repro.roadnet.generators import grid_network
from repro.roadnet.routing import make_engine

from tests.conftest import assign_request, build_fleet
from tests.property.test_cap_first_walk import driven_scenarios
from tests.pruning_reference import EagerDualSideMatcher, EagerSingleSideMatcher
from tests.routing_arms import ROUTING_ARMS


class _PricingWatch:
    """Counts the price bounds asked for, and those asked while the skyline
    was empty."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.priced = 0
        self.priced_against_empty = 0
        self._skyline = None

    def _consider(self, vehicle, *args):
        self._skyline = args[-1]
        super()._consider(vehicle, *args)

    def _price_lower_bound(self, vehicle, context):
        self.priced += 1
        if not self._skyline:
            self.priced_against_empty += 1
        return super()._price_lower_bound(vehicle, context)


class _Watching(_PricingWatch):
    """Also records every floor the cap walk hands on that is not
    ``_pickup_lower_bound``'s float."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.floor_mismatches = []

    def _cap_survivors(self, vehicle_ids, vehicles, context, max_pickup, seen):
        survivors = super()._cap_survivors(vehicle_ids, vehicles, context, max_pickup, seen)
        for vehicle, pickup_floor in survivors:
            exact = self._pickup_lower_bound(vehicle, context)
            if pickup_floor is not None and pickup_floor != exact:
                self.floor_mismatches.append((vehicle.vehicle_id, pickup_floor, exact))
        return survivors


class LazySingle(_Watching, SingleSideSearchMatcher):
    pass


class LazyDual(_Watching, DualSideSearchMatcher):
    pass


class PricingSingle(_PricingWatch, SingleSideSearchMatcher):
    pass


class PricingDual(_PricingWatch, DualSideSearchMatcher):
    pass


PAIRS = [(LazySingle, EagerSingleSideMatcher), (LazyDual, EagerDualSideMatcher)]


def _answer(matcher_class, fleet, config, probe):
    """What one screening did for ``probe``: its result, the verification
    order and its counters."""
    matcher = matcher_class(fleet, config=config)
    context = matcher.make_context(probe)
    try:
        result = ("options", matcher.match(probe, context))
    except Exception as error:  # noqa: BLE001 - both screenings must fail alike
        result = ("error", type(error), error.args)
    return (result, list(context.verified), matcher.statistics), matcher


@given(driven_scenarios())
@settings(max_examples=40, deadline=None)
def test_lazy_screening_equals_eager_pricing(scenario):
    fleet, config, probes = scenario
    for lazy, eager in PAIRS:
        for probe in probes:
            lazy_answer, matcher = _answer(lazy, fleet, config, probe)
            assert lazy_answer == _answer(eager, fleet, config, probe)[0]
            assert matcher.floor_mismatches == []
            assert matcher.priced_against_empty == 0


def _busy_fleet(backend):
    """Six taxis on a jittered 7x7 city, three of them serving a rider."""
    network = grid_network(7, 7, weight_jitter=0.3, seed=11)
    vertices = network.vertices()
    fleet = build_fleet(
        network, [vertices[index] for index in (3, 10, 17, 24, 38, 45)],
        capacity=4, grid_rows=3, grid_columns=3,
    )
    fleet.set_routing_engine(make_engine(network, backend))
    for taxi, (start, destination) in zip(("c1", "c3", "c5"), ((4, 30), (23, 47), (36, 12))):
        assign_request(
            fleet, taxi,
            Request(start=vertices[start], destination=vertices[destination], riders=1,
                    max_waiting=9.0, service_constraint=0.9, request_id=f"onboard-{taxi}"),
        )
    return fleet


@pytest.mark.parametrize("backend", ROUTING_ARMS)
@pytest.mark.parametrize(
    "lazy, eager", [(PricingSingle, EagerSingleSideMatcher), (PricingDual, EagerDualSideMatcher)]
)
def test_no_price_bound_is_asked_for_while_the_skyline_is_empty(backend, lazy, eager):
    """The first taxi screened meets an empty skyline, which dominates
    nothing: it goes to verification unpriced.  Later taxis are priced only
    when a confirmed option picks up no later than they can; the answers and
    every counter stay the eager screening's."""
    fleet = _busy_fleet(backend)
    vertices = fleet.grid.network.vertices()
    config = SystemConfig(max_waiting=9.0, service_constraint=0.9)
    probes = [
        Request(start=vertices[start], destination=vertices[destination], riders=1,
                max_waiting=9.0, service_constraint=0.9, request_id=f"probe-{start}")
        for start, destination in ((16, 40), (25, 2), (44, 8))
    ]
    priced = pruned = 0
    for probe in probes:
        lazy_answer, matcher = _answer(lazy, fleet, config, probe)
        assert matcher.priced_against_empty == 0
        assert lazy_answer == _answer(eager, fleet, config, probe)[0]
        priced += matcher.priced
        pruned += matcher.statistics.vehicles_pruned
    # the probe still runs, and still prunes, where it can
    assert priced > 0
    assert pruned > 0
