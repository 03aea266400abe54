"""Unit tests for schedule distances and the per-sequence check of Definition 2
(``check_schedule`` in ``tests/insertion_reference.py``, which the insertion
kernel is held to)."""

from __future__ import annotations

import math

import pytest

from repro.model.request import Request
from repro.model.stops import Stop, StopKind
from repro.roadnet.generators import figure1_network
from repro.roadnet.routing import CSREngine
from repro.vehicles.schedule import RequestState, prefix_distances, schedule_distance

from tests.insertion_reference import check_schedule, enumerate_insertions, evaluate_schedule


@pytest.fixture
def oracle() -> CSREngine:
    return CSREngine(figure1_network())


def make_state(
    request: Request,
    oracle: CSREngine,
    onboard: bool = False,
    planned: float = math.inf,
    travelled: float = 0.0,
) -> RequestState:
    return RequestState(
        request=request,
        onboard=onboard,
        direct_distance=oracle.distance(request.start, request.destination),
        planned_pickup_remaining=planned,
        travelled_since_pickup=travelled,
    )


def pickup(request: Request) -> Stop:
    return Stop(request.start, request.request_id, StopKind.PICKUP, request.riders)


def dropoff(request: Request) -> Stop:
    return Stop(request.destination, request.request_id, StopKind.DROPOFF, request.riders)


class TestDistances:
    def test_prefix_distances(self, oracle):
        request = Request(start=2, destination=16, request_id="R1")
        stops = [pickup(request), dropoff(request)]
        prefix = prefix_distances(1, stops, oracle.distance)
        assert prefix == [pytest.approx(8.0), pytest.approx(18.0)]

    def test_prefix_with_origin_offset(self, oracle):
        request = Request(start=2, destination=16, request_id="R1")
        stops = [pickup(request), dropoff(request)]
        prefix = prefix_distances(1, stops, oracle.distance, origin_offset=1.5)
        assert prefix[0] == pytest.approx(9.5)

    def test_schedule_distance_empty(self, oracle):
        assert schedule_distance(1, [], oracle.distance) == 0.0
        assert schedule_distance(1, [], oracle.distance, origin_offset=2.0) == 2.0

    def test_evaluate_schedule_metrics(self, oracle):
        request = Request(start=2, destination=16, request_id="R1")
        metrics = evaluate_schedule(1, [pickup(request), dropoff(request)], oracle.distance)
        assert metrics.total_distance == pytest.approx(18.0)
        assert metrics.pickup_distance["R1"] == pytest.approx(8.0)
        assert metrics.dropoff_distance["R1"] == pytest.approx(18.0)
        assert metrics.prefix[0] == pytest.approx(8.0)


class TestStructuralChecks:
    def test_valid_single_request_schedule(self, oracle):
        request = Request(start=2, destination=16, riders=2, request_id="R1")
        states = {"R1": make_state(request, oracle)}
        result = check_schedule(1, [pickup(request), dropoff(request)], 4, 0, states, oracle.distance)
        assert result.feasible

    def test_unknown_request_in_stop(self, oracle):
        request = Request(start=2, destination=16, request_id="R1")
        result = check_schedule(1, [pickup(request)], 4, 0, {}, oracle.distance)
        assert not result.feasible
        assert "unknown request" in result.reason

    def test_dropoff_before_pickup(self, oracle):
        request = Request(start=2, destination=16, request_id="R1")
        states = {"R1": make_state(request, oracle)}
        result = check_schedule(1, [dropoff(request), pickup(request)], 4, 0, states, oracle.distance)
        assert not result.feasible

    def test_missing_dropoff(self, oracle):
        request = Request(start=2, destination=16, request_id="R1")
        states = {"R1": make_state(request, oracle)}
        result = check_schedule(1, [pickup(request)], 4, 0, states, oracle.distance)
        assert not result.feasible
        assert "drop-off" in result.reason

    def test_waiting_request_missing_pickup(self, oracle):
        request = Request(start=2, destination=16, request_id="R1")
        states = {"R1": make_state(request, oracle)}
        result = check_schedule(1, [dropoff(request)], 4, 0, states, oracle.distance)
        assert not result.feasible

    def test_onboard_request_must_not_have_pickup(self, oracle):
        request = Request(start=2, destination=16, request_id="R1")
        states = {"R1": make_state(request, oracle, onboard=True)}
        result = check_schedule(
            1, [pickup(request), dropoff(request)], 4, request.riders, states, oracle.distance
        )
        assert not result.feasible

    def test_duplicate_pickup(self, oracle):
        request = Request(start=2, destination=16, request_id="R1")
        states = {"R1": make_state(request, oracle)}
        stops = [pickup(request), pickup(request), dropoff(request)]
        result = check_schedule(1, stops, 4, 0, states, oracle.distance)
        assert not result.feasible


class TestCapacity:
    def test_an_understated_onboard_load_reads_as_negative_occupancy(self, oracle):
        r1 = Request(start=2, destination=16, riders=2, request_id="R1")
        states = {"R1": make_state(r1, oracle, onboard=True)}
        # R1's two riders are on board, but the caller says nobody is
        result = check_schedule(1, [dropoff(r1)], 4, 0, states, oracle.distance)
        assert not result.feasible
        assert "negative occupancy" in result.reason

    def test_capacity_violation(self, oracle):
        r1 = Request(start=2, destination=16, riders=3, request_id="R1")
        r2 = Request(start=12, destination=17, riders=2, request_id="R2")
        states = {"R1": make_state(r1, oracle), "R2": make_state(r2, oracle)}
        stops = [pickup(r1), pickup(r2), dropoff(r1), dropoff(r2)]
        result = check_schedule(1, stops, 4, 0, states, oracle.distance)
        assert not result.feasible
        assert "capacity" in result.reason

    def test_capacity_respected_when_sequential(self, oracle):
        r1 = Request(start=2, destination=16, riders=3, request_id="R1", service_constraint=1.0)
        r2 = Request(start=12, destination=17, riders=2, request_id="R2", service_constraint=1.0)
        states = {"R1": make_state(r1, oracle), "R2": make_state(r2, oracle)}
        stops = [pickup(r1), dropoff(r1), pickup(r2), dropoff(r2)]
        result = check_schedule(1, stops, 4, 0, states, oracle.distance)
        assert result.feasible

    def test_onboard_riders_counted(self, oracle):
        r1 = Request(start=2, destination=16, riders=3, request_id="R1")
        r2 = Request(start=12, destination=17, riders=2, request_id="R2", service_constraint=2.0)
        states = {
            "R1": make_state(r1, oracle, onboard=True),
            "R2": make_state(r2, oracle),
        }
        stops = [pickup(r2), dropoff(r1), dropoff(r2)]
        result = check_schedule(2, stops, 4, 3, states, oracle.distance)
        assert not result.feasible  # 3 onboard + 2 boarding exceeds 4


class TestWaitingTime:
    def test_waiting_violation(self, oracle):
        request = Request(start=2, destination=16, max_waiting=1.0, request_id="R1")
        # The promise was a pick-up 2 units away; the schedule below drives 8.
        states = {"R1": make_state(request, oracle, planned=2.0)}
        result = check_schedule(1, [pickup(request), dropoff(request)], 4, 0, states, oracle.distance)
        assert not result.feasible
        assert "waiting" in result.reason

    def test_waiting_ok_within_budget(self, oracle):
        request = Request(start=2, destination=16, max_waiting=6.0, request_id="R1")
        states = {"R1": make_state(request, oracle, planned=2.0)}
        result = check_schedule(1, [pickup(request), dropoff(request)], 4, 0, states, oracle.distance)
        assert result.feasible

    def test_infinite_planned_never_violates(self, oracle):
        request = Request(start=2, destination=16, max_waiting=0.0, request_id="R1")
        states = {"R1": make_state(request, oracle, planned=math.inf)}
        result = check_schedule(1, [pickup(request), dropoff(request)], 4, 0, states, oracle.distance)
        assert result.feasible


class TestServiceConstraint:
    def test_detour_violation_for_waiting_request(self, oracle):
        r1 = Request(start=2, destination=16, service_constraint=0.0, request_id="R1")
        r2 = Request(start=12, destination=17, service_constraint=0.0, request_id="R2")
        states = {"R1": make_state(r1, oracle), "R2": make_state(r2, oracle)}
        # Forcing R1's riders through R2's stops exceeds R1's zero-detour budget.
        stops = [pickup(r1), pickup(r2), dropoff(r2), dropoff(r1)]
        result = check_schedule(1, stops, 4, 0, states, oracle.distance)
        assert not result.feasible
        assert "service" in result.reason

    def test_detour_budget_for_onboard_accounts_travelled(self, oracle):
        request = Request(start=2, destination=16, service_constraint=0.2, request_id="R1")
        # Already travelled 9 of the 12-unit budget; 10 more units is too much.
        states = {"R1": make_state(request, oracle, onboard=True, travelled=9.0)}
        result = check_schedule(2, [dropoff(request)], 4, request.riders, states, oracle.distance)
        assert not result.feasible

    def test_detour_ok_for_onboard_within_budget(self, oracle):
        request = Request(start=2, destination=16, service_constraint=0.2, request_id="R1")
        states = {"R1": make_state(request, oracle, onboard=True, travelled=1.0)}
        result = check_schedule(2, [dropoff(request)], 4, request.riders, states, oracle.distance)
        assert result.feasible


class TestEnumerateInsertions:
    """The slot enumeration the insertion reference is built on."""

    def test_counts_for_empty_base(self):
        request = Request(start=2, destination=16, request_id="R1")
        sequences = list(enumerate_insertions([], pickup(request), dropoff(request)))
        assert sequences == [(pickup(request), dropoff(request))]

    def test_counts_for_one_existing_stop(self):
        r1 = Request(start=2, destination=16, request_id="R1")
        r2 = Request(start=12, destination=17, request_id="R2")
        base = [dropoff(r1)]
        sequences = list(enumerate_insertions(base, pickup(r2), dropoff(r2)))
        # pickup at 2 positions; dropoff after pickup: 2 + 1 + ... = (n+1)(n+2)/2 with n=1 -> 3
        assert len(sequences) == 3
        for sequence in sequences:
            assert sequence.index(pickup(r2)) < sequence.index(dropoff(r2))

    def test_preserves_existing_order(self):
        r1 = Request(start=2, destination=16, request_id="R1")
        r2 = Request(start=12, destination=17, request_id="R2")
        base = [pickup(r1), dropoff(r1)]
        for sequence in enumerate_insertions(base, pickup(r2), dropoff(r2)):
            assert sequence.index(pickup(r1)) < sequence.index(dropoff(r1))

    def test_total_count_formula(self):
        r1 = Request(start=2, destination=16, request_id="R1")
        r2 = Request(start=12, destination=17, request_id="R2")
        r3 = Request(start=5, destination=9, request_id="R3")
        base = [pickup(r1), dropoff(r1), pickup(r2), dropoff(r2)]
        sequences = list(enumerate_insertions(base, pickup(r3), dropoff(r3)))
        n = len(base)
        assert len(sequences) == (n + 1) * (n + 2) // 2
