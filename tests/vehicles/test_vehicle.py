"""Unit tests for mutable vehicle state."""

from __future__ import annotations

import pytest

from repro.errors import CapacityExceededError, InvalidScheduleError, VehicleError
from repro.model.request import Request
from repro.model.stops import Stop, StopKind
from repro.vehicles.vehicle import Vehicle


def stops_for(request: Request) -> tuple:
    return (
        Stop(request.start, request.request_id, StopKind.PICKUP, request.riders),
        Stop(request.destination, request.request_id, StopKind.DROPOFF, request.riders),
    )


@pytest.fixture
def vehicle() -> Vehicle:
    return Vehicle("c1", location=1, capacity=4)


@pytest.fixture
def request_r1() -> Request:
    return Request(start=2, destination=16, riders=2, request_id="R1")


class TestConstruction:
    def test_defaults(self, vehicle):
        assert vehicle.is_empty
        assert vehicle.occupancy == 0
        assert vehicle.location == 1
        assert vehicle.offset == 0.0

    def test_invalid_capacity(self):
        with pytest.raises(VehicleError):
            Vehicle("c1", location=1, capacity=0)

    def test_invalid_offset(self):
        with pytest.raises(VehicleError):
            Vehicle("c1", location=1, offset=-1.0)

    def test_set_location_updates_tree_root(self, vehicle):
        vehicle.set_location(5, offset=0.5)
        assert vehicle.location == 5
        assert vehicle.offset == 0.5
        assert vehicle.kinetic_tree.root_location == 5

    def test_set_location_rejects_negative_offset(self, vehicle):
        with pytest.raises(VehicleError):
            vehicle.set_location(5, offset=-0.1)


class TestAssignment:
    def test_assign_makes_request_waiting(self, vehicle, request_r1):
        pickup, dropoff = stops_for(request_r1)
        vehicle.assign(request_r1, planned_pickup_distance=8.0, direct_distance=10.0, schedules=[(pickup, dropoff)])
        assert not vehicle.is_empty
        assert vehicle.has_request("R1")
        assert "R1" in vehicle.waiting_requests
        assert vehicle.occupancy == 0
        assert vehicle.unfinished_request_ids() == ["R1"]

    def test_assign_twice_rejected(self, vehicle, request_r1):
        pickup, dropoff = stops_for(request_r1)
        vehicle.assign(request_r1, 8.0, 10.0, [(pickup, dropoff)])
        with pytest.raises(VehicleError):
            vehicle.assign(request_r1, 8.0, 10.0, [(pickup, dropoff)])

    def test_assign_over_capacity_rejected(self, vehicle):
        big = Request(start=2, destination=16, riders=9, request_id="RBig")
        pickup, dropoff = stops_for(big)
        with pytest.raises(CapacityExceededError):
            vehicle.assign(big, 8.0, 10.0, [(pickup, dropoff)])

    def test_assign_requires_schedules(self, vehicle, request_r1):
        with pytest.raises(InvalidScheduleError):
            vehicle.assign(request_r1, 8.0, 10.0, [])


class TestLifecycle:
    def test_pickup_moves_to_onboard(self, vehicle, request_r1):
        pickup, dropoff = stops_for(request_r1)
        vehicle.assign(request_r1, 8.0, 10.0, [(pickup, dropoff)])
        state = vehicle.pickup("R1")
        assert state.onboard
        assert vehicle.occupancy == 2
        assert "R1" in vehicle.onboard_requests
        assert "R1" not in vehicle.waiting_requests

    def test_pickup_unknown_request(self, vehicle):
        with pytest.raises(VehicleError):
            vehicle.pickup("nope")

    def test_pickup_over_capacity(self, request_r1):
        vehicle = Vehicle("c1", location=1, capacity=3)
        pickup, dropoff = stops_for(request_r1)
        vehicle.assign(request_r1, 8.0, 10.0, [(pickup, dropoff)])
        other = Request(start=12, destination=17, riders=2, request_id="R2")
        p2, d2 = stops_for(other)
        vehicle.assign(other, 5.0, 7.0, [(pickup, p2, dropoff, d2)])
        vehicle.pickup("R1")
        with pytest.raises(CapacityExceededError):
            vehicle.pickup("R2")
        # the failed pick-up must leave R2 waiting
        assert "R2" in vehicle.waiting_requests

    def test_dropoff_completes_request(self, vehicle, request_r1):
        pickup, dropoff = stops_for(request_r1)
        vehicle.assign(request_r1, 8.0, 10.0, [(pickup, dropoff)])
        vehicle.pickup("R1")
        state = vehicle.dropoff("R1")
        assert state.request.request_id == "R1"
        assert vehicle.is_empty
        assert vehicle.unfinished_request_ids() == []

    def test_dropoff_requires_onboard(self, vehicle, request_r1):
        pickup, dropoff = stops_for(request_r1)
        vehicle.assign(request_r1, 8.0, 10.0, [(pickup, dropoff)])
        with pytest.raises(VehicleError):
            vehicle.dropoff("R1")


class TestProgress:
    def test_progress_shrinks_planned_pickup(self, vehicle, request_r1):
        pickup, dropoff = stops_for(request_r1)
        vehicle.assign(request_r1, 8.0, 10.0, [(pickup, dropoff)])
        vehicle.record_progress(3.0)
        assert vehicle.waiting_requests["R1"].planned_pickup_remaining == pytest.approx(5.0)
        # Driving past the promised distance makes the remaining budget
        # negative: the vehicle is already later than planned, so future
        # insertions only get what is left of the waiting allowance.
        vehicle.record_progress(10.0)
        assert vehicle.waiting_requests["R1"].planned_pickup_remaining == pytest.approx(-5.0)
        assert vehicle.waiting_requests["R1"].waiting_budget() == pytest.approx(
            -5.0 + request_r1.max_waiting
        )

    def test_progress_accumulates_onboard_travel(self, vehicle, request_r1):
        pickup, dropoff = stops_for(request_r1)
        vehicle.assign(request_r1, 8.0, 10.0, [(pickup, dropoff)])
        vehicle.pickup("R1")
        vehicle.record_progress(4.0)
        assert vehicle.onboard_requests["R1"].travelled_since_pickup == pytest.approx(4.0)
        assert vehicle.occupied_distance == pytest.approx(4.0)
        assert vehicle.distance_driven == pytest.approx(4.0)

    def test_progress_zero_is_noop(self, vehicle):
        vehicle.record_progress(0.0)
        assert vehicle.distance_driven == 0.0

    def test_progress_negative_rejected(self, vehicle):
        with pytest.raises(VehicleError):
            vehicle.record_progress(-1.0)

    def test_empty_vehicle_distance_not_occupied(self, vehicle):
        vehicle.record_progress(5.0)
        assert vehicle.distance_driven == 5.0
        assert vehicle.occupied_distance == 0.0


class TestScheduleInteraction:
    def test_arrive_at_stop_advances_tree(self, vehicle, request_r1):
        pickup, dropoff = stops_for(request_r1)
        vehicle.assign(request_r1, 8.0, 10.0, [(pickup, dropoff)])
        vehicle.arrive_at_stop(pickup)
        assert vehicle.location == pickup.vertex
        assert vehicle.offset == 0.0
        assert vehicle.current_schedules() == [(dropoff,)]

    def test_request_states_merges_waiting_and_onboard(self, vehicle, request_r1):
        pickup, dropoff = stops_for(request_r1)
        vehicle.assign(request_r1, 8.0, 10.0, [(pickup, dropoff)])
        other = Request(start=12, destination=17, riders=1, request_id="R2")
        p2, d2 = stops_for(other)
        vehicle.assign(other, 5.0, 7.0, [(pickup, p2, dropoff, d2)])
        vehicle.pickup("R1")
        states = vehicle.request_states()
        assert set(states) == {"R1", "R2"}
        assert states["R1"].onboard and not states["R2"].onboard


class TestStamp:
    def test_every_state_change_moves_the_stamp(self, vehicle, request_r1):
        """Location, budgets, request set and kinetic tree all feed an
        insertion; a stamp taken before any of them changes must not compare
        equal afterwards -- including a tree mutated behind the vehicle's back."""
        pickup, dropoff = stops_for(request_r1)
        stamps = [vehicle.stamp()]
        for change in (
            lambda: vehicle.set_location(1, offset=0.25),
            lambda: vehicle.assign(request_r1, 8.0, 10.0, [(pickup, dropoff)]),
            lambda: vehicle.record_progress(0.25),
            lambda: vehicle.kinetic_tree.set_schedules([(pickup, dropoff)]),
            lambda: vehicle.arrive_at_stop(pickup),
            lambda: vehicle.pickup("R1"),
            lambda: vehicle.arrive_at_stop(dropoff),
            lambda: vehicle.dropoff("R1"),
        ):
            change()
            stamps.append(vehicle.stamp())
        assert all(a != b for i, a in enumerate(stamps) for b in stamps[i + 1:])

    def test_reading_leaves_the_stamp_alone(self, vehicle, request_r1):
        pickup, dropoff = stops_for(request_r1)
        vehicle.assign(request_r1, 8.0, 10.0, [(pickup, dropoff)])
        before = vehicle.stamp()
        vehicle.record_progress(0.0)
        vehicle.request_states(), vehicle.current_schedules(), vehicle.occupancy
        vehicle.best_schedule(lambda source, target: 1.0)
        assert vehicle.stamp() == before
