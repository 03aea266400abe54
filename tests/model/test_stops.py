"""Unit tests for trip-schedule stops."""

from __future__ import annotations

import pickle

import pytest

from repro.model.stops import Stop, StopKind


class TestStop:
    def test_pickup_properties(self):
        stop = Stop(vertex=5, request_id="R1", kind=StopKind.PICKUP, riders=2)
        assert stop.is_pickup
        assert not stop.is_dropoff
        assert stop.occupancy_delta == 2

    def test_dropoff_properties(self):
        stop = Stop(vertex=5, request_id="R1", kind=StopKind.DROPOFF, riders=3)
        assert stop.is_dropoff
        assert stop.occupancy_delta == -3

    def test_riders_must_be_positive(self):
        with pytest.raises(ValueError):
            Stop(vertex=1, request_id="R1", kind=StopKind.PICKUP, riders=0)

    def test_stops_are_hashable_and_equal_by_value(self):
        a = Stop(vertex=1, request_id="R1", kind=StopKind.PICKUP, riders=1)
        b = Stop(vertex=1, request_id="R1", kind=StopKind.PICKUP, riders=1)
        assert a == b
        assert len({a, b}) == 1

    def test_a_pickled_stop_rebuilds_its_hash(self):
        stop = Stop(vertex=5, request_id="R1", kind=StopKind.PICKUP, riders=2)
        restored = pickle.loads(pickle.dumps(stop))
        assert restored == stop
        assert hash(restored) == hash(stop)
        assert restored in {stop}
        # pickled by construction arguments, so no precomputed state travels
        assert stop.__reduce__() == (Stop, (5, "R1", StopKind.PICKUP, 2))

    def test_str_contains_request(self):
        stop = Stop(vertex=1, request_id="R7", kind=StopKind.PICKUP)
        assert "R7" in str(stop)

    def test_kind_str(self):
        assert str(StopKind.PICKUP) == "pickup"
        assert str(StopKind.DROPOFF) == "dropoff"

