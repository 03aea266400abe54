"""Unit tests for the ridesharing request (Definition 1)."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.errors import RequestError
from repro.model.request import Request
from repro.model.stops import StopKind
from repro.service.api import build_system
from repro.service.recovery import decode, encode


class TestValidation:
    def test_valid_request(self):
        request = Request(start=1, destination=2, riders=2, max_waiting=5.0, service_constraint=0.2)
        assert request.riders == 2
        assert request.request_id.startswith("req-")

    def test_start_equals_destination(self):
        with pytest.raises(RequestError):
            Request(start=1, destination=1)

    def test_riders_must_be_positive(self):
        with pytest.raises(RequestError):
            Request(start=1, destination=2, riders=0)

    def test_negative_waiting(self):
        with pytest.raises(RequestError):
            Request(start=1, destination=2, max_waiting=-1.0)

    def test_negative_service_constraint(self):
        with pytest.raises(RequestError):
            Request(start=1, destination=2, service_constraint=-0.1)

    def test_negative_submit_time(self):
        with pytest.raises(RequestError):
            Request(start=1, destination=2, submit_time=-1.0)

    def test_unique_generated_ids(self):
        ids = {Request(start=1, destination=2).request_id for _ in range(50)}
        assert len(ids) == 50


class TestBehaviour:
    def test_detour_budget(self):
        request = Request(start=1, destination=2, service_constraint=0.2)
        assert request.detour_budget(10.0) == pytest.approx(12.0)

    def test_detour_budget_zero_constraint(self):
        request = Request(start=1, destination=2, service_constraint=0.0)
        assert request.detour_budget(10.0) == pytest.approx(10.0)

    def test_detour_budget_rejects_negative_distance(self):
        request = Request(start=1, destination=2)
        with pytest.raises(RequestError):
            request.detour_budget(-1.0)

    def test_describe_mentions_endpoints(self):
        request = Request(start=3, destination=9, riders=2, request_id="R9")
        text = request.describe()
        assert "R9" in text and "3" in text and "9" in text

    def test_requests_are_frozen(self):
        request = Request(start=1, destination=2)
        with pytest.raises(AttributeError):
            request.riders = 3  # type: ignore[misc]


class TestStops:
    """``Request.stops``: the pick-up and drop-off pair, built once and
    invisible to equality, hashing, the codec and the journal."""

    @staticmethod
    def _twins():
        fields = dict(start=4, destination=9, riders=2, max_waiting=3.0, request_id="R7")
        return Request(**fields), Request(**fields)

    def test_the_pair_is_built_once(self):
        request, _ = self._twins()
        pickup, dropoff = request.stops
        assert request.stops[0] is pickup and request.stops[1] is dropoff
        assert (pickup.vertex, pickup.request_id, pickup.kind, pickup.riders) == (
            4, "R7", StopKind.PICKUP, 2
        )
        assert (dropoff.vertex, dropoff.request_id, dropoff.kind, dropoff.riders) == (
            9, "R7", StopKind.DROPOFF, 2
        )

    def test_equality_hash_and_codec_do_not_see_the_pair(self):
        request, twin = self._twins()
        before = json.dumps(encode(request))
        request.stops
        assert request == twin and hash(request) == hash(twin)
        assert json.dumps(encode(request)) == before == json.dumps(encode(twin))
        assert decode(Request, encode(request)) == twin
        assert replace(request, submit_time=2.0) == replace(twin, submit_time=2.0)

    def test_the_journal_payload_does_not_see_the_pair(self, tmp_path):
        service = build_system(
            vehicles=6, seed=11, durability="journal", journal_path=str(tmp_path / "journal")
        )
        vertices = service.fleet.grid.network.vertices()
        fields = dict(
            start=vertices[3], destination=vertices[20], max_waiting=6.0,
            service_constraint=0.4, request_id="J1",
        )
        request = Request(**fields)
        request.stops
        service.book_request(request)
        books = [record for record in service.journal.records() if record.kind == "book"]
        assert [record.payload for record in books] == [{"request": encode(Request(**fields))}]
        service.close()
