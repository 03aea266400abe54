"""The service's durable text is the text the dict path wrote, byte for byte.

The serving-path journal rows (``admit``, ``book``, ``pump``, ``drain``) and
the snapshot and delta files are written as JSON text straight from the
service's objects; every other record is still a dict through
``json.dumps``.  A scripted day -- ingest,
pump, book, choose, cancel (a booking and a pending admission),
``set_parameters``, an admin snapshot and delta compaction -- runs under
``journal``, ``journal+snapshot`` and an adaptive window, and every row and
state file it writes is held to what ``tests/durable_reference.py`` builds
from the same live state at the same moment.

The request texts the snapshot chain keeps for its next delta
(``SnapshotChain.request_texts``) are bounded by one snapshot interval plus
the ingest queue: after every point they hold only requests still pending,
and they are never filled without deltas to write.  A request pending
across a point is formatted once.
"""

from __future__ import annotations

import itertools
from typing import List

import pytest

from repro.model.request import Request
from repro.service import api as api_module
from repro.service import recovery as recovery_module
from repro.service.api import PTRiderService, build_system
from repro.service.journal import ServiceJournal

from tests import durable_reference as reference

#: ids json must escape: non-ASCII, quotes, backslashes, control characters
ODD_IDS = ('ré"q', "q\\uote", " line", "\U0001f695 taxi", "tab\tq")

MODES = {
    "journal": dict(durability="journal"),
    "journal+snapshot": dict(
        durability="journal+snapshot", snapshot_interval=2, retention_horizon=3.0
    ),
    "adaptive": dict(
        durability="journal+snapshot", snapshot_interval=3, batch_window_mode="adaptive",
        batch_window_min=0.5, batch_window_max=4.0,
    ),
}


class _Checked:
    """What the day wrote, against the reference: the expected text of
    every journal row in order, and the state files compared so far."""

    def __init__(self) -> None:
        self.rows: List[str] = []
        self.files: List[str] = []


@pytest.fixture
def checked(monkeypatch):
    """Hold every durable write of the test to :mod:`tests.durable_reference`.

    The serving-path rows (``admit``, ``book``, ``pump``, ``drain``) are
    expected from what each call was given; every other row from the dict
    ``append`` was given.  Each
    state file is compared as it lands, with the reference built from the
    live state just before it was written.
    """
    seen = _Checked()
    append = ServiceJournal.append

    def checked_append(journal, kind, payload):
        if not isinstance(payload, str):
            seen.rows.append(reference._dumps(payload))
        return append(journal, kind, payload)

    service_class = PTRiderService
    ingest_request, book_request = service_class.ingest_request, service_class.book_request
    pump, drain, close = service_class.pump, service_class.drain, service_class.close

    def journaling(service) -> bool:
        return service.journal is not None and service._recording

    def window(service):
        adaptive = service.config.batch_window_mode == "adaptive"
        return service.batcher.current_window if adaptive else None

    def checked_ingest(service, request, now=None):
        if journaling(service):
            moment = service.current_time if now is None else now
            seen.rows.append(reference.admit_row(request, moment, window(service)))
        return ingest_request(service, request, now)

    def checked_book(service, request):
        if journaling(service):
            seen.rows.append(reference.book_row(request))
        return book_request(service, request)

    def checked_hand_back(hand_back):
        def checked(service, now=None):
            if journaling(service):
                moment = service.current_time if now is None else now
                seen.rows.append(reference.hand_back_row(moment, window(service)))
            return hand_back(service, now)

        return checked

    def checked_close(service):
        if journaling(service) and service.batcher.pending:
            seen.rows.append(
                reference.hand_back_row(service.current_time, window(service), close=True)
            )
        return close(service)

    write_snapshot, write_delta = recovery_module.write_snapshot, recovery_module.write_delta

    def checked_snapshot(journal, service, seq):
        expected = reference.snapshot_document(service, seq)
        size = write_snapshot(journal, service, seq)
        assert journal.snapshot_path(seq).read_bytes() == expected.encode("utf-8")
        assert size == len(expected)
        seen.files.append(f"snapshot {seq}")
        return size

    def checked_delta(journal, service, seq, chain):
        expected = reference.delta_document(service, seq, chain)
        size = write_delta(journal, service, seq, chain)
        assert journal.delta_path(seq).read_bytes() == expected.encode("utf-8")
        assert size == len(expected)
        seen.files.append(f"delta {seq}")
        return size

    monkeypatch.setattr(ServiceJournal, "append", checked_append)
    monkeypatch.setattr(service_class, "ingest_request", checked_ingest)
    monkeypatch.setattr(service_class, "book_request", checked_book)
    monkeypatch.setattr(service_class, "pump", checked_hand_back(pump))
    monkeypatch.setattr(service_class, "drain", checked_hand_back(drain))
    monkeypatch.setattr(service_class, "close", checked_close)
    monkeypatch.setattr(recovery_module, "write_snapshot", checked_snapshot)
    monkeypatch.setattr(api_module, "write_snapshot", checked_snapshot)
    monkeypatch.setattr(recovery_module, "write_delta", checked_delta)
    return seen


def _request(service, index: int, **fields) -> Request:
    vertices = service.fleet.grid.network.vertices()
    start = vertices[(index * 7) % len(vertices)]
    destination = vertices[(index * 7 + 19) % len(vertices)]
    if destination == start:
        destination = vertices[(index * 7 + 20) % len(vertices)]
    fields.setdefault("max_waiting", service.config.max_waiting)
    fields.setdefault("service_constraint", service.config.service_constraint)
    return Request(
        start=start,
        destination=destination,
        riders=1 + index % 2,
        request_id=f"{ODD_IDS[index % len(ODD_IDS)]}-{index}",
        submit_time=service.current_time + index % 3 / 7,
        **fields,
    )


def _scripted_day(service, rounds: int = 12) -> None:
    """Book, choose or cancel, admit, cancel a pending admission, advance
    and pump; take an admin snapshot and reconfigure twice on the way, and
    end with admissions pending for ``close()`` to drain."""
    index = itertools.count()
    for round_index in range(rounds):
        booking = service.book_request(_request(service, next(index)))
        if booking.options:
            service.choose(booking.booking_id, len(booking.options) - 1)
        else:
            service.cancel(booking.booking_id)
        now = service.current_time
        admitted = [
            _request(service, next(index)),
            # an int where a float is typed, which json writes as an int:
            # equal to the global 5.0, so the booking keeps this very request
            _request(service, next(index), max_waiting=5),
            _request(service, next(index)),
        ]
        for request in admitted:
            service.ingest_request(request, now=now if round_index % 2 else int(now))
        if round_index % 3 == 1:
            service.cancel(admitted[0].request_id)
        service.advance(1.0)
        service.pump(now=service.current_time)
        if round_index == 8:
            service.set_parameters(max_waiting=9.5)
        if round_index == 5:
            service.snapshot()
        if round_index == 7:
            service.set_parameters(matcher_name="dual_side")
    service.drain()
    service.advance(1.0)
    for _ in range(2):
        service.ingest_request(_request(service, next(index)))


@pytest.mark.parametrize("mode", sorted(MODES))
def test_every_row_and_state_file_is_the_dict_paths_text(tmp_path, checked, mode):
    service = build_system(
        vehicles=8, seed=5, network_rows=8, network_columns=8,
        journal_path=str(tmp_path / "journal"), **MODES[mode],
    )
    try:
        _scripted_day(service)
    finally:
        service.close()
    journal = ServiceJournal(tmp_path / "journal")
    try:
        rows = [
            payload
            for (payload,) in journal.connection.execute("SELECT payload FROM journal ORDER BY seq")
        ]
    finally:
        journal.close()
    assert rows == checked.rows
    assert sum(row.startswith('{"request":') for row in rows) == 12 * 4 + 2  # admit and book rows
    assert sum(row.startswith('{"now":') and ',"close":true' in row for row in rows) == 1
    snapshots = [name for name in checked.files if name.startswith("snapshot")]
    deltas = [name for name in checked.files if name.startswith("delta")]
    if mode == "journal":
        assert len(snapshots) == 2 and not deltas  # the baseline and the admin snapshot
    else:
        # compaction wrote full snapshots past the baseline and the admin one
        assert len(snapshots) > 2 and len(deltas) > recovery_module.DELTA_COMPACT_AFTER


@pytest.mark.parametrize("mode", ["off", "journal", "journal+snapshot"])
def test_the_request_texts_last_one_snapshot_interval_and_the_queue(tmp_path, mode):
    interval = 5
    service = build_system(
        vehicles=6, seed=3, network_rows=8, network_columns=8, durability=mode,
        journal_path=None if mode == "off" else str(tmp_path / "journal"),
        snapshot_interval=interval,
    )
    chain = service._chain
    points = 0
    since, at_point = set(), set()  # admitted since the last point, pending at it

    def check(command, *args, admitted=None):
        nonlocal points, since, at_point
        point = chain.point_seq
        command(*args, now=service.current_time)
        texts = chain.request_texts
        if mode != "journal+snapshot":
            assert texts == {}
            return
        if chain.point_seq != point:  # a point lands as its command finishes
            points += 1
            since = set()
            at_point = {request.request_id for request, _ in service.batcher.pending_entries()}
        if admitted is not None:
            since.add(admitted)
        assert set(texts) <= since | at_point
        assert len(texts) <= interval + len(at_point)
        for kept, text in texts.values():
            assert text == recovery_module.text(kept)

    try:
        for index in range(60):
            request = _request(service, index)
            check(service.ingest_request, request, admitted=request.request_id)
            if index % 4 == 3:
                check(lambda now: service.advance(1.0))
                check(service.pump)
    finally:
        service.close()
    assert points >= 10 if mode == "journal+snapshot" else points == 0


def test_a_reused_request_id_does_not_take_the_kept_text(tmp_path):
    service = build_system(
        vehicles=4, seed=3, network_rows=6, network_columns=6,
        durability="journal+snapshot", journal_path=str(tmp_path / "journal"),
        snapshot_interval=1000,
    )
    try:
        first = _request(service, 0)
        service.ingest_request(first, now=0.0)
        again = Request(
            start=first.destination, destination=first.start, request_id=first.request_id
        )
        chain = service._chain
        assert chain.request_text(first) is chain.request_texts[first.request_id][1]
        assert chain.request_text(again) == recovery_module.text(again)
        assert chain.request_text(again) != chain.request_text(first)
    finally:
        service.close()


def test_a_request_pending_across_a_point_is_formatted_once(tmp_path, monkeypatch):
    """The admission formats the request; the delta a point writes while it
    is pending and the delta that writes its booking splice that text."""
    service = build_system(
        vehicles=6, seed=3, network_rows=8, network_columns=8,
        durability="journal+snapshot", journal_path=str(tmp_path / "journal"),
        snapshot_interval=3,
    )
    formatted = []
    original = recovery_module.text

    def spy(obj):
        if isinstance(obj, Request):
            formatted.append(obj.request_id)
        return original(obj)

    monkeypatch.setattr(recovery_module, "text", spy)
    chain = service._chain
    try:
        pending = _request(service, 0)
        service.ingest_request(pending, now=service.current_time)
        point = chain.point_seq
        for index in range(1, 4):  # admissions until a point lands mid-window
            service.ingest_request(_request(service, index), now=service.current_time)
        assert chain.point_seq != point and service.batcher.pending == 4
        assert pending.request_id in chain.request_texts
        service.advance(1.0)
        point = chain.point_seq
        service.pump(now=service.current_time)  # the bookings land
        service.advance(1.0)
        service.advance(1.0)
        assert chain.point_seq != point  # a delta wrote the bookings
        assert formatted.count(pending.request_id) == 1
    finally:
        service.close()
