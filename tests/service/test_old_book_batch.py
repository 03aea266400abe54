"""Journals holding an older build's ``book_batch`` record still recover.

``fixtures/old_book_batch`` is a small durable day whose journal holds one
``book_batch`` of three trips, the second with an endpoint outside the
network, past the last delta and followed by a ``choose`` on its third
booking (see its README).  Replay books each request through
``book_request`` against the same fleet; the broken trip books with no
options.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.model.request import Request
from repro.service.api import PTRiderService
from repro.service.journal import ServiceJournal
from repro.service.recovery import canonical_state, decode
from tests.dispatch_reference import match_sequential

FIXTURE = Path(__file__).parent / "fixtures" / "old_book_batch"


@pytest.fixture
def journal_copy(tmp_path):
    # SQLite writes -shm/-wal files next to the database even read-only
    return Path(shutil.copytree(FIXTURE / "journal", tmp_path / "journal"))


def _batch_record(directory: Path):
    journal = ServiceJournal(directory)
    try:
        (record,) = [r for r in journal.records() if r.kind == "book_batch"]
        assert [r.kind for r in journal.records() if r.seq > record.seq] == ["choose"]
        assert max(seq for seq, _ in journal.delta_files()) < record.seq
        return record
    finally:
        journal.close()


@pytest.mark.parametrize("prefer_snapshot", [True, False])
def test_old_book_batch_recovers_to_the_stored_state(journal_copy, prefer_snapshot):
    stored = json.loads((FIXTURE / "canonical_state.json").read_text(encoding="utf-8"))
    recovered = PTRiderService.recover(journal_copy, prefer_snapshot=prefer_snapshot)
    try:
        assert canonical_state(recovered) == stored
    finally:
        recovered.close()


def test_replayed_bookings_match_the_sequential_loop(journal_copy, tmp_path):
    record = _batch_record(journal_copy)
    requests = [decode(Request, body) for body in record.payload["requests"]]
    recovered = PTRiderService.recover(journal_copy)
    try:
        bookings = [recovered._bookings[booking_id] for booking_id in ("B5", "B6", "B7")]
    finally:
        recovered.close()
    assert [booking.request for booking in bookings] == requests

    # the fleet the burst was matched against: the journal up to the record
    before = Path(shutil.copytree(FIXTURE / "journal", tmp_path / "before"))
    journal = ServiceJournal(before)
    journal.truncate_after(record.seq - 1)
    journal.close()
    service = PTRiderService.recover(before)
    try:
        good = [r for r in requests if r.destination in service.fleet.routing_engine.network]
        assert len(good) == 2
        expected = dict(zip(good, match_sequential(service.dispatcher, good)))
    finally:
        service.close()
    for booking in bookings:
        assert list(booking.options) == expected.get(booking.request, [])
    assert [len(b.options) for b in bookings] == [1, 0, 2]
