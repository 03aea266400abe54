"""Replay properties of the durability journal.

Random event scripts -- interleavings of per-request bookings, ingest
admissions, pumps, drains, choices, cancellations and time advances -- are
driven against a durable service, then its journal is recovered several
ways.  Whatever the script:

* **snapshot + tail == full-journal replay**: recovering from the newest
  periodic snapshot plus the record tail lands on exactly the state a
  full replay from the baseline produces (and both equal the pre-crash
  service);
* **replay is idempotent**: re-applying an already-applied tail is a
  no-op -- every record at or below the applied high-water mark is
  skipped;
* **records apply in sequence-number order regardless of arrival order**:
  feeding :func:`~repro.service.recovery.replay_records` a shuffled tail
  produces the same state as the ordered tail.

Equality is ``==`` on :func:`~repro.service.recovery.canonical_state` --
the full serialized service state (bookings, vehicle kinetic trees, fleet
positions, engine bookkeeping, statistics counters) minus wall-clock
measurements no two runs agree on.
"""

from __future__ import annotations

import random
import shutil
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ServiceError
from repro.model.request import Request
from repro.service.api import PTRiderService, build_system
from repro.service.journal import ServiceJournal
from repro.service.recovery import canonical_state, replay_records

# One event of a script: (kind, argument)
_EVENTS = st.one_of(
    st.tuples(st.just("book"), st.integers(0, 40)),
    st.tuples(st.just("ingest"), st.integers(0, 40)),
    st.tuples(st.just("pump"), st.just(0)),
    st.tuples(st.just("drain"), st.just(0)),
    st.tuples(st.just("advance"), st.sampled_from([1, 2, 3])),
    st.tuples(st.just("cancel_last"), st.just(0)),
)


def _drive(service, script):
    """Run one event script; returns normally whatever the script does."""
    vertices = service.fleet.grid.network.vertices()
    counter = 0
    last_request_id = None
    for kind, value in script:
        if kind in ("book", "ingest"):
            counter += 1
            start = vertices[(value * 7) % len(vertices)]
            destination = vertices[(value * 7 + 23) % len(vertices)]
            if destination == start:
                destination = vertices[(value * 7 + 24) % len(vertices)]
            request = Request(
                start=start,
                destination=destination,
                riders=1 + value % 3,
                max_waiting=service.config.max_waiting,
                service_constraint=service.config.service_constraint,
                request_id=f"P{counter}",
                submit_time=service.current_time,
            )
            if kind == "book":
                booking = service.book_request(request)
                if booking.options:
                    service.choose(booking.booking_id, 0)
                else:
                    service.cancel(booking.booking_id)
            else:
                service.ingest_request(request)
                last_request_id = request.request_id
        elif kind == "pump":
            service.pump()
        elif kind == "drain":
            service.drain()
        elif kind == "advance":
            service.advance(float(value))
        elif kind == "cancel_last" and last_request_id is not None:
            try:
                # Pending: removed from the window.  Already flushed: the
                # id names no booking, so the service raises the same
                # deterministic error live and on replay.
                service.cancel(last_request_id)
            except ServiceError:
                pass


@settings(max_examples=6, deadline=None)
@given(script=st.lists(_EVENTS, min_size=4, max_size=18), shuffle_seed=st.integers(0, 2**16))
def test_replay_properties(script, shuffle_seed):
    tmp = tempfile.mkdtemp(prefix="ptrider-journal-")
    try:
        service = build_system(
            vehicles=5,
            seed=13,
            network_rows=8,
            network_columns=8,
            durability="journal+snapshot",
            journal_path=tmp,
            snapshot_interval=4,
        )
        _drive(service, script)
        expected = canonical_state(service)
        service._journal.close()  # commits the open window but drains nothing

        # snapshot + tail == full-journal replay == the pre-crash service
        from_snapshot = PTRiderService.recover(tmp)
        from_baseline = PTRiderService.recover(tmp, prefer_snapshot=False)
        assert canonical_state(from_snapshot) == expected
        assert canonical_state(from_baseline) == expected

        # idempotence: re-applying the already-applied tail is a no-op
        journal = from_snapshot.journal
        tail = journal.records()
        replay_records(from_snapshot, tail)
        replay_records(from_snapshot, tail)
        assert canonical_state(from_snapshot) == expected

        # order-independence: a shuffled tail replays to the same state
        shuffled = list(journal.records())
        random.Random(shuffle_seed).shuffle(shuffled)
        reordered, _seq = PTRiderService._resume_at_snapshot(
            ServiceJournal(tmp), prefer_snapshot=False
        )
        replay_records(reordered, shuffled)
        assert canonical_state(reordered) == expected
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
