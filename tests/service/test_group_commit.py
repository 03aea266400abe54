"""Group commit: an ingest window's admissions share one journal transaction.

An ``admit`` record joins the open transaction; any other record commits
it.  A kill therefore loses the open window's admissions -- requests
nobody was answered for -- and a resumed driver re-issues them from
``journal.command_count()``.  A clean ``ServiceJournal.close`` and every
snapshot point commit first, so they lose nothing.
"""

from __future__ import annotations

import sqlite3

from repro.model.request import Request
from repro.service.api import PTRiderService, build_system
from repro.service.journal import JOURNAL_FILENAME
from repro.service.recovery import canonical_state

from tests.crash import kill


def _durable(directory, mode="journal", interval=1000):
    return build_system(
        vehicles=5,
        seed=17,
        network_rows=8,
        network_columns=8,
        durability=mode,
        journal_path=str(directory),
        snapshot_interval=interval,
    )


def _request(service, index):
    vertices = service.fleet.grid.network.vertices()
    start = vertices[(index * 7) % len(vertices)]
    destination = vertices[(index * 7 + 23) % len(vertices)]
    return Request(
        start=start,
        destination=destination,
        riders=1,
        max_waiting=service.config.max_waiting,
        service_constraint=service.config.service_constraint,
        request_id=f"G{index}",
        submit_time=service.current_time,
    )


def _committed_seq(directory) -> int:
    """The newest sequence number another connection can read."""
    reader = sqlite3.connect(str(directory / JOURNAL_FILENAME))
    try:
        return reader.execute("SELECT COALESCE(MAX(seq), 0) FROM journal").fetchone()[0]
    finally:
        reader.close()


def _without_durability(service):
    """Canonical state minus the knobs a non-durable reference lacks."""
    state = canonical_state(service)
    for key in ("durability", "journal_path", "snapshot_interval"):
        state["config"].pop(key)
    return state


def _kinds(journal):
    return [record.kind for record in journal.records()]


#: one script, one call per event: a closed window, then an open one
_SCRIPT = [
    ("ingest", 1),
    ("ingest", 2),
    ("drain", 0),
    ("advance", 1),
    ("ingest", 3),   # 4 <- the open window's first admission
    ("ingest", 4),
    ("ingest", 5),
]
_OPEN_WINDOW = 4


def _drive(service, script, start=0):
    for kind, value in script[start:]:
        if kind == "ingest":
            service.ingest_request(_request(service, value))
        elif kind == "drain":
            service.drain()
        else:
            service.advance(float(value))


def test_a_kill_mid_window_drops_exactly_that_windows_admissions(tmp_path):
    service = _durable(tmp_path)
    _drive(service, _SCRIPT[:_OPEN_WINDOW])
    before_window = _kinds(service.journal)
    _drive(service, _SCRIPT, start=_OPEN_WINDOW)
    assert _kinds(service.journal)[len(before_window):] == ["admit"] * 3
    kill(service)

    recovered = PTRiderService.recover(tmp_path)
    try:
        assert _kinds(recovered.journal) == before_window
        assert recovered.batcher.pending == 0
    finally:
        recovered.close()


def test_reissuing_from_command_count_reaches_the_never_crashed_state(tmp_path):
    reference = build_system(vehicles=5, seed=17, network_rows=8, network_columns=8)
    _drive(reference, _SCRIPT)
    durable = _durable(tmp_path / "journal")
    _drive(durable, _SCRIPT)
    kill(durable)

    recovered = PTRiderService.recover(tmp_path / "journal")
    try:
        resume_at = recovered.journal.command_count()
        assert resume_at == _OPEN_WINDOW
        _drive(recovered, _SCRIPT, start=resume_at)
        assert _without_durability(recovered) == _without_durability(reference)
    finally:
        recovered.close()


def test_a_cadence_delta_inside_an_open_window_survives_a_kill(tmp_path):
    # records: 1-2 admits, 3 drain, 4 outcome, 5 advance, 6-7 admits; the
    # cadence (every 7 records) crosses on the second admission of the
    # open window and writes a delta there
    service = _durable(tmp_path, mode="journal+snapshot", interval=7)
    _drive(service, _SCRIPT[: _OPEN_WINDOW + 1])
    assert service.journal.delta_files() == []
    assert _committed_seq(tmp_path) == 5  # the window's admission is not yet committed

    _drive(service, _SCRIPT[_OPEN_WINDOW + 1 : _OPEN_WINDOW + 2])
    [(delta_seq, _path)] = service.journal.delta_files()
    assert delta_seq == 7 and _committed_seq(tmp_path) == delta_seq
    expected = canonical_state(service)
    kill(service)

    recovered = PTRiderService.recover(tmp_path)
    try:
        assert recovered.journal.last_seq() == delta_seq
        assert canonical_state(recovered) == expected
        assert recovered.batcher.pending == 2
    finally:
        recovered.close()


def test_closing_the_journal_mid_window_loses_nothing(tmp_path):
    service = _durable(tmp_path)
    _drive(service, _SCRIPT)
    seq = service.journal.last_seq()
    assert _committed_seq(tmp_path) < seq  # the open window is uncommitted
    expected = canonical_state(service)
    service.journal.close()
    assert _committed_seq(tmp_path) == seq

    recovered = PTRiderService.recover(tmp_path)
    try:
        assert recovered.journal.command_count() == len(_SCRIPT)
        assert canonical_state(recovered) == expected
        assert recovered.batcher.pending == 3
    finally:
        recovered.close()
