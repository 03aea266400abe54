"""Invariants of incremental (delta) snapshots and retention.

ISSUE 10's durability half replaces the every-cadence full state serialise
with dirty-partition *delta* files folded over the last full snapshot, plus
a ``retention_horizon`` that prunes fully-served bookings from live state.
These tests drive mixed workloads (ingest, pumps, drains, per-request
bookings, time advances) against durable services and pin:

* **fold == full at every cadence**: whenever a snapshot point lands, the
  state recovered by folding the delta chain over the last full snapshot is
  *exactly* the state a full serialise would have captured at that journal
  position -- same bookings in the same order, same vehicles, same
  counters;
* **crash mid-delta falls back cleanly**: a truncated or corrupt delta
  (including a break in the middle of the chain) only shortens the folded
  prefix; journal replay covers the difference and recovery still
  reproduces the live service byte-for-byte;
* **every recovery path agrees**: a scripted workload with an explicit
  full snapshot in the middle recovers to the live canonical state by
  folding the deltas over that snapshot and by full-journal replay from
  the baseline (``prefer_snapshot=False``);
* **retention conserves**: pruned bookings are counted in ``retired``,
  never double-counted, and a recovered service reproduces the same
  retirement decisions (simulated time keys them, so replay is exact).
"""

from __future__ import annotations

import json
import random

import pytest

from repro.model.request import Request
from repro.service.api import PTRiderService, build_system
from repro.service.journal import ServiceJournal
from repro.service.recovery import (
    canonical_state,
    load_snapshot_state,
    serialize_state,
)


def _build(tmp_path, name, seed=11, retention_horizon=None, snapshot_interval=3):
    return build_system(
        network_rows=8,
        network_columns=8,
        vehicles=5,
        seed=seed,
        durability="journal+snapshot",
        journal_path=str(tmp_path / name),
        snapshot_interval=snapshot_interval,
        retention_horizon=retention_horizon,
    )


def _step(service, rng, verts, index):
    roll = rng.random()
    if roll < 0.5:
        service.ingest(rng.choice(verts), rng.choice(verts))
    elif roll < 0.65:
        service.pump()
    elif roll < 0.8:
        service.advance(rng.uniform(0.5, 2.0))
    elif roll < 0.9:
        service.drain()
    else:
        booking = service.book(rng.choice(verts), rng.choice(verts))
        if booking.options:
            service.choose(booking.booking_id, 0)


def _drive(service, seed, steps):
    rng = random.Random(seed)
    verts = service.fleet.grid.network.vertices()
    for index in range(steps):
        _step(service, rng, verts, index)


def _script(seed, steps, verts):
    """A reproducible command script with *pre-built* requests.

    Request ids come from a process-global counter, so two services driven
    through ``ingest``/``book`` mint different ids for the same trips.
    Scripting the exact request objects (ids included) lets two services
    process identical histories and compare canonical states directly.
    Advance durations are whole ticks so the mirrored clock stays exact.
    """
    rng = random.Random(seed)
    now = 0.0
    commands = []
    for index in range(steps):
        roll = rng.random()
        if roll < 0.55:
            start, destination = rng.choice(verts), rng.choice(verts)
            commands.append(
                (
                    "ingest",
                    Request(
                        start=start, destination=destination, riders=1,
                        max_waiting=5.0, service_constraint=0.2,
                        request_id=f"S{seed}-{index}", submit_time=now,
                    ),
                    now,
                )
            )
        elif roll < 0.7:
            commands.append(("pump", now))
        elif roll < 0.85:
            duration = float(rng.randint(1, 2))
            now += duration
            commands.append(("advance", duration))
        else:
            commands.append(("drain", now))
    # Leave no pending window: close() journals a final drain for pending
    # admissions, which would put the recovered state *past* a reference
    # captured before close.
    commands.append(("drain", now))
    return commands


def _apply(service, commands):
    for command in commands:
        if command[0] == "ingest":
            service.ingest_request(command[1], now=command[2])
        elif command[0] == "pump":
            service.pump(now=command[1])
        elif command[0] == "advance":
            service.advance(command[1])
        else:
            service.drain(now=command[1])


def _canonical_json(state):
    """JSON round-trip a state dict so tuples/keys compare like a file's."""
    return json.loads(json.dumps(state, separators=(",", ":")))


@pytest.mark.parametrize("seed", [11, 29])
def test_folded_equals_full_at_every_cadence(tmp_path, seed):
    service = _build(tmp_path, f"inc-{seed}", seed=seed)
    rng = random.Random(seed)
    verts = service.fleet.grid.network.vertices()
    checked = 0
    try:
        for index in range(45):
            _step(service, rng, verts, index)
            point = service._chain.point_seq
            if point > 0 and point == service._applied_seq:
                # A snapshot point landed on this very command: the folded
                # chain must reproduce a full serialise of the live state.
                loaded_seq, folded = load_snapshot_state(service.journal)
                assert loaded_seq == point
                assert folded == _canonical_json(serialize_state(service))
                checked += 1
    finally:
        service.close()
    assert checked >= 5, "workload produced too few snapshot points to test"


def test_crash_mid_delta_falls_back(tmp_path):
    service = _build(tmp_path, "torn", seed=17, snapshot_interval=2)
    _drive(service, 17, 40)
    service.drain()  # close() would journal a drain past the reference
    reference = canonical_state(service)
    journal_dir = service.journal.directory
    service.close()

    probe = ServiceJournal(journal_dir)
    deltas = probe.delta_files()
    probe.close()
    assert len(deltas) >= 2, "workload wrote too few deltas to corrupt"

    # Crash mid-write of the newest delta: truncated JSON.
    newest = deltas[-1][1]
    newest.write_text(newest.read_text(encoding="utf-8")[: newest.stat().st_size // 2],
                      encoding="utf-8")
    recovered = PTRiderService.recover(journal_dir)
    assert canonical_state(recovered) == reference
    recovered.close()

    # Corrupt a delta in the *middle* of the chain: the fold must stop at
    # the break (never skip over it) and replay the rest from the journal.
    middle = deltas[len(deltas) // 2][1]
    middle.write_text("garbage", encoding="utf-8")
    recovered = PTRiderService.recover(journal_dir)
    assert canonical_state(recovered) == reference
    recovered.close()

    # A leftover .tmp from a crash mid-rename is invisible to recovery.
    (journal_dir / "delta-000000000099.json.123.tmp").write_text(
        "partial", encoding="utf-8"
    )
    recovered = PTRiderService.recover(journal_dir)
    assert canonical_state(recovered) == reference
    recovered.close()


def test_every_recovery_path_reproduces_the_live_state(tmp_path):
    service = _build(tmp_path, "paths", seed=23)
    commands = _script(23, 35, service.fleet.grid.network.vertices())
    _apply(service, commands[:18])
    explicit = service.snapshot()  # the deltas after it chain on this full snapshot
    _apply(service, commands[18:])
    reference = canonical_state(service)
    journal_dir = service.journal.directory
    assert [path for _, path in service.journal.snapshot_files()][-1] == explicit
    assert service.journal.delta_files(), "no delta chained on the explicit snapshot"
    service.close()

    for prefer_snapshot in (True, False):
        recovered = PTRiderService.recover(journal_dir, prefer_snapshot=prefer_snapshot)
        try:
            assert canonical_state(recovered) == reference
        finally:
            recovered.close()


def test_retention_prunes_and_conserves(tmp_path):
    horizon = 10.0
    service = _build(tmp_path, "ret", seed=31, retention_horizon=horizon)
    rng = random.Random(31)
    verts = service.fleet.grid.network.vertices()
    created = 0
    for index in range(25):
        service.ingest(rng.choice(verts), rng.choice(verts))
        service.advance(1.0)
        service.pump()
    service.drain()
    created = len(service._bookings) + service.batcher.statistics.retired
    # Age everything out: every completed trip ends more than the horizon
    # before the final clock.
    service.advance(300.0)
    service.drain()  # close() would journal a drain past the reference
    stats = service.batcher.statistics
    assert stats.retired > 0, "nothing aged out despite the long advance"
    # Conservation: every booking ever created is live or retired (this
    # workload neither cancels nor leaves bookings unanswered).
    assert len(service._bookings) + stats.retired == created + 0
    # Anything still live either never completed or finished recently.
    records = service._engine.statistics._records
    for booking in service._bookings.values():
        record = records.get(booking.request.request_id)
        if booking.chosen is not None and record is not None:
            assert (
                record.dropoff_time is None
                or record.dropoff_time > service.current_time - horizon
            )
    reference = canonical_state(service)
    journal_dir = service.journal.directory
    service.close()
    recovered = PTRiderService.recover(journal_dir)
    try:
        # Replay reproduces the same retirement decisions and counter.
        assert canonical_state(recovered) == reference
        assert recovered.batcher.statistics.retired == stats.retired
    finally:
        recovered.close()
