"""Fault-injection harness: crash the service anywhere, recover, compare.

Every trial runs one scripted event sequence through two arms:

* a **reference arm** -- a plain in-memory service that never crashes and
  executes the whole script;
* a **durable arm** -- a journaling service that is killed after a chosen
  number of calls (the journal connection is dropped with no drain, no
  commit and no clean shutdown, exactly what ``kill -9`` leaves behind --
  see :func:`tests.crash.kill`), recovered via
  :meth:`~repro.service.api.PTRiderService.recover`, and then resumed:
  the driver re-walks the script from ``journal.command_count()`` --
  the number of calls the journal proves completed -- replaying any calls
  the crash (or a torn journal tail) swallowed.

After the durable arm finishes the script, its canonical state must equal
the reference arm's -- bookings, vehicle kinetic trees, fleet positions,
engine bookkeeping, statistics counters, pending window -- with only the
durability configuration knobs themselves excluded (the reference arm has
none).  Both arms are driven with *identical* :class:`Request` objects
(fixed request ids), since ids are salted per process and two services
minting their own would never compare equal.

Kill points cover the ISSUE's taxonomy: right after an admission, in the
middle of an open batching window, between a window flush and the
follow-up choose, and mid-snapshot (a stray ``.tmp`` the atomic rename
never finished).  On top of the kill points, trials inject torn-write
journal tails (the last record's payload is garbled in place) and
corrupt/partial newest snapshot points (recovery must fall back to an
older one and replay further).
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from repro.errors import PTRiderError
from repro.model.request import Request
from repro.service.api import PTRiderService, build_system
from repro.service.recovery import canonical_state

from tests.crash import kill

SEED = 29
VEHICLES = 5
ROWS = COLUMNS = 8
SNAPSHOT_INTERVAL = 5


def _build(tmp=None):
    kwargs = {}
    if tmp is not None:
        kwargs = {
            "durability": "journal+snapshot",
            "journal_path": str(tmp),
            "snapshot_interval": SNAPSHOT_INTERVAL,
        }
    return build_system(
        vehicles=VEHICLES,
        seed=SEED,
        network_rows=ROWS,
        network_columns=COLUMNS,
        **kwargs,
    )


def _drive(service, script, start=0):
    """Execute ``script[start:]``; every event issues exactly one call.

    The one-event/one-call invariant is what makes resumption trivial:
    after a crash, ``journal.command_count()`` is both the number of
    journal command records and the script index to continue from.
    Deterministically-erroring calls (choosing a closed booking,
    cancelling an unknown id) still count -- they are journaled
    write-ahead and replay to the same error.
    """
    vertices = service.fleet.grid.network.vertices()
    for kind, value in script[start:]:
        if kind in ("book", "ingest"):
            origin = vertices[(value * 11) % len(vertices)]
            destination = vertices[(value * 11 + 19) % len(vertices)]
            if destination == origin:
                destination = vertices[(value * 11 + 20) % len(vertices)]
            request = Request(
                start=origin,
                destination=destination,
                riders=1 + value % 3,
                max_waiting=service.config.max_waiting,
                service_constraint=service.config.service_constraint,
                request_id=f"X{value}",
                submit_time=service.current_time,
            )
            if kind == "book":
                service.book_request(request)
            else:
                service.ingest_request(request)
        elif kind == "choose":
            try:
                service.choose(f"B{value}", 0)
            except PTRiderError:
                pass  # closed/unknown booking: same deterministic error on replay
        elif kind == "cancel":
            try:
                service.cancel(f"X{value}")
            except PTRiderError:
                pass  # already flushed or never admitted
        elif kind == "pump":
            service.pump()
        elif kind == "drain":
            service.drain()
        elif kind == "advance":
            service.advance(float(value))
        else:  # pragma: no cover - script construction error
            raise AssertionError(f"unknown script event {kind!r}")


def _comparable(service):
    """Canonical state minus the durability knobs the reference arm lacks."""
    state = canonical_state(service)
    config = dict(state["config"])
    for key in ("durability", "journal_path", "snapshot_interval"):
        config.pop(key, None)
    state["config"] = config
    return state


def _tear_last_record(journal_dir):
    """Garble the newest record's payload in place (a torn write)."""
    import sqlite3

    conn = sqlite3.connect(str(Path(journal_dir) / "journal.sqlite"))
    try:
        conn.execute(
            "UPDATE journal SET payload = ? "
            "WHERE seq = (SELECT MAX(seq) FROM journal)",
            ("{torn-write",),
        )
        conn.commit()
    finally:
        conn.close()


def _run_trial(
    tmp_path,
    script,
    kill_index,
    *,
    torn_tail=False,
    stray_snapshot_tmp=False,
    corrupt_newest_snapshot=False,
    resume_at=None,
):
    """Kill the durable arm at ``kill_index``, recover, resume, compare.

    ``resume_at`` is where the journal must say the script resumes:
    ``kill_index``, unless the kill lands in an open ingest window, whose
    uncommitted admissions it loses -- then the window's first admission.
    """
    if resume_at is None:
        resume_at = kill_index
    reference = _build()
    _drive(reference, script)

    journal_dir = tmp_path / "journal"
    durable = _build(journal_dir)
    _drive(durable, script[:kill_index])
    kill(durable)  # the crash: no drain, no commit, no clean shutdown
    del durable

    if torn_tail:
        _tear_last_record(journal_dir)
    if stray_snapshot_tmp:
        # a crash mid-snapshot leaves the unfinished temp file behind
        (journal_dir / "snapshot-000000000099.json.321.tmp").write_text('{"half')
    if corrupt_newest_snapshot:
        # the newest snapshot point: a delta, or a full snapshot
        points = sorted(
            [*journal_dir.glob("snapshot-*.json"), *journal_dir.glob("delta-*.json")],
            key=lambda path: int(path.stem.split("-")[1]),
        )
        assert len(points) >= 2, "no snapshot point past the baseline"
        text = points[-1].read_text()
        points[-1].write_text(text[: len(text) // 2])

    recovered = PTRiderService.recover(journal_dir)
    resumed_at = recovered.journal.command_count()
    if torn_tail:
        # the torn record may be an outcome annotation, in which case no
        # command was lost and the resume point is unchanged
        assert resumed_at <= resume_at
    else:
        assert resumed_at == resume_at
    _drive(recovered, script, start=resumed_at)
    assert _comparable(recovered) == _comparable(reference)
    return recovered


#: One script exercising every event kind, with indices marking the ISSUE's
#: named kill points (each event is exactly one service call).
_SCRIPT = [
    ("book", 1),       # 0
    ("choose", 1),     # 1
    ("ingest", 2),     # 2   <- kill at 3: right after an admission
    ("ingest", 3),     # 3   <- kill at 4: mid-window, two admissions pending
                       #        (either kill loses the window: resume at 2)
    ("pump", 0),       # 4
    ("advance", 2),    # 5
    ("drain", 0),      # 6
    ("book", 4),       # 7   <- kill at 8: between flush and the choose
    ("choose", 2),     # 8
    ("cancel", 9),     # 9   unknown id: deterministic error, still journaled
    ("ingest", 5),     # 10
    ("cancel", 5),     # 11  cancels the pending admission
    ("advance", 1),    # 12
    ("ingest", 6),     # 13
    ("drain", 0),      # 14
    ("choose", 3),     # 15  closed/unknown booking: deterministic error
    ("advance", 3),    # 16
]


class TestNamedKillPoints:
    @pytest.mark.parametrize(
        ("kill_index", "resume_at"),
        [(3, 2), (4, 2), (8, 8), (len(_SCRIPT) - 1, len(_SCRIPT) - 1)],
        ids=["after-admission", "mid-window", "flush-vs-choose", "near-end"],
    )
    def test_recovered_state_matches_reference(self, tmp_path, kill_index, resume_at):
        _run_trial(tmp_path, _SCRIPT, kill_index, resume_at=resume_at)

    def test_crash_mid_snapshot_ignores_stray_tmp(self, tmp_path):
        _run_trial(tmp_path, _SCRIPT, 8, stray_snapshot_tmp=True)

    def test_torn_journal_tail_truncated_and_reissued(self, tmp_path):
        recovered = _run_trial(tmp_path, _SCRIPT, 8, torn_tail=True)
        # the torn suffix was physically removed: the journal reads clean
        # end to end and the re-issued calls landed after the truncation
        journal = recovered.journal
        assert journal.records() and journal.truncated_records == 0

    def test_corrupt_newest_snapshot_falls_back_and_replays(self, tmp_path):
        # enough events to lay down periodic snapshots past the baseline
        script = _SCRIPT + [("advance", 1)] * 8
        _run_trial(tmp_path, script, len(script) - 2, corrupt_newest_snapshot=True)


class TestRandomizedKillPoints:
    """Random scripts, random kill points, random fault cocktails."""

    @pytest.mark.parametrize("trial_seed", range(6))
    def test_recovery_always_matches_reference(self, tmp_path, trial_seed):
        rng = random.Random(trial_seed)
        script = []
        for index in range(rng.randint(8, 20)):
            kind = rng.choice(
                ["book", "ingest", "ingest", "choose", "cancel", "pump", "drain", "advance"]
            )
            if kind in ("book", "ingest"):
                script.append((kind, 10 + index))
            elif kind == "choose":
                script.append((kind, rng.randint(1, 4)))
            elif kind == "cancel":
                script.append((kind, rng.randint(10, 10 + index)))
            elif kind == "advance":
                script.append((kind, rng.randint(1, 3)))
            else:
                script.append((kind, 0))
        kill_index = rng.randint(1, len(script))
        _run_trial(
            tmp_path,
            script,
            kill_index,
            torn_tail=rng.random() < 0.4,
            stray_snapshot_tmp=rng.random() < 0.4,
        )
