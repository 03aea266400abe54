"""The durability journal: a SQLite write-ahead log of service events.

Every state-mutating event of a :class:`~repro.service.api.PTRiderService`
-- request admission, window pump/drain, per-request booking, option choice,
cancellation, sim-tick advance, parameter change -- is appended here as a
monotonic sequence-numbered record *before* it executes (write-ahead
discipline).  Recovery (:mod:`repro.service.recovery`) re-applies the
records in sequence order against a restored snapshot, so a crashed service
resumes at exactly the state the journal durably holds.

Two record classes live in the log:

* **command records** (:data:`COMMAND_KINDS`) -- the events recovery
  re-executes.  Each corresponds to exactly one service API call, which is
  what lets a crashed driver resume its script at
  ``journal.command_count()`` completed calls.
* **annotation records** (:data:`ANNOTATION_KINDS`) -- window-flush
  *outcome* records: one per command, collecting every outcome the
  command's flush produced (via the dispatcher's ``outcome_listener``).
  They are never re-executed; recovery uses them to cross-check that the
  re-derived outcomes match what the pre-crash service actually answered.

Storage follows the exemplar durability pragmas (SNIPPETS.md Snippet 3):
``journal_mode=WAL`` (readers never block the appender, a torn OS write
can lose the newest transactions but never corrupt committed ones),
``synchronous=NORMAL`` (fsync at WAL checkpoints, not per record -- the
standard WAL durability/throughput trade) and a ``busy_timeout`` so two
processes touching the same journal directory back off instead of failing.

The reader is deliberately forgiving about the tail: a record whose payload
no longer decodes (a torn write that slipped past SQLite's own atomicity,
or deliberate fault injection) truncates the readable log at that point --
everything before it replays, everything at and after it is reported in
``truncated_records`` and dropped.  Snapshots live next to the database as
``snapshot-<seq>.json`` files (see :mod:`repro.service.recovery`).
"""

from __future__ import annotations

import json
import sqlite3
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.errors import ServiceError
from repro.service.faults import fire as _fire_fault

__all__ = [
    "JournalRecord",
    "ServiceJournal",
    "COMMAND_KINDS",
    "ANNOTATION_KINDS",
    "JOURNAL_FILENAME",
]

#: The SQLite database file inside the journal directory.
JOURNAL_FILENAME = "journal.sqlite"

#: Events recovery re-executes, one per service API call.
COMMAND_KINDS = (
    "book",
    # Older builds journaled a batch-submit burst as one record; recovery
    # replays it as one booking per request.  Nothing writes it any more.
    "book_batch",
    "admit",
    "pump",
    "drain",
    "choose",
    "cancel",
    "advance",
    "set_parameters",
)

#: Events recovery only cross-checks (window flush outcomes).
ANNOTATION_KINDS = ("outcome",)

#: Milliseconds a writer waits on a locked database before giving up
#: (Snippet 3's ``busy_timeout``; generous because snapshot writes and
#: appends may interleave from warm-restart tooling).
BUSY_TIMEOUT_MS = 30_000

_SCHEMA = """
CREATE TABLE IF NOT EXISTS journal (
    seq     INTEGER PRIMARY KEY,
    kind    TEXT NOT NULL,
    payload TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
"""


@dataclass(frozen=True)
class JournalRecord:
    """One journal entry: a monotonic sequence number, a kind, a payload."""

    seq: int
    kind: str
    payload: Dict[str, object]

    @property
    def is_command(self) -> bool:
        """``True`` for records recovery re-executes."""
        return self.kind in COMMAND_KINDS


class ServiceJournal:
    """An append-only, sequence-numbered event log in a directory.

    Args:
        directory: the journal directory (created if absent).  Holds the
            SQLite database plus the snapshot files recovery reads.

    The connection is opened lazily and re-opened after :meth:`close`, so a
    closed-then-reused service keeps journaling (mirroring the dispatcher's
    reusable ``close``).
    """

    def __init__(self, directory: "Path | str") -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._conn: Optional[sqlite3.Connection] = None
        #: payload-level torn-tail records dropped by the last :meth:`records`
        self.truncated_records = 0

    # ------------------------------------------------------------------
    @property
    def database_path(self) -> Path:
        """Where the SQLite log lives."""
        return self.directory / JOURNAL_FILENAME

    @property
    def connection(self) -> sqlite3.Connection:
        """The live connection (opened with the Snippet 3 pragmas)."""
        if self._conn is None:
            # isolation_level=None puts the connection in autocommit mode:
            # every INSERT is its own implicit transaction without the
            # explicit BEGIN/COMMIT round trips Python's default isolation
            # management adds -- measurably cheaper on the append hot path,
            # identical durability under WAL + synchronous=NORMAL.
            conn = sqlite3.connect(str(self.database_path), isolation_level=None)
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute("PRAGMA foreign_keys=ON")
            conn.execute(f"PRAGMA busy_timeout={BUSY_TIMEOUT_MS}")
            conn.executescript(_SCHEMA)
            self._conn = conn
        return self._conn

    def close(self) -> None:
        """Close the connection (re-opened lazily on the next use)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    # ------------------------------------------------------------------
    # appending
    # ------------------------------------------------------------------
    def append(self, kind: str, payload: Dict[str, object]) -> int:
        """Append one record; returns its sequence number.

        Each append is its own transaction: under WAL +
        ``synchronous=NORMAL`` a power loss may drop the newest
        transactions (redo recovery absorbs that -- the corresponding
        calls simply never happened) but committed records survive intact.
        """
        if kind not in COMMAND_KINDS and kind not in ANNOTATION_KINDS:
            raise ServiceError(f"unknown journal record kind {kind!r}")
        # Chaos-harness hook: an injected error here models a failed disk
        # write *before* the INSERT, so the write-ahead discipline holds --
        # the record never lands and the command never executes.
        _fire_fault("journal.append", tag=kind)
        cursor = self.connection.execute(
            "INSERT INTO journal (kind, payload) VALUES (?, ?)",
            (kind, json.dumps(payload, separators=(",", ":"))),
        )
        return int(cursor.lastrowid)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def last_seq(self) -> int:
        """The highest committed sequence number (0 when empty)."""
        try:
            row = self.connection.execute("SELECT MAX(seq) FROM journal").fetchone()
        except sqlite3.DatabaseError:
            return 0
        return int(row[0]) if row and row[0] is not None else 0

    def is_fresh(self) -> bool:
        """``True`` when the journal holds no records and no metadata."""
        try:
            records = self.last_seq() == 0
            meta = (
                self.connection.execute("SELECT COUNT(*) FROM meta").fetchone()[0] == 0
            )
        except sqlite3.DatabaseError:
            return False
        return records and meta

    def records(self, start_seq: int = 0) -> List[JournalRecord]:
        """Every readable record with ``seq > start_seq``, in sequence order.

        Torn-tail tolerant: a row whose payload fails to decode (or a
        database error mid-scan) truncates the result there -- the records
        before it are returned, the unreadable suffix is counted in
        :attr:`truncated_records`.  Rows are ordered by sequence number
        regardless of physical arrival order.
        """
        self.truncated_records = 0
        result: List[JournalRecord] = []
        try:
            rows = self.connection.execute(
                "SELECT seq, kind, payload FROM journal WHERE seq > ? ORDER BY seq",
                (start_seq,),
            ).fetchall()
        except sqlite3.DatabaseError:
            self.truncated_records += 1
            return result
        for index, (seq, kind, payload_text) in enumerate(rows):
            try:
                payload = json.loads(payload_text)
            except (TypeError, ValueError):
                # Torn write: drop this record and everything after it --
                # a redo log must never apply a suffix beyond a hole.
                self.truncated_records = len(rows) - index
                break
            result.append(JournalRecord(seq=int(seq), kind=str(kind), payload=payload))
        return result

    def command_count(self) -> int:
        """How many *command* records the readable log holds.

        The crash-recovery contract: every command record replays to
        completion, so a driver that crashed mid-script resumes at this
        many completed calls.
        """
        return sum(1 for record in self.records() if record.is_command)

    def truncate_after(self, seq: int) -> int:
        """Delete every record with ``seq >`` the given position; returns how many.

        Recovery calls this after absorbing a torn tail: the unreadable
        suffix must be physically removed before new records are appended,
        otherwise the hole would truncate every future read at the same
        spot and silently discard everything recorded after the restart.
        """
        cursor = self.connection.execute(
            "DELETE FROM journal WHERE seq > ?", (seq,)
        )
        return int(cursor.rowcount)

    # ------------------------------------------------------------------
    # metadata (written once at journal creation)
    # ------------------------------------------------------------------
    def set_meta(self, key: str, value: object) -> None:
        """Store a JSON-serialisable metadata value."""
        self.connection.execute(
            "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
            (key, json.dumps(value, separators=(",", ":"))),
        )

    def get_meta(self, key: str) -> Optional[object]:
        """Read a metadata value (``None`` when absent)."""
        row = self.connection.execute(
            "SELECT value FROM meta WHERE key = ?", (key,)
        ).fetchone()
        if row is None:
            return None
        return json.loads(row[0])

    # ------------------------------------------------------------------
    # snapshot files (content managed by repro.service.recovery)
    # ------------------------------------------------------------------
    def snapshot_path(self, seq: int) -> Path:
        """Where the snapshot taken at journal position ``seq`` lives."""
        return self.directory / f"snapshot-{seq:012d}.json"

    def delta_path(self, seq: int) -> Path:
        """Where the incremental snapshot delta at position ``seq`` lives.

        Deltas hold only the state partitions dirtied since the previous
        snapshot point; recovery folds an unbroken chain of them over the
        full snapshot they name as their base (see
        :mod:`repro.service.recovery`).
        """
        return self.directory / f"delta-{seq:012d}.json"

    def delta_files(self) -> List[Tuple[int, Path]]:
        """Complete delta files present, oldest first, as ``(seq, path)``.

        Like :meth:`snapshot_files`, in-flight ``*.tmp`` files (a crash
        mid-delta) are invisible: only a finished atomic rename counts.
        """
        found: List[Tuple[int, Path]] = []
        for path in sorted(self.directory.glob("delta-*.json")):
            stem = path.stem.split("-", 1)
            try:
                found.append((int(stem[1]), path))
            except (IndexError, ValueError):
                continue
        found.sort(key=lambda item: item[0])
        return found

    def prune_deltas(self, upto_seq: int) -> int:
        """Delete delta files with ``seq <= upto_seq``; returns how many.

        Called when a full snapshot (compaction) lands at ``upto_seq``:
        the chain those deltas belonged to is superseded -- a fallback
        from a later corrupt snapshot recovers through journal replay, for
        which the journal itself stays authoritative.
        """
        pruned = 0
        for seq, path in self.delta_files():
            if seq > upto_seq:
                continue
            try:
                path.unlink()
                pruned += 1
            except OSError:  # pragma: no cover - fs race
                continue
        return pruned

    def snapshot_files(self) -> List[Tuple[int, Path]]:
        """Complete snapshot files present, oldest first, as ``(seq, path)``.

        In-flight ``*.tmp`` files (a crash mid-snapshot) are ignored: only
        a finished atomic rename makes a snapshot visible here.
        """
        found: List[Tuple[int, Path]] = []
        for path in sorted(self.directory.glob("snapshot-*.json")):
            stem = path.stem.split("-", 1)
            try:
                found.append((int(stem[1]), path))
            except (IndexError, ValueError):
                continue
        found.sort(key=lambda item: item[0])
        return found

    def prune_snapshots(self, keep: int = 3) -> int:
        """Delete all but the newest ``keep`` snapshots; returns how many.

        At least two are worth keeping so a corrupt newest snapshot still
        leaves a previous one to fall back to (with a longer replay).  The
        sequence-0 baseline is never pruned: it is the anchor full-journal
        replay starts from and the fallback of last resort when every
        periodic snapshot is damaged.
        """
        files = [(seq, path) for seq, path in self.snapshot_files() if seq > 0]
        pruned = 0
        for _seq, path in files[: max(0, len(files) - keep)]:
            try:
                path.unlink()
                pruned += 1
            except OSError:
                continue
        return pruned

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ServiceJournal({str(self.directory)!r}, last_seq={self.last_seq()})"
