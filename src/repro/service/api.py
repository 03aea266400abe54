"""The PTRider service: the demo's smartphone and website flows as an API.

Smartphone interface (Section 4.1)
    1. :meth:`PTRiderService.book` -- the rider supplies a start location, a
       destination and a rider count; the service applies the global waiting
       time / service constraint and returns the non-dominated options;
    2. :meth:`PTRiderService.choose` -- the rider picks an option; the
       serving vehicle's kinetic tree and the grid's vehicle lists are
       updated.

Website interface (Section 4.2)
    * :meth:`PTRiderService.vehicle_schedules` -- the trip schedules of a
      selected taxi (the red branches drawn on the demo's map);
    * :meth:`PTRiderService.statistics` -- the live panel (current time,
      average response time, average sharing rate, ...);
    * :meth:`PTRiderService.routing_statistics` -- the routing-layer admin
      panel: backend in use, query/cache counters and the seconds the
      engine's one-time preprocessing took;
    * :meth:`PTRiderService.set_parameters` -- the admin form (taxi capacity,
      number of taxis, maximum waiting time, service constraint, price
      calculator, matching algorithm, routing backend).

Time advances through :meth:`PTRiderService.advance`, which delegates to the
simulation engine: vehicles drive their schedules, pick-ups and drop-offs
fire, and idle vehicles wander -- exactly the demo's background behaviour.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.baselines.nearest import NearestVehicleMatcher
from repro.baselines.sharek import SharekStyleMatcher
from repro.baselines.tshare import TShareStyleMatcher
from repro.core.config import MATCHER_NAMES, SystemConfig
from repro.core.context import MatchContext
from repro.core.dispatcher import DispatchOutcome, Dispatcher
from repro.core.dual_side import DualSideSearchMatcher
from repro.core.matcher import Matcher, MatcherStatistics
from repro.core.naive import NaiveKineticTreeMatcher
from repro.core.single_side import SingleSideSearchMatcher
from repro.counters import counters
from repro.errors import ServiceError, UnknownOptionError
from repro.model.options import RideOption
from repro.model.request import Request
from repro.roadnet.generators import grid_network
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.grid_index import GridIndex
from repro.roadnet.io import network_from_dict, network_to_dict
from repro.roadnet.routing import make_engine
from repro.service.ingest import IngestStatistics, MicroBatcher
from repro.service.journal import ServiceJournal
from repro.service.recovery import (
    OutcomeAnnotation,
    RecoveryError,
    SnapshotChain,
    deserialize_config,
    encode,
    replay_records,
    restore_state,
    write_snapshot,
)
from repro.sim.engine import SimulationEngine
from repro.sim.workload import RequestWorkload
from repro.vehicles.fleet import Fleet
from repro.vehicles.vehicle import Vehicle

__all__ = ["Booking", "PTRiderService", "build_system", "assemble_fleet", "MATCHER_REGISTRY"]

#: Matching algorithms selectable through the admin interface, keyed by
#: the config's one list of names.
MATCHER_REGISTRY = dict(zip(MATCHER_NAMES, (
    SingleSideSearchMatcher,
    DualSideSearchMatcher,
    NaiveKineticTreeMatcher,
    NearestVehicleMatcher,
    SharekStyleMatcher,
    TShareStyleMatcher,
), strict=True))


@dataclass
class Booking:
    """One rider interaction: request, offered options, eventual choice."""

    booking_id: str
    request: Request
    options: Tuple[RideOption, ...]
    #: stored as its index in ``options`` (-1 while open)
    chosen: Optional[RideOption] = field(
        default=None, metadata={"key": "chosen_index", "index_of": "options"}
    )
    #: wall-clock seconds the matcher needed to produce the options
    response_seconds: float = field(default=0.0, metadata={"wall_clock": True})
    #: the context the options were matched under, while the booking is open:
    #: :meth:`PTRiderService.choose` commits through it (direct distance and
    #: verified insertions in hand); ``choose``, ``cancel`` and a
    #: reconfiguration (``set_parameters``) drop it.  Never
    #: serialised -- a recovered booking has none and commits from scratch.
    context: Optional[MatchContext] = field(
        default=None, repr=False, compare=False, metadata={"durable": False}
    )

    @property
    def is_open(self) -> bool:
        """``True`` while the rider has not chosen (or cancelled)."""
        return self.chosen is None

    @property
    def option_count(self) -> int:
        """Number of non-dominated options offered."""
        return len(self.options)


class PTRiderService:
    """The complete in-memory PTRider system.

    Args:
        fleet: the vehicle fleet (already registered in a grid index).
        config: global system parameters.  With ``durability`` other than
            "off" the service opens (or creates) the write-ahead journal at
            ``config.journal_path``, records the road network / grid shape /
            config in its metadata, writes a baseline snapshot, and from
            then on journals every state-mutating call before executing it.
            A journal directory that already holds state is refused here --
            use :meth:`recover` to restore it.
        seed: seed for the embedded simulation engine's idle wandering.
        wall_clock: override for the batcher's flush-wall clock (tests and
            replay benchmarks inject a deterministic counter so adaptive
            window trajectories -- which feed on flush walls -- replay
            byte-identically; ``None`` uses ``time.perf_counter``).
    """

    def __init__(
        self,
        fleet: Fleet,
        config: Optional[SystemConfig] = None,
        seed: Optional[int] = None,
        wall_clock: Optional[Callable[[], float]] = None,
        _journal: Optional[ServiceJournal] = None,
        _resume: bool = False,
    ) -> None:
        self._fleet = fleet
        #: wall-clock override for the batcher (deterministic benchmarks /
        #: tests inject a fake clock; ``None`` = ``time.perf_counter``)
        self._wall_clock = wall_clock
        self._config = config or SystemConfig()
        backend = fleet.routing_engine.backend
        if self._config.routing_backend != backend:
            # The fleet's engine is what answers queries; a config naming
            # another backend would journal it, and recovery would rebuild
            # the service onto an engine it never served on.
            self._config = self._config.with_updates(routing_backend=backend)
        self._journal: Optional[ServiceJournal] = _journal
        if self._journal is None and self._config.durability != "off":
            self._journal = ServiceJournal(self._config.journal_path)
        # What outlives every rebuild of the matcher, dispatcher and batcher
        # (:meth:`_assemble`): their work counters, and the listener that
        # hears the running command's window-flush outcomes (journaled when
        # the command finishes).
        self._matcher_statistics = MatcherStatistics()
        self._ingest_statistics = IngestStatistics()
        self._annotation = OutcomeAnnotation()
        self._engine = SimulationEngine(
            dispatcher=self._assemble(),
            workload=RequestWorkload([]),
            speed=self._config.speed,
            tick=1.0,
            seed=seed,
        )
        self._bookings: Dict[str, Booking] = {}
        #: the number of the next booking id
        self._next_booking = 1
        self._ingest_answered: List[Booking] = []
        #: highest journal sequence number already applied to this state
        #: (idempotence high-water mark for replay)
        self._applied_seq = 0
        #: whether mutating calls append journal records (off during replay)
        self._recording = False
        #: the snapshot chain this service extends, and what its next point carries
        self._chain = SnapshotChain()
        self._chain.track(self)
        if self._journal is not None and not _resume:
            if not self._journal.is_fresh():
                if _journal is None:
                    # opened above, so no caller holds it to close
                    self._journal.close()
                raise ServiceError(
                    f"journal at {self._journal.directory} already holds "
                    "state; use PTRiderService.recover() to restore it"
                )
            # Metadata makes recover(journal_path) self-contained: the
            # road network, grid shape, tree-cache capacity and config
            # travel with the log.
            grid = self._fleet.grid
            for key, value in (
                ("network", network_to_dict(grid.network)),
                ("grid", {"rows": grid.rows, "columns": grid.columns}),
                ("max_cached_sources", fleet.routing_engine.max_cached_sources),
                ("config", encode(self._config)),
                ("seed", seed),
            ):
                self._journal.set_meta(key, value)
            # Baseline snapshot at position 0: full-journal replay (and
            # plain "journal" mode, which never snapshots again) starts
            # from here.
            write_snapshot(self._journal, self, 0)
            self._recording = True

    def _assemble(self) -> Dispatcher:
        """Build the matcher, dispatcher and ingest batcher on the fleet and
        the config; returns the dispatcher, for the simulation engine.

        They add to the service's own counters and report outcomes to its
        annotation, so a rebuild (:meth:`set_parameters`) carries nothing.
        """
        config = self._config
        self._matcher = MATCHER_REGISTRY[config.matcher_name](
            self._fleet, config=config, statistics=self._matcher_statistics
        )
        self._dispatcher = Dispatcher(self._fleet, self._matcher, config)
        if self._journal is not None:
            self._dispatcher.outcome_listener = self._annotation
        # The batcher's default clock is the service's simulated time (the
        # same clock request submit times are stamped with), so
        # ``batch_window`` counts the seconds :meth:`advance` moves; replay
        # and live callers can still pass an explicit ``now`` per call.
        self._batcher = MicroBatcher(
            self._dispatcher,
            batch_window=config.batch_window,
            max_batch_size=config.max_batch_size,
            queue_capacity=config.queue_capacity,
            queue_policy=config.queue_policy,
            speed=config.speed,
            latency_budget=config.latency_budget,
            window_mode=config.batch_window_mode,
            window_min=config.batch_window_min,
            window_max=config.batch_window_max,
            clock=lambda: self._engine.time,
            on_outcome=self._record_ingest_outcome,
            wall_clock=self._wall_clock,
            statistics=self._ingest_statistics,
        )
        return self._dispatcher

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    @property
    def fleet(self) -> Fleet:
        """The fleet behind the service."""
        return self._fleet

    @property
    def config(self) -> SystemConfig:
        """The current global parameters."""
        return self._config

    @property
    def dispatcher(self) -> Dispatcher:
        """The dispatcher used by the service (exposed for examples/benchmarks)."""
        return self._dispatcher

    @property
    def matcher(self) -> Matcher:
        """The matching algorithm currently in use."""
        return self._matcher

    @property
    def current_time(self) -> float:
        """The current simulation time (the website panel's clock)."""
        return self._engine.time

    # ------------------------------------------------------------------
    # durability (write-ahead journal + snapshots)
    # ------------------------------------------------------------------
    @property
    def journal(self) -> Optional[ServiceJournal]:
        """The durability journal (``None`` when ``durability="off"``)."""
        return self._journal

    def _journal_command(self, kind: str, payload: Dict[str, object]) -> None:
        """Write-ahead: append a command record *before* executing it.

        A crash after the append but before (or during) execution is
        absorbed by recovery, which re-executes the command to completion;
        a crash before the append means the call simply never happened.
        """
        if self._journal is not None and self._recording:
            self._annotation.outcomes.clear()
            self._applied_seq = self._journal.append(kind, payload)

    def _finish_command(self) -> None:
        """Post-command bookkeeping: journal the command's outcome
        annotation (one record, however many outcomes its flush produced)
        and apply the snapshot cadence (:meth:`SnapshotChain.finish`)."""
        if self._journal is None or not self._recording:
            return
        # Every record this service writes goes through ``append``, so the
        # sequence number it returned last is the journal's position.
        seq = self._annotation.append_to(self._journal)
        if seq is not None:
            self._applied_seq = seq
        self._chain.finish(self)

    def _window_payload(self, payload: Dict[str, object]) -> Dict[str, object]:
        """Stamp the effective ingest window onto a serving-path payload.

        Under ``batch_window_mode="adaptive"`` the window in force when a
        command executed was picked by wall-clock flush walls -- replay
        cannot re-derive it.  Journaling it per command lets
        :func:`~repro.service.recovery.apply_record` pin the recorded
        window before re-executing, keeping replayed window boundaries
        (and therefore flush outcomes) byte-identical.
        """
        if self._batcher.window_mode == "adaptive":
            payload["window"] = self._batcher.current_window
        return payload

    def snapshot(self) -> Path:
        """Write a snapshot of the current state at the journal's position.

        Returns the snapshot file's path.  The same full snapshot a delta
        chain's compaction writes (:meth:`SnapshotChain.write`), for admin
        tooling -- e.g. right before a planned restart, so recovery replays
        nothing.

        Raises:
            ServiceError: when durability is off (there is no journal).
        """
        if self._journal is None:
            raise ServiceError("durability is off; there is no journal to snapshot")
        return self._chain.write(self, full=True)

    @classmethod
    def _resume_at_snapshot(
        cls, journal: ServiceJournal, prefer_snapshot: bool = True
    ) -> Tuple["PTRiderService", int]:
        """Build a service from the journal's metadata at its newest snapshot.

        The restore half of :meth:`recover`: the road network, grid shape,
        tree-cache capacity (1024 for a journal that predates it) and seed
        come from the journal's metadata, the config from the
        newest valid snapshot (or the baseline, with
        ``prefer_snapshot=False``) -- a ``set_parameters`` the snapshot
        covers is not replayed, so the journal's creation-time config would
        be stale -- and that snapshot is restored; recording stays
        suspended and *no* records are replayed.
        Returns the service and the snapshot's journal position.  The
        property suite uses this seam to replay tails in custom orders.
        """
        network_payload = journal.get_meta("network")
        if network_payload is None or journal.get_meta("config") is None:
            raise RecoveryError(
                f"journal at {journal.directory} holds no service metadata; "
                "it was never attached to a durable service"
            )
        chain, seq, state = SnapshotChain.load(journal, prefer_snapshot)
        config = deserialize_config(state["config"])
        grid_meta = journal.get_meta("grid") or {}
        fleet = assemble_fleet(  # no taxis placed: the snapshot's fleet is restored
            network_from_dict(network_payload),
            config,
            vehicles=0,
            seed=None,
            grid_rows=int(grid_meta.get("rows", 8)),
            grid_columns=int(grid_meta.get("columns", 8)),
            max_cached_sources=int(journal.get_meta("max_cached_sources") or 1024),
        )
        service = cls(
            fleet,
            config=config,
            seed=journal.get_meta("seed"),
            _journal=journal,
            _resume=True,
        )
        restore_state(service, state)
        service._applied_seq = seq
        # The restored lists are exactly their at-``seq`` lengths: the next
        # delta's suffixes start here, and the replayed tail appends past
        # them through the same mutation paths live execution uses.
        service._chain = chain
        chain.start(service)
        return service, seq

    @classmethod
    def recover(
        cls, journal_path: "Path | str", prefer_snapshot: bool = True
    ) -> "PTRiderService":
        """Rebuild a service from its durability journal after a crash.

        The restore + replay flow: read the journal's metadata (road
        network, grid shape, config, seed), build a fresh service on them
        with recording suspended, restore the newest *valid* snapshot
        (corrupt or partial snapshot files fall back to older ones, down
        to the baseline), re-execute the journal tail past the snapshot in
        sequence order -- cross-checking re-derived window-flush outcomes
        against the journaled annotations -- and resume recording.  A torn
        journal tail (unreadable suffix) is dropped and physically
        truncated so post-recovery records are never written beyond a hole.

        The recovered state is ``==`` (on serialized state, wall-clock
        measurements aside) to the pre-crash service: bookings, vehicle
        schedules, fleet positions and the simulation and ingest statistics
        included.  The matcher's work counters are not stored: after a
        restore from a snapshot their ``matcher_*`` panel series counts only
        the replayed tail.

        Args:
            journal_path: the journal directory of the crashed service.
            prefer_snapshot: with ``False``, ignore periodic snapshots and
                replay the full journal from the baseline (the ablation arm
                of the recovery benchmark).

        Raises:
            RecoveryError: when the journal has no metadata, no usable
                snapshot, or the replay diverges from the journaled
                outcomes.
        """
        journal = ServiceJournal(journal_path)
        readable = journal.records()
        if journal.truncated_records:
            # The journal is the source of truth; a torn suffix moves the
            # durable horizon back to the last readable record.  Drop the
            # hole for good (new records must never land beyond it) and
            # discard snapshots past the horizon -- they encode states the
            # truncated journal can no longer prove, and restoring one
            # would silently apply the very commands the tear lost.  The
            # never-pruned baseline guarantees a fallback always remains.
            horizon = readable[-1].seq if readable else 0
            journal.truncate_after(horizon)
            for snapshot_seq, path in journal.snapshot_files() + journal.delta_files():
                if snapshot_seq > horizon:
                    path.unlink(missing_ok=True)
        # The chain comes back positioned at its end on disk, as the walk
        # that restored the snapshot found it (SnapshotChain.load).
        service, seq = cls._resume_at_snapshot(journal, prefer_snapshot)
        replay_records(service, [r for r in readable if r.seq > seq])
        service._applied_seq = journal.last_seq()
        service._recording = True
        return service

    # ------------------------------------------------------------------
    # smartphone interface
    # ------------------------------------------------------------------
    def book(self, start: int, destination: int, riders: int = 1) -> Booking:
        """Step (i)+(ii) of the demo flow: submit a trip, receive the options.

        The global maximum waiting time and service constraint are applied,
        exactly as the demo does for requests coming from the smartphone UI.
        """
        return self.book_request(self._request(start, destination, riders))

    def book_request(self, request: Request) -> Booking:
        """Book a fully specified :class:`~repro.model.request.Request`.

        The per-request serving path: one matcher invocation against the
        current fleet state, options returned immediately.  Replay harnesses
        use this (rather than :meth:`book`) so the *same* request objects --
        ids included -- can be driven through both the per-request loop and
        the micro-batched ingest path and their outcomes compared verbatim.
        """
        self._journal_command("book", {"request": encode(request)})
        started = time.perf_counter()
        context = self._matcher.make_context(request)
        options = self._dispatcher.submit(request, context)
        booking = self._add_booking(
            request,
            options,
            response_seconds=time.perf_counter() - started,
            context=context if options else None,  # nothing to commit: pin no tree
        )
        self._finish_command()
        return booking

    # ------------------------------------------------------------------
    # micro-batched ingest (the high-throughput serving path)
    # ------------------------------------------------------------------
    @property
    def batcher(self) -> MicroBatcher:
        """The micro-batcher behind :meth:`ingest` (exposed for benchmarks)."""
        return self._batcher

    def ingest(self, start: int, destination: int, riders: int = 1) -> bool:
        """Admit a trip into the micro-batched serving path.

        Unlike :meth:`book`, the answer is *deferred*: the request joins the
        current ingest window and is answered -- booked, and committed to
        the cheapest option -- when the window flushes (``batch_window``
        elapsed, ``max_batch_size`` reached, or an explicit
        :meth:`pump` / :meth:`drain`).  Returns ``True`` when admitted,
        ``False`` when a full queue shed it (``queue_capacity`` +
        ``queue_policy="shed"``).
        """
        return self.ingest_request(self._request(start, destination, riders))

    def ingest_request(self, request: Request, now: Optional[float] = None) -> bool:
        """Admit a fully specified request into the micro-batched path.

        ``now`` overrides the batcher's clock reading for this admission
        (replay harnesses pass simulated time).  Returns ``True`` when
        admitted, ``False`` when shed by backpressure.
        """
        moment = self._engine.time if now is None else now
        self._journal_command(
            "admit",
            self._window_payload(
                {"request": encode(request), "now": moment}
            ),
        )
        admitted = self._batcher.submit(request, now=moment)
        self._finish_command()
        return admitted

    def pump(self, now: Optional[float] = None) -> List[Booking]:
        """Flush the ingest window if its ``batch_window`` has elapsed.

        Drive this from the serving loop (the replay harness calls it every
        tick; :meth:`advance` calls it implicitly through simulated time
        only when you wire it yourself -- pumping is the caller's cadence
        decision, not the simulation's).  Returns the bookings answered
        since the previous pump/drain, in submission order -- including
        any answered by windows that ``max_batch_size`` closed inline at
        admission time.
        """
        return self._hand_back("pump", self._batcher.pump, now)

    def drain(self, now: Optional[float] = None) -> List[Booking]:
        """Force-flush the pending ingest window (shutdown / reconfigure)."""
        return self._hand_back("drain", self._batcher.flush, now)

    def _hand_back(
        self, kind: str, flush: Callable[..., object], now: Optional[float]
    ) -> List[Booking]:
        """Journal ``kind``, call the batcher's ``flush``; the bookings
        answered since the previous hand-back."""
        moment = self._engine.time if now is None else now
        self._journal_command(kind, self._window_payload({"now": moment}))
        flush(now=moment)
        answered, self._ingest_answered = self._ingest_answered, []
        self._finish_command()
        return answered

    def _record_ingest_outcome(self, outcome: DispatchOutcome) -> None:
        """Book one flushed outcome (mirrors the per-request bookkeeping).

        The batch pipeline already committed the chosen option, so the
        booking arrives closed (or open with zero options when unmatched)
        and the statistics panel records the submission exactly as
        :meth:`choose` / :meth:`cancel` would have.
        """
        booking = self._add_booking(
            outcome.request,
            outcome.options,
            chosen=outcome.chosen,
            response_seconds=outcome.match_seconds,
        )
        self._ingest_answered.append(booking)
        self._record_answer(booking, outcome.direct_distance)

    def options(self, booking_id: str) -> List[RideOption]:
        """Return the options of an open booking."""
        return list(self._get_booking(booking_id).options)

    def choose(self, booking_id: str, option_index: int) -> RideOption:
        """Step (iii): the rider picks option ``option_index`` (0-based).

        Raises:
            UnknownOptionError: for an invalid index or an already closed
                booking, or when the option can no longer be honoured.
        """
        self._journal_command(
            "choose", {"booking_id": booking_id, "option_index": option_index}
        )
        booking = self._get_booking(booking_id)
        if not booking.is_open:
            raise UnknownOptionError(f"booking {booking_id} is already closed")
        if not 0 <= option_index < len(booking.options):
            raise UnknownOptionError(
                f"booking {booking_id} has {len(booking.options)} options; index {option_index} is invalid"
            )
        option = booking.options[option_index]
        context, booking.context = booking.context, None
        if context is None:  # a recovered booking, or one a reconfiguration reset
            context = self._matcher.make_context(booking.request)
        self._dispatcher.commit(booking.request, option, context=context)
        booking.chosen = option
        self._record_answer(booking, context.direct)
        self._finish_command()
        return option

    def cancel(self, booking_id: str) -> None:
        """Discard an open booking (the rider walked away without choosing).

        Also accepts the *request id* of an admission still pending in the
        micro-batched ingest queue: the request is removed from the pending
        window (counted in ``IngestStatistics.cancelled``) instead of being
        flushed later as a ghost admission the rider no longer wants.

        Raises:
            ServiceError: for an unknown id, or a booking already confirmed.
        """
        self._journal_command("cancel", {"id": booking_id})
        booking = self._bookings.get(booking_id)
        if booking is None:
            # Not a booking: the rider may be cancelling before the window
            # flushed, in which case the admission is still pending under
            # its request id.
            if self._batcher.cancel(booking_id):
                self._finish_command()
                return
            raise ServiceError(f"unknown booking {booking_id!r}")
        if not booking.is_open:
            raise ServiceError(f"booking {booking_id} was already confirmed and cannot be cancelled")
        self._record_answer(booking)
        booking.context = None  # the caller may keep the Booking object
        del self._bookings[booking_id]
        self._finish_command()

    def booking(self, booking_id: str) -> Booking:
        """Return a booking by id."""
        return self._get_booking(booking_id)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the service's runtime resources.

        Drains the pending ingest window first (an admitted request is
        never silently dropped by a shutdown; the drained count is reported
        in ``IngestStatistics.close_drained``), then closes the journal.
        Idempotent (a drained queue has nothing left to drain); the service
        remains usable afterwards -- the journal connection reopens lazily.

        Exception-safe: the drain runs through the batcher's
        :meth:`~repro.service.ingest.MicroBatcher.drain` (a failing flush
        consumes one request as errored and the loop keeps draining), and
        the journal is released in a ``finally`` -- a poisoned window can
        cost individual answers but never leaves the journal connection
        open.
        """
        try:
            if self._batcher.pending:
                moment = self._engine.time
                self._journal_command(
                    "drain", self._window_payload({"now": moment, "close": True})
                )
                self._close_drain(moment)
                self._finish_command()
        finally:
            if self._journal is not None:
                self._journal.close()

    def _close_drain(self, now: float) -> None:
        """Drain the pending window on shutdown, counting what it held.

        Shared by :meth:`close` and the replay of its ``drain`` record
        (``"close": true`` payload), so a recovery that replays past a
        close reproduces the same ``close_drained`` counter.  Requests a
        failing flush loses mid-drain count as errored, not close-drained
        (they were never answered).
        """
        drained = self._batcher.pending
        errored_before = self._batcher.statistics.errored
        self._batcher.drain(now=now)
        errored_delta = self._batcher.statistics.errored - errored_before
        self._batcher.statistics.close_drained += drained - errored_delta
        self._ingest_answered = []

    def __enter__(self) -> "PTRiderService":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------
    def advance(self, duration: float) -> None:
        """Advance the world by ``duration`` time units (vehicles move, stops fire).

        Under a ``retention_horizon`` this is also where closed bookings
        age out: a booking whose trip finished (dropoff fired) more than
        the horizon ago is pruned from live state (counted in
        ``IngestStatistics.retired``); the journal stays authoritative for
        the full history.  Retirement keys on simulated time, so replaying
        the same ``advance`` records retires the same bookings.
        """
        if duration < 0:
            raise ServiceError(f"duration must be non-negative, got {duration}")
        self._journal_command("advance", {"duration": duration})
        target = self._engine.time + duration
        while self._engine.time < target - 1e-9:
            self._engine.step()
        self._chain.mark(vehicles=self._fleet.vehicle_ids())  # every vehicle moved
        self._retire_bookings()
        self._finish_command()

    def _retire_bookings(self) -> None:
        """Prune fully-served bookings past the retention horizon.

        Only bookings that are closed (chosen), whose trip completed
        (``dropoff_time`` recorded) at least ``retention_horizon`` simulated
        seconds ago, and that are not still queued for hand-back through
        :meth:`pump`/:meth:`drain` are removed.  Each removal is marked
        dirty so incremental deltas serialise the deletion.
        """
        horizon = self._config.retention_horizon
        if horizon is None:
            return
        cutoff = self._engine.time - horizon
        records = self._engine.statistics._records
        held = {booking.booking_id for booking in self._ingest_answered}
        retired = []
        for booking_id, booking in self._bookings.items():
            if booking.chosen is None or booking_id in held:
                continue
            record = records.get(booking.request.request_id)
            if record is None or record.dropoff_time is None:
                continue
            if record.dropoff_time <= cutoff:
                retired.append(booking_id)
        for booking_id in retired:
            del self._bookings[booking_id]
        self._chain.mark(bookings=retired)
        self._batcher.statistics.retired += len(retired)

    # ------------------------------------------------------------------
    # website interface
    # ------------------------------------------------------------------
    def vehicle_ids(self) -> List[str]:
        """Every taxi id (the website's taxi selector)."""
        return self._fleet.vehicle_ids()

    def vehicle_schedules(self, vehicle_id: str) -> List[List[Tuple[int, str, str]]]:
        """Return every valid trip schedule of a taxi as ``(vertex, kind, request)`` triples."""
        vehicle = self._fleet.get(vehicle_id)
        schedules = []
        for schedule in vehicle.kinetic_tree.schedules():
            schedules.append([(stop.vertex, stop.kind.value, stop.request_id) for stop in schedule])
        return schedules

    def statistics(self) -> Dict[str, float]:
        """The live statistics panel (plus matcher work counters)."""
        panel = self._engine.statistics.panel()
        panel["current_time"] = self._engine.time
        panel.update(counters(self._matcher.statistics, "matcher_"))
        panel.update({f"fleet_{k}": v for k, v in self._fleet.occupancy_statistics().items()})
        batch_stats = self._dispatcher.last_batch_statistics
        if batch_stats is not None:
            # How much routing work the most recent batch shared / prefetched
            # (the website's "simultaneous requests" panel).
            panel.update(counters(batch_stats, "batch_"))
        panel.update(
            {
                f"routing_{key}": value
                for key, value in self.routing_statistics().items()
                if isinstance(value, float)
            }
        )
        return panel

    def routing_statistics(self) -> Dict[str, object]:
        """The routing-layer admin panel: who answers queries, at what cost.

        Reports the active backend, the engine's query-side counters
        (queries, cache hits, Dijkstra runs) and ``build_seconds``, what the
        engine's one-time preprocessing cost.  All float-valued fields also
        appear in :meth:`statistics` under a ``routing_`` prefix.

        ``grid_lower_bound_rows`` of ``grid_cells`` says how warm the grid
        index is (a row is computed on a cell's first use, inside whichever
        serving call touches it; at most one per cell per service lifetime)
        and ``grid_build_seconds`` what constructing the index cost.
        """
        engine = self._fleet.routing_engine
        payload: Dict[str, object] = {"backend": engine.backend, **counters(engine.stats)}
        # The grid index starts cold: each cell's lower-bound row is computed
        # the first time a matcher touches it, inside a serving call.  Rows
        # so far against cells answers "is this service still warming up?".
        grid = self._fleet.grid.summary()
        payload["grid_cells"] = grid["cells"]
        payload["grid_lower_bound_rows"] = grid["lower_bound_rows"]
        payload["grid_build_seconds"] = grid["build_seconds"]
        # The micro-batched serving path: admissions, sheds, queue depth,
        # window fill, serving throughput and the admission-to-answer
        # latency tail (nearest-rank p50/p95/p99).
        payload["ingest_queue_depth"] = float(self._batcher.pending)
        payload.update(counters(self._batcher.statistics, "ingest_"))
        # Adaptive-window controller posture: the window currently in
        # force, and (adaptive mode only) the controller's EWMAs.  The
        # resize counters ride along in the ingest_ block above.
        payload["ingest_window_mode"] = self._batcher.window_mode
        payload["ingest_window"] = float(self._batcher.current_window)
        controller = self._batcher.controller_state()
        if controller is not None:
            payload["ingest_ewma_flush_wall"] = float(controller["ewma_flush_wall"])
            payload["ingest_ewma_arrival_rate"] = float(
                controller["ewma_arrival_rate"]
            )
        # Persistence cost: full snapshots vs incremental deltas.
        payload.update(counters(self._chain.stats, "snapshot_"))
        return payload

    def set_parameters(self, **changes: object) -> SystemConfig:
        """The admin form: update global parameters and/or swap the matcher.

        Takes the knobs :class:`SystemConfig` marks ``RUNTIME``, by field
        name, as :meth:`SystemConfig.with_knobs` applies them (``None``
        leaves a knob as it is, ``0`` clears a zero-rule knob such as
        ``queue_capacity``).  The new config is checked before the command
        is journaled: a refused change leaves no record and no trace.

        Capacity changes apply to vehicles added afterwards (existing taxis
        keep their physical capacity, as they would in reality).  Changing
        ``routing_backend`` rebuilds the routing engine on the same road
        network with the same tree-cache capacity (its cached trees are
        dropped).  The pending window is drained (flushed, never dropped),
        then :meth:`_assemble` rebuilds the matcher, dispatcher and ingest
        batcher on the new config, on the counters and annotation the
        service keeps.

        Raises:
            TypeError: for a name that is not a ``RUNTIME`` knob.
            ConfigurationError: for a value its knob refuses.
        """
        new_config = self._config.with_knobs(changes, running=True)
        # Journal the raw values: old records replay through the same
        # normalisation they were written for.
        self._journal_command(
            "set_parameters",
            {"changes": {name: value for name, value in changes.items() if value is not None}},
        )
        engine = self._fleet.routing_engine
        if new_config.routing_backend != engine.backend:
            # Build the engine *before* committing the new config: a refused
            # build must leave the service exactly as it was, not claiming a
            # configuration it never got.
            self._fleet.set_routing_engine(engine.with_backend(new_config.routing_backend))
        self._config = new_config
        # Drain the ingest window through the *old* batcher before it is
        # replaced: admitted requests must be answered, never dropped by a
        # reconfiguration.  The drained work counts in the service's series.
        self._batcher.flush()
        for booking in self._bookings.values():
            booking.context = None  # matched under the outgoing engine and matcher
        self._engine.dispatcher = self._assemble()
        self._finish_command()
        return self._config

    # ------------------------------------------------------------------
    def _get_booking(self, booking_id: str) -> Booking:
        try:
            return self._bookings[booking_id]
        except KeyError:
            raise ServiceError(f"unknown booking {booking_id!r}") from None

    def _request(self, start: int, destination: int, riders: int) -> Request:
        """A trip under the global waiting time and service constraint, now."""
        return Request(
            start=start,
            destination=destination,
            riders=riders,
            max_waiting=self._config.max_waiting,
            service_constraint=self._config.service_constraint,
            submit_time=self._engine.time,
        )

    def _add_booking(self, request: Request, options, **fields: object) -> Booking:
        """Hold a booking under the next booking id (dirty for the next delta)."""
        booking = Booking(f"B{self._next_booking}", request, tuple(options), **fields)
        self._next_booking += 1
        self._bookings[booking.booking_id] = booking
        self._chain.mark(bookings=(booking.booking_id,))
        return booking

    def _record_answer(self, booking: Booking, direct_distance: float = 0.0) -> None:
        """Count a booking its rider closed on the statistics panel; a chosen
        option's assignment is registered with the engine."""
        request, chosen = booking.request, booking.chosen
        self._engine.statistics.record_submission(
            request_id=request.request_id,
            submit_time=request.submit_time,
            option_count=len(booking.options),
            response_seconds=booking.response_seconds,
            matched=chosen is not None,
            planned_pickup_distance=chosen.pickup_distance if chosen else 0.0,
            direct_distance=direct_distance,
        )
        self._chain.mark(bookings=(booking.booking_id,))
        if chosen is not None:
            self._chain.mark(vehicles=(chosen.vehicle_id,))
            self._engine.register_assignment(
                request.request_id, chosen.vehicle_id, chosen.pickup_distance
            )


def build_system(
    network: Optional[RoadNetwork] = None,
    network_rows: int = 15,
    network_columns: int = 15,
    vehicles: int = 30,
    capacity: int = 4,
    grid_rows: int = 8,
    grid_columns: int = 8,
    config: Optional[SystemConfig] = None,
    seed: Optional[int] = None,
    **overrides: object,
) -> PTRiderService:
    """Build a ready-to-use PTRider system.

    Args:
        network: an existing road network; when omitted a Manhattan grid of
            ``network_rows x network_columns`` is generated.
        vehicles: number of taxis, placed uniformly at random (Section 4).
        capacity: seats per taxi.
        grid_rows / grid_columns: granularity of the grid index.
        config: global parameters (a default :class:`SystemConfig` otherwise,
            with the requested capacity).
        seed: seed controlling vehicle placement and idle wandering.
        overrides: ``RUNTIME`` and ``BUILD`` knobs by field name (e.g.
            ``routing_backend``, ``batch_window``, ``durability``,
            ``journal_path``), applied over ``config`` by
            :meth:`SystemConfig.with_knobs`: ``None`` keeps the config's
            value and ``0`` clears a zero-rule knob.

    Returns:
        A :class:`PTRiderService` whose fleet is registered and idle.
    """
    if network is None:
        network = grid_network(network_rows, network_columns, spacing=1.0, weight_jitter=0.25, seed=seed)
    system_config = (config or SystemConfig(vehicle_capacity=capacity)).with_knobs(
        overrides, running=False
    )
    fleet = assemble_fleet(
        network, system_config, vehicles, seed, grid_rows=grid_rows, grid_columns=grid_columns
    )
    return PTRiderService(fleet, config=system_config, seed=seed)


def assemble_fleet(
    network: RoadNetwork,
    config: SystemConfig,
    vehicles: int,
    seed: Optional[int],
    grid_rows: int = 8,
    grid_columns: int = 8,
    max_cached_sources: int = 1024,
) -> Fleet:
    """The one path from a road network to a fleet ready to serve.

    Builds the routing engine ``config`` names (with ``max_cached_sources``
    tree-cache slots), the ``grid_rows x grid_columns`` grid index and the
    fleet, then places ``vehicles`` idle taxis ``c1..cN`` of
    ``config.vehicle_capacity`` seats, each on a vertex drawn by
    ``random.Random(seed)``.  :func:`build_system`, recovery (which places
    none and restores its snapshot's taxis) and the CLI all build here.
    """
    engine = make_engine(network, config.routing_backend, max_cached_sources=max_cached_sources)
    grid = GridIndex(network, rows=grid_rows, columns=grid_columns)
    fleet = Fleet(grid, engine)
    rng = random.Random(seed)
    vertices = network.vertices()
    for index in range(vehicles):
        fleet.add_vehicle(
            Vehicle(f"c{index + 1}", location=rng.choice(vertices), capacity=config.vehicle_capacity)
        )
    return fleet
