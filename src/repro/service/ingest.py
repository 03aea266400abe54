"""Micro-batched request ingest: the production serving path.

``PTRiderService.book`` answers one request at a time, which means the
fastest machinery in the repository -- the batch pipeline with its
vectorised tree prefetch and demand-pooled leg trees -- was only reachable
by callers that hand-assemble batches.  :class:`MicroBatcher` closes that
gap: incoming requests accumulate in a *window* that is flushed through
:meth:`~repro.core.dispatcher.Dispatcher.dispatch_batch` when either

* ``batch_window`` time units have passed since the window's first
  admission (time is read from an injectable clock, so replay drives the
  batcher on simulated time and a live deployment on wall time), or
* the window reaches ``max_batch_size`` requests,

whichever comes first.  Because the batch pipeline is property-tested
byte-identical to the literal greedy loop, micro-batching changes *when*
work happens but never *what* is answered: every window's outcomes are
bit-for-bit the outcomes of ``dispatch_batch`` on the same requests.

Backpressure is explicit, bounded and *deadline-aware*.  Every admission
carries an implicit deadline -- ``admit_time + max_waiting / speed``, the
moment the rider's waiting-time slack runs out (``max_waiting`` is a
distance; ``speed`` converts it to clock units).  With ``queue_capacity``
set, an admission that would grow the pending window beyond capacity
follows ``queue_policy``:

* ``"shed"`` -- overload evicts by *priority*, not arrival order: the
  pending admission with the loosest (latest) deadline is dropped to make
  room, provided its deadline is strictly looser than the incoming
  request's; otherwise the incoming request itself is refused (``submit``
  returns ``False``).  Under pressure the queue therefore keeps the
  tightest-deadline work -- the requests with the least slack to spare --
  instead of whoever happened to arrive first.  Evictions and refusals are
  both counted (:attr:`IngestStatistics.evicted` /
  :attr:`IngestStatistics.shed`);
* ``"block"`` -- the pending window is flushed inline to free capacity
  before the request is admitted (in this synchronous model, "blocking" the
  producer *is* running the consumer), trading admission latency for
  acceptance.

Either way the pending queue never exceeds ``queue_capacity`` -- the
property tests in ``tests/property/test_ingest_backpressure.py`` and
``tests/property/test_deadline_shedding.py`` drive random surge schedules
against both policies to pin those invariants.

A ``latency_budget`` adds the deadline-driven window close: :meth:`pump`
force-closes the pending window as soon as the oldest pending deadline is
within the budget of the clock, so a generous ``batch_window`` cannot
silently blow a rider's deadline while the window fills.  Answers produced
after their request's deadline are counted in
:attr:`IngestStatistics.deadline_misses`.

With ``window_mode="adaptive"`` the window length itself becomes a
*closed-loop* control variable instead of a static knob.
:class:`WindowController` tracks an EWMA of the observed flush wall (how
long ``dispatch_batch`` took) and of the arrival rate per window, and
multiplicatively grows or shrinks the next window on the flush-wall /
window-length ratio: a flush wall that eats more than half the window
means the dispatch pipeline barely keeps up, so the window grows (bigger
batches amortise the per-flush cost); a flush wall under a quarter of the
window means dispatch is idling while admitted requests queue, so the
window shrinks (cutting admission-to-answer latency).  The window stays
inside ``[window_min, window_max]`` and -- when a ``latency_budget`` is
set -- never exceeds the budget headroom left after the expected flush
wall, so the controller cannot tune itself past the deadline close.  The
controller reads time exclusively through the injectable ``wall_clock``,
so property tests drive it deterministically and journal replay pins the
recorded window trajectory exactly (see
:func:`repro.service.recovery.apply_record`).

:class:`IngestStatistics` instruments the path end to end: admissions,
answers, sheds/evictions, window close reasons, deadline misses, queue
depth, window fill ratio, and per-request admission-to-answer latency
(queue wait in clock units plus the request's share of in-flush wall time)
summarised as nearest-rank p50/p95/p99 by :func:`percentiles`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.dispatcher import DispatchOutcome, Dispatcher, OptionPolicy
from repro.errors import ConfigurationError
from repro.model.request import Request
from repro.service.faults import fire as _fire_fault

__all__ = [
    "MicroBatcher",
    "IngestStatistics",
    "WindowController",
    "percentiles",
    "batcher_from_config",
]

#: Ranks of the latency tail :attr:`IngestStatistics.latency` reports.
DEFAULT_RANKS = (50, 95, 99)

#: Window-length modes of the micro-batcher.
WINDOW_MODES = ("fixed", "adaptive")


def percentiles(
    values: Sequence[float], ranks: Sequence[int] = DEFAULT_RANKS
) -> Dict[str, float]:
    """Nearest-rank percentiles of ``values`` keyed ``"p<rank>"``.

    The nearest-rank definition: the p-th percentile of ``n`` sorted values
    is the value at (1-based) position ``ceil(p / 100 * n)`` -- always an
    actually observed value, never an interpolation, which is the right
    summary for latency tails (an interpolated p99 can report a latency no
    request ever experienced).  An empty input returns an empty dict.

    Args:
        values: the observations (any order).
        ranks: percentile ranks in (0, 100].
    """
    if not values:
        return {}
    ordered = sorted(values)
    count = len(ordered)
    result: Dict[str, float] = {}
    for rank in ranks:
        if not 0 < rank <= 100:
            raise ConfigurationError(f"percentile rank must be in (0, 100], got {rank}")
        position = max(1, math.ceil(rank / 100.0 * count))
        result[f"p{rank}"] = ordered[position - 1]
    return result


class WindowController:
    """Closed-loop auto-tuner of the micro-batch window length.

    The control law is multiplicative-increase / multiplicative-decrease
    (MIMD) on the ratio of the EWMA'd flush wall to the current window
    length:

    * ``ratio > HIGH_RATIO`` (flushes eat most of the window): the dispatch
      pipeline barely keeps up with the window cadence -- grow the window
      by :data:`GROW` so bigger batches amortise the per-flush cost;
    * ``ratio < LOW_RATIO`` (flushes are cheap relative to the window):
      dispatch idles while admissions queue -- shrink the window by
      :data:`SHRINK` to cut admission-to-answer latency;
    * in between: hold.  The dead band is wider (2x) than the step factor
      (1.5x), so under a stationary flush wall the window converges into
      the band and stays there instead of oscillating across it.

    The window is clamped to ``[window_min, window_max]``; with a
    ``latency_budget`` the upper bound additionally shrinks to the budget
    headroom left after the expected flush wall
    (``latency_budget - ewma_flush_wall``, floored at ``window_min``), so
    the controller never schedules a close the deadline-driven close would
    have to pre-empt.  The arrival-rate EWMA is tracked per window for the
    operator panel (requests/clock-unit the path is absorbing).

    The controller itself never reads a clock -- callers feed it observed
    flush walls -- so driving it with synthetic observations (the property
    suite) or replay-pinned windows (journal recovery) is exact.
    """

    #: multiplicative step applied when the window grows / shrinks
    GROW = 1.5
    SHRINK = 1.5
    #: flush-wall / window ratio above which the window grows
    HIGH_RATIO = 0.5
    #: flush-wall / window ratio below which the window shrinks
    LOW_RATIO = 0.25
    #: EWMA smoothing factor for both tracked signals
    ALPHA = 0.3

    def __init__(
        self,
        window: float,
        window_min: float,
        window_max: float,
        latency_budget: Optional[float] = None,
    ) -> None:
        if window_min <= 0:
            raise ConfigurationError(
                f"window_min must be positive, got {window_min}"
            )
        if window_max < window_min:
            raise ConfigurationError(
                f"window_max must be >= window_min, got "
                f"[{window_min}, {window_max}]"
            )
        if latency_budget is not None and window_min > latency_budget:
            raise ConfigurationError(
                f"window_min ({window_min}) must not exceed latency_budget "
                f"({latency_budget}): the smallest window must fit the budget"
            )
        self._window_min = window_min
        self._window_max = window_max
        self._latency_budget = latency_budget
        self.ewma_flush_wall = 0.0
        self.ewma_arrival_rate = 0.0
        self._wall_observed = False
        self._rate_observed = False
        self._window = self._clamp(window)

    @property
    def window(self) -> float:
        """The current window length (always inside the bounds)."""
        return self._window

    @property
    def window_min(self) -> float:
        return self._window_min

    @property
    def window_max(self) -> float:
        return self._window_max

    def _upper_bound(self) -> float:
        upper = self._window_max
        if self._latency_budget is not None:
            headroom = self._latency_budget - self.ewma_flush_wall
            upper = min(upper, max(self._window_min, headroom))
        return upper

    def _clamp(self, window: float) -> float:
        return min(max(window, self._window_min), self._upper_bound())

    def set_window(self, window: float) -> None:
        """Pin the window (journal replay / snapshot restore), clamped."""
        self._window = self._clamp(window)

    def observe(
        self, flush_wall: float, batch_size: int, window_span: float
    ) -> int:
        """Feed one flush observation; returns -1/0/+1 (shrunk/held/grown).

        ``flush_wall`` is the wall time the flush's ``dispatch_batch``
        took, ``batch_size`` how many requests it answered and
        ``window_span`` how long the window accumulated in clock units
        (0 for a size-close at admission time).
        """
        if self._wall_observed:
            self.ewma_flush_wall = (
                self.ALPHA * flush_wall
                + (1.0 - self.ALPHA) * self.ewma_flush_wall
            )
        else:
            self.ewma_flush_wall = flush_wall
            self._wall_observed = True
        if window_span > 1e-12:
            rate = batch_size / window_span
            if self._rate_observed:
                self.ewma_arrival_rate = (
                    self.ALPHA * rate
                    + (1.0 - self.ALPHA) * self.ewma_arrival_rate
                )
            else:
                self.ewma_arrival_rate = rate
                self._rate_observed = True
        previous = self._window
        ratio = self.ewma_flush_wall / self._window
        if ratio > self.HIGH_RATIO:
            target = self._window * self.GROW
        elif ratio < self.LOW_RATIO:
            target = self._window / self.SHRINK
        else:
            target = self._window
        self._window = self._clamp(target)
        if self._window > previous + 1e-15:
            return 1
        if self._window < previous - 1e-15:
            return -1
        return 0

    def state(self) -> Dict[str, object]:
        """JSON-able controller state (snapshot payload)."""
        return {
            "window": self._window,
            "ewma_flush_wall": self.ewma_flush_wall,
            "ewma_arrival_rate": self.ewma_arrival_rate,
            "wall_observed": self._wall_observed,
            "rate_observed": self._rate_observed,
        }

    def restore(self, payload: Dict[str, object]) -> None:
        """Overwrite the controller state from :meth:`state` (restore)."""
        self.ewma_flush_wall = float(payload.get("ewma_flush_wall", 0.0))
        self.ewma_arrival_rate = float(payload.get("ewma_arrival_rate", 0.0))
        self._wall_observed = bool(payload.get("wall_observed", False))
        self._rate_observed = bool(payload.get("rate_observed", False))
        self._window = self._clamp(float(payload.get("window", self._window)))


@dataclass
class IngestStatistics:
    """End-to-end instrumentation of the micro-batched serving path.

    Conservation invariant (checked by the unit and property tests):
    ``admitted == answered + pending + errored + cancelled + evicted`` at
    every quiescent point, and ``shed`` counts refused admissions that never
    entered the queue.
    """

    #: requests accepted into the pending window
    admitted: int = 0
    #: requests answered by a flushed window (outcomes delivered)
    answered: int = 0
    #: admissions refused because the queue was full under the "shed" policy
    shed: int = 0
    #: admitted requests dropped from a full queue to make room for a
    #: tighter-deadline admission (deadline-ordered shedding)
    evicted: int = 0
    #: requests lost to a mid-flush error (the dispatch raised at their turn)
    errored: int = 0
    #: admitted requests removed from the pending window by a cancellation
    cancelled: int = 0
    #: of the answered requests, how many were drained by ``close()``
    #: (admitted but still unflushed when the service shut down)
    close_drained: int = 0
    #: windows flushed because they reached ``max_batch_size``
    size_closed: int = 0
    #: windows flushed because ``batch_window`` elapsed
    window_closed: int = 0
    #: windows flushed by an explicit ``flush()`` / drain or a "block" admit
    forced: int = 0
    #: windows force-closed because the oldest pending admission came
    #: within ``latency_budget`` of its deadline
    deadline_closed: int = 0
    #: answers produced after their request's deadline had already passed
    deadline_misses: int = 0
    #: adaptive-mode window resizes: how often the controller grew the
    #: window (flush wall crowding the window) / shrank it (dispatch idling)
    window_grown: int = field(default=0, metadata={"wall_clock": True})
    window_shrunk: int = field(default=0, metadata={"wall_clock": True})
    #: fully-served bookings pruned from live service state by the
    #: ``retention_horizon`` knob (the journal stays authoritative); the
    #: booking conservation check reads
    #: ``bookings_created == live + retired + cancelled_open``
    retired: int = 0
    #: highest pending-queue depth ever observed
    peak_queue_depth: int = 0
    #: wall seconds spent inside ``dispatch_batch`` flushes
    serving_seconds: float = field(default=0.0, metadata={"wall_clock": True})
    #: per-flush window fill ratios (``len(window) / max_batch_size``)
    window_fills: List[float] = field(default_factory=list, metadata={"append_only": True})
    #: per-request admission-to-answer latencies (clock wait + flush wall)
    latencies: List[float] = field(
        default_factory=list, metadata={"append_only": True, "wall_clock": True}
    )

    panel_derived = ("flushes", "throughput", "mean_window_fill", "latency")

    @property
    def flushes(self) -> int:
        """Windows flushed, whatever closed them."""
        return self.size_closed + self.window_closed + self.forced + self.deadline_closed

    @property
    def throughput(self) -> float:
        """Answered requests per wall second spent serving (0 before any flush)."""
        if self.serving_seconds <= 0:
            return 0.0
        return self.answered / self.serving_seconds

    @property
    def mean_window_fill(self) -> float:
        """Mean window fill ratio across flushes (0 before any flush)."""
        if not self.window_fills:
            return 0.0
        return sum(self.window_fills) / len(self.window_fills)

    @property
    def latency(self) -> Dict[str, float]:
        """The admission-to-answer latency tail (``p50``/``p95``/``p99``; empty
        before any answer)."""
        return percentiles(self.latencies)


class MicroBatcher:
    """Accumulate requests into windows and flush them through the batch pipeline.

    Args:
        dispatcher: the dispatcher whose ``dispatch_batch`` serves flushes.
        batch_window: clock time a window may accumulate before a
            :meth:`pump` flushes it (> 0).
        max_batch_size: request count that force-closes a window at
            admission time (>= 1).
        queue_capacity: bound on the pending window; ``None`` = unbounded.
        queue_policy: ``"shed"`` or ``"block"`` (see the module docstring).
        speed: vehicle speed (``SystemConfig.speed``) converting each
            request's ``max_waiting`` distance slack into clock units for
            its deadline.
        latency_budget: force-close the pending window when the oldest
            admission is within this many clock units of its deadline
            (``None`` disables the deadline-driven close).
        window_mode: ``"fixed"`` keeps ``batch_window`` static;
            ``"adaptive"`` hands the window length to a
            :class:`WindowController` seeded at ``batch_window`` and
            bounded by ``window_min`` / ``window_max``.
        window_min: adaptive-mode lower bound on the window length
            (defaults to ``batch_window / 16``).
        window_max: adaptive-mode upper bound on the window length
            (defaults to ``batch_window * 16``).
        policy: the stand-in rider choosing from each skyline.
        clock: zero-argument callable read at admissions and pumps.
            Defaults to ``time.monotonic`` (wall time); replay passes
            simulated time via the ``now`` argument of the public methods
            instead, which always overrides the clock.
        wall_clock: zero-argument callable measuring flush wall time
            (serving_seconds, per-request latency shares, and the adaptive
            controller's flush-wall observations).  Defaults to
            ``time.perf_counter``; the property suite injects a
            deterministic counter so adaptive trajectories are exact.
        on_outcome: optional callback invoked with every answered outcome
            as its commit lands (the service layer records bookings here).
    """

    def __init__(
        self,
        dispatcher: Dispatcher,
        batch_window: float = 1.0,
        max_batch_size: int = 512,
        queue_capacity: Optional[int] = None,
        queue_policy: str = "shed",
        speed: float = 1.0,
        latency_budget: Optional[float] = None,
        window_mode: str = "fixed",
        window_min: Optional[float] = None,
        window_max: Optional[float] = None,
        policy: OptionPolicy = OptionPolicy.CHEAPEST,
        clock: Optional[Callable[[], float]] = None,
        wall_clock: Optional[Callable[[], float]] = None,
        on_outcome: Optional[Callable[[DispatchOutcome], None]] = None,
    ) -> None:
        if batch_window <= 0:
            raise ConfigurationError(f"batch_window must be positive, got {batch_window}")
        if max_batch_size < 1:
            raise ConfigurationError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if queue_capacity is not None and queue_capacity < 1:
            raise ConfigurationError(
                f"queue_capacity must be >= 1 or None, got {queue_capacity}"
            )
        if queue_policy not in ("shed", "block"):
            raise ConfigurationError(
                f"queue_policy must be 'shed' or 'block', got {queue_policy!r}"
            )
        if speed <= 0:
            raise ConfigurationError(f"speed must be positive, got {speed}")
        if latency_budget is not None and latency_budget <= 0:
            raise ConfigurationError(
                f"latency_budget must be positive or None, got {latency_budget}"
            )
        if window_mode not in WINDOW_MODES:
            raise ConfigurationError(
                f"window_mode must be one of {WINDOW_MODES}, got {window_mode!r}"
            )
        self._dispatcher = dispatcher
        self._batch_window = batch_window
        self._max_batch_size = max_batch_size
        self._queue_capacity = queue_capacity
        self._queue_policy = queue_policy
        self._speed = speed
        self._latency_budget = latency_budget
        self._policy = policy
        self._clock = clock or time.monotonic
        self._wall_clock = wall_clock or time.perf_counter
        self._on_outcome = on_outcome
        self._window_mode = window_mode
        self._controller: Optional[WindowController] = None
        if window_mode == "adaptive":
            self._controller = WindowController(
                window=batch_window,
                window_min=(
                    batch_window / 16.0 if window_min is None else window_min
                ),
                window_max=(
                    batch_window * 16.0 if window_max is None else window_max
                ),
                latency_budget=latency_budget,
            )
        self._pending: List[Tuple[Request, float]] = []
        self._window_opened: Optional[float] = None
        #: bumped on every mutation of ``_pending`` that is NOT a plain
        #: append (flush, eviction, cancel, error re-queue, restore).  While
        #: the epoch holds, any earlier observation of the queue is a stable
        #: prefix of the current one -- incremental snapshot deltas use this
        #: to ship only the requests admitted since the last snapshot point
        #: instead of the whole window.
        self._pending_epoch = 0
        self.statistics = IngestStatistics()

    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Requests admitted but not yet answered (the queue depth)."""
        return len(self._pending)

    @property
    def window_opened(self) -> Optional[float]:
        """When the current window opened (``None`` while empty)."""
        return self._window_opened

    @property
    def pending_epoch(self) -> int:
        """Monotonic count of non-append pending-queue mutations.

        Two readings with the same epoch guarantee the earlier queue is a
        stable prefix of the later one (only appends happened in between).
        """
        return self._pending_epoch

    def pending_entries(self) -> List[Tuple[Request, float]]:
        """The pending window as ``(request, admit_time)`` pairs, in order.

        Read by the durability snapshotter so admitted-but-unflushed
        requests survive a restart.
        """
        return list(self._pending)

    def restore_pending(
        self,
        entries: Sequence[Tuple[Request, float]],
        window_opened: Optional[float],
    ) -> None:
        """Overwrite the pending window (snapshot restore).

        Counters are *not* touched -- the snapshot restores
        :attr:`statistics` separately, and these entries were already
        counted as admitted when they first entered the queue.
        """
        self._pending = list(entries)
        self._window_opened = window_opened if self._pending else None
        self._pending_epoch += 1

    @property
    def batch_window(self) -> float:
        return self._batch_window

    @property
    def window_mode(self) -> str:
        """``"fixed"`` or ``"adaptive"``."""
        return self._window_mode

    @property
    def controller(self) -> Optional[WindowController]:
        """The adaptive window controller (``None`` in fixed mode)."""
        return self._controller

    @property
    def current_window(self) -> float:
        """The window length the next pump closes against.

        In fixed mode this is ``batch_window``; in adaptive mode it is the
        controller's current (bounded) window.
        """
        if self._controller is not None:
            return self._controller.window
        return self._batch_window

    def set_window(self, window: float) -> None:
        """Pin the adaptive window (journal replay drives this so replayed
        window-close decisions match the recorded run exactly; a no-op in
        fixed mode)."""
        if self._controller is not None:
            self._controller.set_window(window)

    def controller_state(self) -> Optional[Dict[str, object]]:
        """The adaptive controller's snapshot payload (``None`` if fixed)."""
        if self._controller is None:
            return None
        return self._controller.state()

    def restore_controller(self, payload: Optional[Dict[str, object]]) -> None:
        """Restore the controller from :meth:`controller_state` output."""
        if self._controller is not None and payload:
            self._controller.restore(payload)

    @property
    def max_batch_size(self) -> int:
        return self._max_batch_size

    @property
    def queue_capacity(self) -> Optional[int]:
        return self._queue_capacity

    @property
    def queue_policy(self) -> str:
        return self._queue_policy

    def _now(self, now: Optional[float]) -> float:
        return self._clock() if now is None else now

    def deadline(self, request: Request, admit_time: float) -> float:
        """When an admission's waiting slack runs out, in clock units.

        ``max_waiting`` is a distance (the paper's global ``w``); dividing
        by the configured speed converts it to the time the rider is
        willing to wait past admission.  Pure derivation -- deadlines are
        never stored, so pending entries (and their snapshots) stay plain
        ``(request, admit_time)`` pairs.
        """
        return admit_time + request.max_waiting / self._speed

    def _evict_loosest(self, incoming: Request, moment: float) -> bool:
        """Deadline-ordered shedding: drop the loosest-deadline admission.

        Scans the pending window for the first entry with the latest
        deadline and evicts it *only* when that deadline is later than the
        incoming request's by more than float noise (ties keep the
        incumbents -- they were admitted first and re-ordering equals buys
        nothing).  The tolerance applies to that one comparison only: the
        scan itself takes the exact maximum, so which incumbent goes never
        depends on the order near-equal deadlines were admitted in.  Returns
        ``True`` when a slot was freed for the incoming request.
        """
        loosest = None
        loosest_index = None
        for index, (pending, admitted) in enumerate(self._pending):
            candidate = self.deadline(pending, admitted)
            if loosest is None or candidate > loosest:
                loosest = candidate
                loosest_index = index
        if loosest is None or loosest <= self.deadline(incoming, moment) + 1e-12:
            return False
        del self._pending[loosest_index]
        self._pending_epoch += 1
        self.statistics.evicted += 1
        if not self._pending:
            self._window_opened = None
        return True

    # ------------------------------------------------------------------
    def submit(self, request: Request, now: Optional[float] = None) -> bool:
        """Admit ``request`` into the current window.

        Returns ``True`` when the request was admitted (it will be answered
        by a later flush), ``False`` when a full queue shed it under the
        "shed" policy.  A full queue under "shed" first tries to evict a
        strictly looser-deadline pending admission (see
        :meth:`_evict_loosest`); only when the incoming request would be the
        loosest itself is it refused.  Under the "block" policy a full
        queue flushes the pending window inline first, so admission always
        succeeds.  A window that reaches ``max_batch_size`` flushes
        immediately.
        """
        moment = self._now(now)
        if (
            self._queue_capacity is not None
            and len(self._pending) >= self._queue_capacity
        ):
            if self._queue_policy == "shed":
                if not self._evict_loosest(request, moment):
                    self.statistics.shed += 1
                    return False
            else:
                self._flush(moment, "forced")  # block: run the consumer inline
        if not self._pending:
            self._window_opened = moment
        self._pending.append((request, moment))
        self.statistics.admitted += 1
        if len(self._pending) > self.statistics.peak_queue_depth:
            self.statistics.peak_queue_depth = len(self._pending)
        if len(self._pending) >= self._max_batch_size:
            self._flush(moment, "size_closed")
        return True

    def pump(self, now: Optional[float] = None) -> List[DispatchOutcome]:
        """Flush the window if ``batch_window`` elapsed -- or a deadline nears.

        Drive this from the serving loop (every tick under replay, a timer
        live).  With a ``latency_budget``, the window also closes as soon as
        the oldest pending deadline is within the budget of the clock
        (counted separately as ``deadline_closed``), so a slow-filling
        window cannot sit on a nearly-due admission.  Returns the outcomes
        the flush answered (empty when the window is still filling or
        nothing is pending).
        """
        moment = self._now(now)
        if self._pending and self._window_opened is not None:
            if moment - self._window_opened >= self.current_window - 1e-12:
                return self._flush(moment, "window_closed")
            if self._latency_budget is not None:
                oldest = min(
                    self.deadline(request, admitted)
                    for request, admitted in self._pending
                )
                if moment >= oldest - self._latency_budget - 1e-12:
                    return self._flush(moment, "deadline_closed")
        return []

    def flush(self, now: Optional[float] = None) -> List[DispatchOutcome]:
        """Force-flush the pending window (drain before shutdown / rebuild)."""
        moment = self._now(now)
        if not self._pending:
            return []
        return self._flush(moment, "forced")

    def drain(self, now: Optional[float] = None) -> List[DispatchOutcome]:
        """Exception-safe full drain: flush until nothing is pending.

        A dispatch that raises consumes exactly one request (errored and
        counted) and re-queues the untouched remainder; an injected fault at
        the flush hook consumes none.  The loop runs at most ``pending + 1``
        times either way, and a request is only ever answered, errored or
        left pending -- the conservation invariant holds afterwards even
        when every single flush fails.  Shutdown paths use this so a
        poisoned window cannot abort the rest of ``close()``.
        """
        moment = self._now(now)
        outcomes: List[DispatchOutcome] = []
        budget = len(self._pending) + 1
        while self._pending and budget > 0:
            budget -= 1
            try:
                outcomes.extend(self._flush(moment, "forced"))
            except Exception:  # counted by _flush's error path; keep draining
                continue
        return outcomes

    def cancel(self, request_id: str) -> bool:
        """Remove an admitted-but-unflushed request from the pending window.

        Returns ``True`` when the request was pending (it is removed and
        counted in :attr:`IngestStatistics.cancelled`, so conservation
        holds), ``False`` when no pending request carries ``request_id``
        (already flushed, or never admitted).  An emptied window closes.
        """
        for index, (request, _admitted) in enumerate(self._pending):
            if request.request_id == request_id:
                del self._pending[index]
                self._pending_epoch += 1
                self.statistics.cancelled += 1
                if not self._pending:
                    self._window_opened = None
                return True
        return False

    # ------------------------------------------------------------------
    def _flush(self, moment: float, reason: str) -> List[DispatchOutcome]:
        if not self._pending:
            return []
        started = self._wall_clock()
        # Chaos-harness hook (delay / error).  It fires before the window is
        # taken, so an injected error leaves the batcher untouched: a
        # transient failure before dispatch began loses no request, and the
        # caller may simply retry.
        _fire_fault("ingest.flush")
        window = self._pending
        opened = self._window_opened
        self._pending = []
        self._window_opened = None
        self._pending_epoch += 1  # covers the error-path re-queue too
        statistics = self.statistics
        setattr(statistics, reason, getattr(statistics, reason) + 1)
        statistics.window_fills.append(len(window) / self._max_batch_size)
        requests = [request for request, _ in window]
        admit_times = [admitted for _, admitted in window]
        deadlines = [self.deadline(request, admitted) for request, admitted in window]
        answered_before = statistics.answered

        def _answered(outcome: DispatchOutcome) -> None:
            position = statistics.answered - answered_before
            admit = admit_times[position]
            statistics.answered += 1
            if moment > deadlines[position] + 1e-12:
                statistics.deadline_misses += 1
            waited = moment - admit
            if waited < 0.0:
                waited = 0.0
            statistics.latencies.append(waited + (self._wall_clock() - started))
            if self._on_outcome is not None:
                self._on_outcome(outcome)

        try:
            outcomes = self._dispatcher.dispatch_batch(
                requests,
                policy=self._policy,
                on_outcome=_answered,
            )
        except Exception:
            # The dispatch raised at some request's turn: everything before
            # it was answered (and counted by the callback), the failing
            # request is lost to the error, and the untouched remainder is
            # re-queued at the front so no admitted request ever vanishes
            # silently (conservation:
            # admitted == answered + pending + errored + cancelled + evicted).
            answered = statistics.answered - answered_before
            statistics.errored += 1
            remainder = window[answered + 1 :]
            if remainder:
                self._pending = remainder + self._pending
                self._window_opened = remainder[0][1]
            statistics.serving_seconds += self._wall_clock() - started
            raise
        flush_wall = self._wall_clock() - started
        statistics.serving_seconds += flush_wall
        if self._controller is not None:
            span = 0.0 if opened is None else max(0.0, moment - opened)
            resized = self._controller.observe(flush_wall, len(window), span)
            if resized > 0:
                statistics.window_grown += 1
            elif resized < 0:
                statistics.window_shrunk += 1
        return outcomes


def batcher_from_config(
    dispatcher: Dispatcher,
    config,
    clock: Optional[Callable[[], float]] = None,
    on_outcome: Optional[Callable[[DispatchOutcome], None]] = None,
    wall_clock: Optional[Callable[[], float]] = None,
) -> MicroBatcher:
    """Build a :class:`MicroBatcher` from a :class:`~repro.core.config.SystemConfig`.

    Reads ``batch_window`` / ``max_batch_size`` / ``queue_capacity`` /
    ``queue_policy`` / ``speed`` / ``latency_budget`` /
    ``batch_window_mode`` / ``batch_window_min`` / ``batch_window_max``, so
    the service layer and the admin form stay the single source of truth.
    """
    return MicroBatcher(
        dispatcher,
        batch_window=config.batch_window,
        max_batch_size=config.max_batch_size,
        queue_capacity=config.queue_capacity,
        queue_policy=config.queue_policy,
        speed=config.speed,
        latency_budget=config.latency_budget,
        window_mode=config.batch_window_mode,
        window_min=config.batch_window_min,
        window_max=config.batch_window_max,
        clock=clock,
        on_outcome=on_outcome,
        wall_clock=wall_clock,
    )
