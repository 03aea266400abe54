"""Global system parameters.

Section 3.1 of the paper: "PTRider sets a global maximum waiting time and a
global service constraint", and the website interface (Section 4.2) lets an
administrator configure the taxi capacity, the number of taxis, the maximum
waiting time, the service constraint, the price calculator and the matching
algorithm.  :class:`SystemConfig` gathers those knobs so the dispatcher, the
service layer and the simulation engine share one source of truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.core.pricing import LinearPriceModel
from repro.errors import ConfigurationError
from repro.roadnet.routing import ROUTING_BACKENDS

__all__ = ["SystemConfig", "DEMO_SPEED_KMH"]

#: The constant speed assumed in the demonstration (48 km/h).
DEMO_SPEED_KMH = 48.0


@dataclass(frozen=True)
class SystemConfig:
    """Global PTRider parameters (the admin panel of Fig. 4(c)).

    Attributes:
        vehicle_capacity: seats per taxi.
        max_waiting: global maximum waiting time ``w`` applied to requests
            that do not specify their own, in distance units.
        service_constraint: global detour tolerance ``epsilon`` applied to
            requests that do not specify their own.
        speed: constant vehicle speed in distance units per time unit; used to
            convert between pick-up distances and pick-up times.
        max_pickup_distance: optional cap on the pick-up distance of returned
            options.  ``None`` reproduces Definition 4 literally (every
            non-dominated option, however far the vehicle); a finite value is
            what a deployment would use and lets the grid searches terminate
            early.
        matcher_name: which matching algorithm the service uses
            ("single_side", "dual_side" or "naive").
        price_model: the price calculator.
        routing_backend: how the routing engine answers shortest-path
            queries ("csr" or "csr+alt"; see :mod:`repro.roadnet.routing`):
            "csr" computes distance trees over flat CSR arrays, "csr+alt"
            adds ALT landmark lower bounds for pruning.  Both return the
            same distances.  A service takes the backend of the engine its
            fleet was built with.
        dispatch_workers: retired.  Dispatch runs in one process; the
            field stays only so callers that still pass ``1`` keep working,
            and any other value is a configuration error.  Journals that
            name it replay through
            :data:`repro.service.recovery.RETIRED_CONFIG_KEYS`.
        batch_window: how long the serving path's micro-batcher
            (:class:`repro.service.ingest.MicroBatcher`) lets a window
            accumulate before flushing it through the batch pipeline, in
            the same time units as request submit times (simulated seconds
            under replay, wall seconds live).  A window closes when this
            much time has passed since its first admission *or* when it
            reaches ``max_batch_size``, whichever comes first.
        max_batch_size: request count that force-closes a micro-batch
            window early.
        queue_capacity: bound on requests the micro-batcher may hold
            admitted-but-unanswered (the current window plus any backlog).
            ``None`` means unbounded -- acceptable for offline replay,
            never for serving.  With a bound, admissions beyond capacity
            follow ``queue_policy``.
        queue_policy: what a full queue does with the next admission:
            "shed" refuses it (counted and reported; the caller sees an
            explicit rejection), "block" flushes the pending window inline
            to free capacity before admitting (trades admission latency
            for acceptance).  Either way the queue never grows beyond
            ``queue_capacity``.
        durability: whether (and how) the service persists its live state
            (see :mod:`repro.service.journal`): "off" keeps everything
            in memory (state evaporates on a crash), "journal" records
            every state-mutating event to a SQLite write-ahead journal so
            :meth:`~repro.service.api.PTRiderService.recover` can replay
            the full history, "journal+snapshot" additionally writes a
            periodic state snapshot every ``snapshot_interval`` journal
            records so recovery replays only the tail after the newest
            snapshot instead of the whole journal.
        journal_path: directory holding the durability journal (the SQLite
            WAL database plus the snapshot files).  Required when
            ``durability`` is not "off"; ignored otherwise.
        snapshot_interval: journal records between automatic snapshots
            under "journal+snapshot" (>= 1).  Smaller values bound
            recovery replay tighter at the cost of more snapshot writes.
        latency_budget: optional latency slack, in the same time units as
            ``batch_window``.  When set, the micro-batcher force-closes the
            pending window as soon as the oldest admission is within this
            budget of its deadline (``admit_time + max_waiting / speed``),
            so a long ``batch_window`` cannot silently blow a rider's
            deadline.  ``None`` disables the deadline-driven close.
        batch_window_mode: "fixed" keeps ``batch_window`` static;
            "adaptive" hands the window length to the ingest path's
            closed-loop controller
            (:class:`repro.service.ingest.WindowController`), which grows
            the window when flush walls crowd it (amortising dispatch
            cost) and shrinks it when dispatch idles (cutting p99),
            bounded by ``batch_window_min`` / ``batch_window_max`` and the
            ``latency_budget`` headroom.
        batch_window_min: adaptive-mode lower bound on the window length
            (``None`` derives ``batch_window / 16``).
        batch_window_max: adaptive-mode upper bound on the window length
            (``None`` derives ``batch_window * 16``).
        snapshot_mode: how the periodic snapshot cadence persists state
            under ``durability="journal+snapshot"``: "full" serialises the
            whole accumulated state at every cadence point (simple, but
            the stall grows with history); "incremental" writes cheap
            *delta* files holding only the partitions dirtied since the
            last snapshot point (bookings touched, vehicles moved, the
            counters) and demotes the full serialise to a periodic
            compaction that runs between ingest windows -- never inside a
            flush.  Recovery folds the delta chain over the last full
            snapshot (see :mod:`repro.service.recovery`).
        retention_horizon: optional age, in simulated time units, past
            which *fully served* bookings (chosen, picked up and dropped
            off) are pruned from live state -- and therefore from
            snapshots -- so a long-running service stops growing with
            history.  The journal stays authoritative; pruned bookings
            are counted in the ``retired`` conservation counter.  ``None``
            keeps every booking forever.
    """

    vehicle_capacity: int = 4
    max_waiting: float = 5.0
    service_constraint: float = 0.2
    speed: float = 1.0
    max_pickup_distance: Optional[float] = None
    matcher_name: str = "single_side"
    price_model: LinearPriceModel = field(default_factory=LinearPriceModel)
    routing_backend: str = "csr"
    dispatch_workers: int = 1
    batch_window: float = 1.0
    max_batch_size: int = 512
    queue_capacity: Optional[int] = None
    queue_policy: str = "shed"
    durability: str = "off"
    journal_path: Optional[str] = None
    snapshot_interval: int = 1000
    latency_budget: Optional[float] = None
    batch_window_mode: str = "fixed"
    batch_window_min: Optional[float] = None
    batch_window_max: Optional[float] = None
    snapshot_mode: str = "full"
    retention_horizon: Optional[float] = None

    _VALID_MATCHERS = ("single_side", "dual_side", "naive")
    _VALID_QUEUE_POLICIES = ("shed", "block")
    _VALID_DURABILITY = ("off", "journal", "journal+snapshot")
    _VALID_WINDOW_MODES = ("fixed", "adaptive")
    _VALID_SNAPSHOT_MODES = ("full", "incremental")

    def __post_init__(self) -> None:
        if self.vehicle_capacity < 1:
            raise ConfigurationError(f"vehicle_capacity must be >= 1, got {self.vehicle_capacity}")
        if self.max_waiting < 0:
            raise ConfigurationError(f"max_waiting must be non-negative, got {self.max_waiting}")
        if self.service_constraint < 0:
            raise ConfigurationError(
                f"service_constraint must be non-negative, got {self.service_constraint}"
            )
        if self.speed <= 0:
            raise ConfigurationError(f"speed must be positive, got {self.speed}")
        if self.max_pickup_distance is not None and self.max_pickup_distance <= 0:
            raise ConfigurationError(
                f"max_pickup_distance must be positive or None, got {self.max_pickup_distance}"
            )
        if self.matcher_name not in self._VALID_MATCHERS:
            raise ConfigurationError(
                f"matcher_name must be one of {self._VALID_MATCHERS}, got {self.matcher_name!r}"
            )
        if self.routing_backend not in ROUTING_BACKENDS:
            raise ConfigurationError(
                f"routing_backend must be one of {ROUTING_BACKENDS}, got {self.routing_backend!r}"
            )
        if self.dispatch_workers != 1:
            raise ConfigurationError(
                f"dispatch_workers is retired and only accepts 1 (dispatch "
                f"runs in one process), got {self.dispatch_workers}"
            )
        if self.batch_window <= 0:
            raise ConfigurationError(
                f"batch_window must be positive, got {self.batch_window}"
            )
        if self.max_batch_size < 1:
            raise ConfigurationError(
                f"max_batch_size must be >= 1, got {self.max_batch_size}"
            )
        if self.queue_capacity is not None and self.queue_capacity < 1:
            raise ConfigurationError(
                f"queue_capacity must be >= 1 or None, got {self.queue_capacity}"
            )
        if self.queue_policy not in self._VALID_QUEUE_POLICIES:
            raise ConfigurationError(
                f"queue_policy must be one of {self._VALID_QUEUE_POLICIES}, "
                f"got {self.queue_policy!r}"
            )
        if self.durability not in self._VALID_DURABILITY:
            raise ConfigurationError(
                f"durability must be one of {self._VALID_DURABILITY}, "
                f"got {self.durability!r}"
            )
        if self.durability != "off" and not self.journal_path:
            raise ConfigurationError(
                f"durability={self.durability!r} requires journal_path to be set"
            )
        if self.snapshot_interval < 1:
            raise ConfigurationError(
                f"snapshot_interval must be >= 1, got {self.snapshot_interval}"
            )
        if self.latency_budget is not None and self.latency_budget <= 0:
            raise ConfigurationError(
                f"latency_budget must be positive or None, got {self.latency_budget}"
            )
        if self.batch_window_mode not in self._VALID_WINDOW_MODES:
            raise ConfigurationError(
                f"batch_window_mode must be one of {self._VALID_WINDOW_MODES}, "
                f"got {self.batch_window_mode!r}"
            )
        if self.batch_window_min is not None and self.batch_window_min <= 0:
            raise ConfigurationError(
                f"batch_window_min must be positive or None, got {self.batch_window_min}"
            )
        if self.batch_window_max is not None and self.batch_window_max <= 0:
            raise ConfigurationError(
                f"batch_window_max must be positive or None, got {self.batch_window_max}"
            )
        if (
            self.batch_window_min is not None
            and self.batch_window_max is not None
            and self.batch_window_min > self.batch_window_max
        ):
            raise ConfigurationError(
                f"batch_window_min ({self.batch_window_min}) must not exceed "
                f"batch_window_max ({self.batch_window_max})"
            )
        if self.snapshot_mode not in self._VALID_SNAPSHOT_MODES:
            raise ConfigurationError(
                f"snapshot_mode must be one of {self._VALID_SNAPSHOT_MODES}, "
                f"got {self.snapshot_mode!r}"
            )
        if self.retention_horizon is not None and self.retention_horizon <= 0:
            raise ConfigurationError(
                f"retention_horizon must be positive or None, got {self.retention_horizon}"
            )

    def with_updates(self, **changes: object) -> "SystemConfig":
        """Return a copy with the given fields replaced (admin panel edits)."""
        return replace(self, **changes)  # type: ignore[arg-type]

    def distance_to_time(self, distance: float) -> float:
        """Convert a distance to a travel time at the configured speed."""
        return distance / self.speed

    def time_to_distance(self, time: float) -> float:
        """Convert a travel time to a distance at the configured speed."""
        return time * self.speed
