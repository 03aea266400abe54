"""Global system parameters.

Section 3.1 of the paper: "PTRider sets a global maximum waiting time and a
global service constraint", and the website interface (Section 4.2) lets an
administrator configure the taxi capacity, the number of taxis, the maximum
waiting time, the service constraint, the price calculator and the matching
algorithm.  :class:`SystemConfig` gathers those knobs so the dispatcher, the
service layer and the simulation engine share one source of truth.

Every knob is declared once, in its field's metadata (:func:`knob`): the
check its value must pass, the zero rule, who may set it (:data:`RUNTIME`,
:data:`BUILD` or :data:`FIXED`) and its command-line flag.  Validation,
:meth:`SystemConfig.with_knobs` (behind the admin form and
``build_system``), the CLI's flags and journal replay are all read off that
table; :data:`RETIRED_CONFIG_KEYS` is its retired section.
"""

from __future__ import annotations

from dataclasses import Field, dataclass, field, fields, replace
from typing import Callable, Dict, Mapping, Optional, Tuple

from repro.core.pricing import LinearPriceModel
from repro.errors import ConfigurationError
from repro.roadnet.routing import ROUTING_BACKENDS

__all__ = [
    "SystemConfig",
    "DEMO_SPEED_KMH",
    "MATCHER_NAMES",
    "Check",
    "knob",
    "KNOBS",
    "knob_names",
    "RUNTIME",
    "BUILD",
    "FIXED",
    "DROP",
    "RETIRED_CONFIG_KEYS",
]

#: The constant speed assumed in the demonstration (48 km/h).
DEMO_SPEED_KMH = 48.0

#: The matching algorithms the admin form offers.  The service's
#: ``MATCHER_REGISTRY`` is keyed by this list.
MATCHER_NAMES = ("single_side", "dual_side", "naive", "nearest", "sharek", "tshare")

#: Who may set a knob.  ``RUNTIME``: the admin form
#: (``PTRiderService.set_parameters``) on a live service, ``build_system``
#: and the CLI.  ``BUILD``: ``build_system`` and the CLI only; a running
#: service keeps the value it was built with.  ``FIXED``: only an explicit
#: ``SystemConfig(...)``.
RUNTIME, BUILD, FIXED = "runtime", "build", "fixed"


@dataclass(frozen=True)
class Check:
    """What a knob's value must satisfy, worded for the error that refuses it."""

    holds: Callable[[object], bool]
    wording: str
    #: the accepted values of a choice knob (the CLI offers them)
    choices: Tuple[object, ...] = ()


def _one_of(*choices: object) -> Check:
    return Check(choices.__contains__, f"one of {choices}", choices)


def _at_least(bound: int) -> Check:
    return Check(lambda value: value >= bound, f">= {bound}")


_POSITIVE = Check(lambda value: value > 0, "positive")
_NON_NEGATIVE = Check(lambda value: value >= 0, "non-negative")


def knob(
    check: Check,
    scope: str,
    *,
    zero_none: bool = False,
    flag: Optional[str] = None,
    help: Optional[str] = None,
    commands: Tuple[str, ...] = (),
    metavar: Optional[str] = None,
) -> Dict[str, object]:
    """The field metadata that declares one knob.

    ``check`` must hold for the value (a field whose default is ``None``
    also accepts ``None``); ``scope`` says who may set it; with
    ``zero_none``, a ``0`` given to the admin form, ``build_system`` or the
    CLI means ``None``.  ``flag`` is the knob's option on the CLI
    ``commands``, with its ``help`` and ``metavar``; its default is the
    field's (``0`` for a zero-rule knob).
    """
    return {
        "check": check, "scope": scope, "zero_none": zero_none,
        "flag": flag, "help": help, "commands": commands, "metavar": metavar,
    }


_ROUTING_HELP = (
    "routing backend (default: csr; csr+alt adds landmark bounds for "
    "pruning -- same distances)"
)


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
        matcher_name: which matching algorithm the service uses (one of
            :data:`MATCHER_NAMES`).
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
            name it replay through :data:`RETIRED_CONFIG_KEYS`.
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
            snapshot point every ``snapshot_interval`` journal records so
            recovery replays only the tail after the newest one instead of
            the whole journal.  A snapshot point is a cheap *delta* file
            holding only the partitions dirtied since the previous point
            (bookings touched, vehicles moved, the counters); a full
            snapshot is written by the compaction that folds a chain of
            deltas, between ingest windows -- never inside a flush.
        journal_path: directory holding the durability journal (the SQLite
            WAL database plus the snapshot files).  Required when
            ``durability`` is not "off"; ignored otherwise.
        snapshot_interval: journal records between snapshot points under
            "journal+snapshot" (>= 1).  Smaller values bound recovery
            replay tighter at the cost of more delta writes.
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
            (``None`` derives ``batch_window / 16``; see
            :meth:`window_bounds`).  In adaptive mode the effective bound
            must not exceed the effective ``batch_window_max`` nor the
            ``latency_budget``; two explicit bounds are ordered in any mode.
        batch_window_max: adaptive-mode upper bound on the window length
            (``None`` derives ``batch_window * 16``).
        snapshot_mode: retired.  Snapshot points are always deltas; the
            field only accepts "incremental", and journals that name the
            retired "full" replay through :data:`RETIRED_CONFIG_KEYS`.
        retention_horizon: optional age, in simulated time units, past
            which *fully served* bookings (chosen, picked up and dropped
            off) are pruned from live state -- and therefore from
            snapshots -- so a long-running service stops growing with
            history.  The journal stays authoritative; pruned bookings
            are counted in the ``retired`` conservation counter.  ``None``
            keeps every booking forever.
    """

    vehicle_capacity: int = field(default=4, metadata=knob(_at_least(1), RUNTIME))
    max_waiting: float = field(default=5.0, metadata=knob(_NON_NEGATIVE, RUNTIME))
    service_constraint: float = field(default=0.2, metadata=knob(_NON_NEGATIVE, RUNTIME))
    speed: float = field(default=1.0, metadata=knob(_POSITIVE, FIXED))
    max_pickup_distance: Optional[float] = field(
        default=None, metadata=knob(_POSITIVE, RUNTIME)
    )
    matcher_name: str = field(default="single_side", metadata=knob(
        _one_of(*MATCHER_NAMES), RUNTIME, flag="--matcher",
        help="matching algorithm", commands=("simulate",),
    ))
    price_model: LinearPriceModel = field(
        default_factory=LinearPriceModel,
        metadata=knob(Check(lambda value: isinstance(value, LinearPriceModel),
                            "a LinearPriceModel"), FIXED),
    )
    routing_backend: str = field(default="csr", metadata=knob(
        _one_of(*ROUTING_BACKENDS), RUNTIME, flag="--routing",
        help=_ROUTING_HELP, commands=("demo", "simulate", "compare"),
    ))
    dispatch_workers: int = field(default=1, metadata=knob(
        Check(lambda value: value == 1, "1 (it is retired: dispatch runs in one process)"),
        FIXED,
    ))
    batch_window: float = field(default=1.0, metadata=knob(_POSITIVE, RUNTIME))
    max_batch_size: int = field(default=512, metadata=knob(_at_least(1), RUNTIME))
    queue_capacity: Optional[int] = field(default=None, metadata=knob(
        _at_least(1), RUNTIME, zero_none=True,
    ))
    queue_policy: str = field(default="shed", metadata=knob(_one_of("shed", "block"), RUNTIME))
    durability: str = field(default="off", metadata=knob(
        _one_of("off", "journal", "journal+snapshot"), BUILD, flag="--durability",
        help="persist live service state: journal records every mutating "
        "event to a SQLite write-ahead journal, journal+snapshot adds "
        "periodic state snapshots that bound recovery replay length",
        commands=("demo",),
    ))
    journal_path: Optional[str] = field(default=None, metadata=knob(
        Check(lambda value: isinstance(value, str), "a directory path"), BUILD,
        flag="--journal", metavar="DIR",
        help="journal directory (required when --durability is not off); "
        "recover a crashed service from it with PTRiderService.recover()",
        commands=("demo",),
    ))
    snapshot_interval: int = field(default=1000, metadata=knob(
        _at_least(1), BUILD, flag="--snapshot-interval", metavar="N",
        help="journal records between snapshot points under journal+snapshot",
        commands=("demo",),
    ))
    latency_budget: Optional[float] = field(default=None, metadata=knob(
        _POSITIVE, RUNTIME, zero_none=True,
    ))
    batch_window_mode: str = field(default="fixed", metadata=knob(
        _one_of("fixed", "adaptive"), RUNTIME,
    ))
    batch_window_min: Optional[float] = field(default=None, metadata=knob(
        _POSITIVE, RUNTIME, zero_none=True,
    ))
    batch_window_max: Optional[float] = field(default=None, metadata=knob(
        _POSITIVE, RUNTIME, zero_none=True,
    ))
    snapshot_mode: str = field(default="incremental", metadata=knob(
        _one_of("incremental"), FIXED,
    ))
    retention_horizon: Optional[float] = field(default=None, metadata=knob(
        _POSITIVE, RUNTIME, zero_none=True, flag="--retention-horizon", metavar="T",
        help="prune fully-served bookings older than T time units from "
        "live state and snapshots; the journal keeps the full history "
        "(0 disables retention)",
        commands=("demo",),
    ))

    def __post_init__(self) -> None:
        for spec in KNOBS.values():
            value = getattr(self, spec.name)
            if value is None and spec.default is None:
                continue
            check: Check = spec.metadata["check"]
            if not check.holds(value):
                optional = " or None" if spec.default is None else ""
                raise ConfigurationError(
                    f"{spec.name} must be {check.wording}{optional}, got {value!r}"
                )
        if self.durability != "off" and not self.journal_path:
            raise ConfigurationError(
                f"durability={self.durability!r} requires journal_path to be set"
            )
        # The adaptive window needs its effective bounds (defaults included)
        # ordered and its smallest window inside the latency budget; explicit
        # bounds are ordered in every mode.
        adaptive = self.batch_window_mode == "adaptive"
        low, high = self.window_bounds()
        explicit = self.batch_window_min is not None and self.batch_window_max is not None
        if low > high and (adaptive or explicit):
            raise ConfigurationError(
                f"batch_window_min ({low}) must not exceed batch_window_max ({high})"
            )
        if adaptive and self.latency_budget is not None and low > self.latency_budget:
            raise ConfigurationError(
                f"batch_window_min ({low}) must not exceed latency_budget "
                f"({self.latency_budget}): the smallest window must fit the budget"
            )

    def window_bounds(self) -> Tuple[float, float]:
        """The adaptive window's effective ``(min, max)``: ``batch_window_min``
        and ``batch_window_max``, or ``batch_window / 16`` and
        ``batch_window * 16`` where unset."""
        low = self.batch_window / 16.0 if self.batch_window_min is None else self.batch_window_min
        high = self.batch_window * 16.0 if self.batch_window_max is None else self.batch_window_max
        return low, high

    def with_updates(self, **changes: object) -> "SystemConfig":
        """Return a copy with the given fields replaced (admin panel edits)."""
        return replace(self, **changes)  # type: ignore[arg-type]

    def with_knobs(self, changes: Mapping[str, object], *, running: bool) -> "SystemConfig":
        """A copy with ``changes`` applied as the admin form and ``build_system`` take them.

        ``None`` leaves a knob as it is, and ``0`` means ``None`` for a knob
        with the zero rule.  A ``running`` service changes only ``RUNTIME``
        knobs; a build also ``BUILD`` ones.  The copy is checked as a whole,
        so turning durability on needs its ``journal_path`` in the same
        changes or already in the config.

        Raises:
            TypeError: for any other name, as for an unexpected keyword
                argument.
            ConfigurationError: for a value its knob refuses.
        """
        allowed = knob_names(RUNTIME) if running else knob_names(RUNTIME, BUILD)
        updates: Dict[str, object] = {}
        for name, value in changes.items():
            if name not in allowed:
                raise TypeError(f"unexpected keyword argument {name!r}")
            if value is not None:
                zero_none = KNOBS[name].metadata["zero_none"]
                updates[name] = None if zero_none and value == 0 else value
        return replace(self, **updates) if updates else self


#: Every knob's field, by name, in declaration order.
KNOBS: Dict[str, Field] = {spec.name: spec for spec in fields(SystemConfig)}


def knob_names(*scopes: str) -> Tuple[str, ...]:
    """The knobs whose scope is one of ``scopes``, in declaration order."""
    return tuple(name for name, spec in KNOBS.items() if spec.metadata["scope"] in scopes)


#: A :data:`RETIRED_CONFIG_KEYS` entry whose knob replays as nothing.
DROP = object()

#: The table's retired section: knobs and knob values that old journals and
#: snapshots still name, and what each replays as.  None of them ever
#: changed an outcome, so the mapping is exact.
#:
#: - ``dispatch_workers`` (the multi-process dispatch pool) replays as 1,
#:   the only value the config accepts; its watchdog and retry knobs are
#:   dropped.
#: - The retired routing backends' knobs (``table_max_vertices``,
#:   ``tree_provider``), the retired artifact cache's directory and the
#:   retired fleet shard count (every shard count gave the same options)
#:   are dropped.
#: - A dict-valued entry maps retired *values* of a live knob.  The "dict",
#:   "table" and "ch" backends answered every query with the csr backend's
#:   floats, so they replay as "csr"; "full" snapshots wrote the state the
#:   delta chain folds to, so they replay as "incremental".
#:
#: A retired knob that the replayed call does not take (``set_parameters``
#: takes only ``RUNTIME`` knobs) is dropped too.  Only older builds can have
#: journaled the retired names: a refused change never reaches the journal.
RETIRED_CONFIG_KEYS: Dict[str, object] = {
    "dispatch_workers": 1,
    "worker_timeout": DROP,
    "max_dispatch_retries": DROP,
    "table_max_vertices": DROP,
    "tree_provider": DROP,
    "routing_cache_dir": DROP,
    "match_shards": DROP,
    "routing_backend": {"dict": "csr", "table": "csr", "ch": "csr"},
    "snapshot_mode": {"full": "incremental"},
}
