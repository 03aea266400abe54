"""One round: build a fresh service, replay the day, check what came out.

Load model: arrivals are open-loop in *simulated* time -- every request
carries its submit time and the tick loop (one simulated second per tick,
``advance(1.0)`` between ticks) releases it on schedule however slow serving
is -- and the metrics are the *wall* cost of serving that schedule.  One
driver thread, ``dispatch_workers=1``.

Both serving paths answer a tick's arrivals at the next tick, against the
fleet state one ``advance`` later: the batched path because its 1 s window
closes then, the per-request path by construction here, so the two commute
workloads decide identical requests against identical fleets and their
outcome digests must be equal.

The first ``WARMUP_SHARE`` of the ticks, and at least the first two, are
warm-up (lazy grid rows, tree cache fill, and the first answers of the day,
when every taxi is still empty): served and checked, excluded from every
timed metric and every per-layer number.

Times are reported at *reference speed*.  The box this runs on changes its
effective speed by up to 1.5x for minutes at a time (a neighbour on the same
core: CPU time stretches with the wall, so no clock in the guest filters it),
which no amount of repetition inside one run averages away.  So every round
also times a fixed pure-Python loop -- around set-up, after every tick,
around recovery -- and divides each of its times by ``slowdown`` = the mean
of those samples / ``REFERENCE_LOOP_S``.  The raw clock readings stay in the
result document and the trace file.
"""

from __future__ import annotations

import gc
import hashlib
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core.config import SystemConfig
from repro.core.dispatcher import OptionPolicy
from repro.errors import ServiceError
from repro.roadnet.grid_index import GridIndex
from repro.roadnet.routing import make_engine
from repro.service.api import PTRiderService
from repro.service.journal import ServiceJournal
from repro.service.recovery import canonical_state
from repro.vehicles.fleet import Fleet
from repro.vehicles.vehicle import Vehicle

from perfbench.metrics import COUNT_METRICS, SPAN_METRICS, ratio
from perfbench.trace import ROOT, Tracer
from perfbench.workloads import Inputs, build_network

TICK = 1.0
#: the stand-in rider takes the cheapest option, as the batched path's default does
CHEAPEST = OptionPolicy.CHEAPEST
#: windows close by time, never by size: one window = one tick's arrivals
MAX_BATCH_SIZE = 65536
WARMUP_SHARE = 0.10
#: journal records between snapshot deltas on the durable workload (the
#: scaled-down day keeps E17-size days' ~30 cadence crossings per day in
#: proportion: 16 deltas, then one compaction)
SNAPSHOT_INTERVAL = 500
#: idle pumps journaled after the last snapshot point, replayed by recovery
LULL_TAIL = 16
#: what :func:`reference_loop` takes on the box this benchmark was built on
#: when nothing else runs there; it only fixes the unit of the reported times
REFERENCE_LOOP_S = 0.0032
#: reference samples taken in a row around set-up and around recovery
REFERENCE_BURST = 4


@dataclass
class Round:
    """Everything one replay measured and checked."""

    traced: bool
    wall_s: float = 0.0
    setup: Dict[str, float] = field(default_factory=dict)
    warmup_s: float = 0.0
    day_wall_s: float = 0.0
    serve_s: float = 0.0
    attempted: int = 0
    answered: int = 0
    answered_timed: int = 0
    matched: int = 0
    answer_s: List[float] = field(default_factory=list)
    flush_s: List[float] = field(default_factory=list)
    digest: str = ""
    #: work counts of the timed section, read from the program's statistics
    counts: Dict[str, float] = field(default_factory=dict)
    #: ``{span name: {calls, busy_s, self_s}}`` of the timed section
    spans: Dict[str, Dict[str, float]] = field(default_factory=dict)
    recover_s: float = 0.0
    #: bytes on disk at the crash point and the requests they cover (durable
    #: workloads only; snapshots embed wall-clock floats, so sizes vary by a
    #: few bytes from run to run and are not held to exact repetition)
    journal_bytes: int = 0
    snapshot_bytes: int = 0
    admitted: int = 0
    failures: List[str] = field(default_factory=list)
    tracer: Optional[Tracer] = None
    #: walls of the reference loop, sampled all through the round
    reference_s: List[float] = field(default_factory=list)
    #: how much slower than reference speed the box ran during this round;
    #: every time above has been divided by it
    slowdown: float = 1.0
    raw_day_wall_s: float = 0.0

    @property
    def setup_s(self) -> float:
        return sum(self.setup.values())

    def sample_reference(self, count: int = 1) -> None:
        for _ in range(count):
            started = time.perf_counter()
            reference_loop()
            self.reference_s.append(time.perf_counter() - started)

    def to_reference_speed(self) -> None:
        """Divide every measured time by the round's ``slowdown``."""
        self.raw_day_wall_s = self.day_wall_s
        self.slowdown = slowdown = (
            sum(self.reference_s) / len(self.reference_s) / REFERENCE_LOOP_S
        )
        self.setup = {name: value / slowdown for name, value in self.setup.items()}
        self.warmup_s /= slowdown
        self.day_wall_s /= slowdown
        self.serve_s /= slowdown
        self.recover_s /= slowdown
        self.answer_s = [value / slowdown for value in self.answer_s]
        self.flush_s = [value / slowdown for value in self.flush_s]
        for totals in self.spans.values():
            totals["busy_s"] /= slowdown
            totals["self_s"] /= slowdown


def reference_loop() -> int:
    """A fixed amount of interpreter work (dict stores, integer arithmetic)."""
    total, table = 0, {}
    for index in range(30000):
        table[index & 1023] = total
        total += (index * 7) % 13
    return total


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
def build_service(inputs: Inputs, journal_dir: Optional[Path]):
    """Network, grid index, engine, fleet and service -- each step timed."""
    workload, clock = inputs.workload, time.perf_counter
    marks = [clock()]
    network = build_network(workload, inputs.seed)
    marks.append(clock())
    grid = GridIndex(network, rows=workload.grid, columns=workload.grid)
    marks.append(clock())
    engine = make_engine(network, "csr", max_cached_sources=workload.tree_cache)
    marks.append(clock())
    fleet = Fleet(grid, engine)
    for index, vertex in enumerate(inputs.placements, 1):
        fleet.add_vehicle(
            Vehicle(f"c{index}", location=vertex, capacity=workload.capacity)
        )
    marks.append(clock())
    durable = dict(
        durability="journal+snapshot",
        journal_path=str(journal_dir),
        snapshot_interval=SNAPSHOT_INTERVAL,
        snapshot_mode="incremental",
    ) if workload.durable else {}
    config = SystemConfig(
        vehicle_capacity=workload.capacity,
        max_waiting=workload.max_waiting,
        service_constraint=workload.service_constraint,
        speed=workload.speed,
        max_pickup_distance=workload.max_pickup_distance,
        routing_backend="csr",
        dispatch_workers=1,
        batch_window=TICK,
        max_batch_size=MAX_BATCH_SIZE,
        **durable,
    )
    service = PTRiderService(fleet, config=config, seed=inputs.seed)
    marks.append(clock())
    names = ("network_s", "grid_s", "engine_s", "fleet_s", "service_s")
    return service, {
        name: later - earlier
        for name, earlier, later in zip(names, marks, marks[1:])
    }


# ----------------------------------------------------------------------
# counts the program keeps itself
# ----------------------------------------------------------------------
def read_counts(service, batch_totals: Dict[str, float]) -> Dict[str, float]:
    """Cumulative work counts from the program's own statistics objects."""
    matcher = service.matcher.statistics
    engine = service.fleet.routing_engine.stats
    ingest = service.batcher.statistics
    return {
        "matcher.vehicles_considered": matcher.vehicles_considered,
        "matcher.vehicles_evaluated": matcher.vehicles_evaluated,
        "matcher.vehicles_pruned": matcher.vehicles_pruned,
        "matcher.options_returned": matcher.options_returned,
        "insertion.enumerated": matcher.insertion.candidates_enumerated,
        "insertion.feasible": matcher.insertion.candidates_feasible,
        "insertion.bound_rejected": matcher.insertion.candidates_rejected_by_bounds,
        "routing.queries": engine.queries,
        "routing.cache_hits": engine.cache_hits,
        "routing.trees_computed": engine.dijkstra_runs + engine.phast_sweeps,
        "ingest.flushes": ingest.flushes,
        "ingest.window_fill_sum": sum(ingest.window_fills),
        "ingest.shed": ingest.shed,
        "ingest.errored": ingest.errored,
        **batch_totals,
    }


def _fold_batch_statistics(totals: Dict[str, float], statistics) -> None:
    """Add one flush's ``BatchStatistics`` (the dispatcher keeps the last only)."""
    totals["batch.prefetched_trees"] += statistics.prefetched_trees
    totals["batch.shared_tree_hits"] += statistics.shared_tree_hits
    totals["batch.trees_computed"] += statistics.trees_computed
    totals["routing.prefetch.trees"] += (
        statistics.prefetched_trees + statistics.leg_sources_prefetched
    )


# ----------------------------------------------------------------------
# the replay
# ----------------------------------------------------------------------
def replay(service, inputs: Inputs, result: Round) -> List[tuple]:
    """Drive the day tick by tick; returns the answers in answer order."""
    clock = time.perf_counter
    tracer = result.tracer
    batched = inputs.workload.path == "batched"
    ticks = inputs.ticks
    last_tick = len(ticks) + 1  # the tick that answers the final arrivals
    warmup = min(max(2, round(WARMUP_SHARE * last_tick)), last_tick - 1)
    answers: List[tuple] = []
    batch_totals = {
        "batch.prefetched_trees": 0,
        "batch.shared_tree_hits": 0,
        "batch.trees_computed": 0,
        "routing.prefetch.trees": 0,
    }
    ingest_wall: Dict[str, float] = {}
    carry: Tuple = ()
    baseline: Dict[str, float] = {}
    answered_before = 0
    serve_s = 0.0
    walls = {False: 0.0, True: 0.0}  # warm-up ticks, timed ticks
    for tick in range(1, last_tick + 1):
        if tick == warmup + 1:
            baseline = read_counts(service, batch_totals)
            answered_before = len(answers)
        timed = tick > warmup
        tick_started = clock()
        if tracer is not None:
            tracer.begin_tick(tick)
        now = float(tick)
        due = ticks[tick - 1] if tick <= len(ticks) else ()
        result.attempted += len(due)
        serving, carry = carry, due
        try:
            if batched:
                call = clock()
                bookings = service.pump(now=now)
                tick_serve = pump_wall = clock() - call
                if bookings:
                    _fold_batch_statistics(
                        batch_totals, service.dispatcher.last_batch_statistics
                    )
                    for booking in bookings:
                        answers.append(
                            (booking.request.request_id, len(booking.options), booking.chosen)
                        )
                    if timed:
                        result.flush_s.append(pump_wall)
                        result.answer_s.extend(
                            ingest_wall.pop(booking.request.request_id) + pump_wall
                            for booking in bookings
                        )
                for request in due:
                    call = clock()
                    service.ingest_request(request, now=now)
                    wall = clock() - call
                    tick_serve += wall
                    ingest_wall[request.request_id] = wall
            else:
                tick_serve = 0.0
                for request in serving:
                    call = clock()
                    booking = service.book_request(request)
                    options = booking.options
                    if options:
                        chosen = service.choose(
                            booking.booking_id, options.index(CHEAPEST.choose(options))
                        )
                    else:
                        service.cancel(booking.booking_id)
                        chosen = None
                    wall = clock() - call
                    tick_serve += wall
                    answers.append((request.request_id, len(options), chosen))
                    if timed:
                        result.answer_s.append(wall)
                if serving and timed:
                    result.flush_s.append(tick_serve)
            if timed:
                serve_s += tick_serve
            if tick < last_tick:
                service.advance(TICK)
        except Exception as error:  # a raising call is a failed operation, not a crash
            result.failures.append(f"tick {tick} raised {error!r}")
        if tracer is not None:
            tracer.end_tick()
        walls[timed] += clock() - tick_started
        result.sample_reference()
    result.warmup_s, result.day_wall_s = walls[False], walls[True]
    result.serve_s = serve_s
    result.answered = len(answers)
    result.answered_timed = len(answers) - answered_before
    result.matched = sum(1 for _, _, chosen in answers if chosen is not None)
    final = read_counts(service, batch_totals)
    result.counts = {name: final[name] - baseline[name] for name in final}
    result.counts["ingest.peak_queue_depth"] = service.batcher.statistics.peak_queue_depth
    if tracer is not None:
        result.spans = tracer.aggregate(first_tick=warmup + 1)
    return answers


def outcome_digest(answers: List[tuple]) -> str:
    """SHA-256 over (request id, option count, chosen vehicle, price and
    pick-up distance to 6 dp) in answer order."""
    digest = hashlib.sha256()
    for request_id, option_count, chosen in answers:
        if chosen is None:
            line = f"{request_id}|{option_count}|-\n"
        else:
            line = (
                f"{request_id}|{option_count}|{chosen.vehicle_id}|"
                f"{chosen.price:.6f}|{chosen.pickup_distance:.6f}\n"
            )
        digest.update(line.encode("utf-8"))
    return digest.hexdigest()


# ----------------------------------------------------------------------
# checks and the durable epilogue
# ----------------------------------------------------------------------
def _directory_bytes(directory: Path, pattern: str = "*") -> int:
    return sum(path.stat().st_size for path in directory.glob(pattern) if path.is_file())


def _check_ingest(service, result: Round) -> None:
    stats = service.batcher.statistics
    pending = service.batcher.pending
    accounted = stats.answered + pending + stats.errored + stats.cancelled + stats.evicted
    if stats.admitted != accounted:
        result.failures.append(
            f"ingest conservation: admitted {stats.admitted} != answered+pending+"
            f"errored+cancelled+evicted {accounted}"
        )
    if pending:
        result.failures.append(f"{pending} requests still pending at the end of the day")
    for name in ("shed", "errored", "evicted"):
        if getattr(stats, name):
            result.failures.append(f"ingest {name} = {getattr(stats, name)}")
    if result.answered != result.attempted:
        result.failures.append(
            f"answered {result.answered} of {result.attempted} requests"
        )


def _newest_snapshot_point(journal: ServiceJournal) -> int:
    return max(
        [seq for seq, _ in journal.snapshot_files() + journal.delta_files()], default=0
    )


def _crash_and_recover(service, journal_dir: Path, now: float, result: Round) -> None:
    """End the day with a lull, crash, recover a copy of the journal directory
    and require the same canonical state.

    The lull: the serving loop keeps pumping an empty queue -- one journal
    record per pump, as a timer-driven loop does all night -- until the
    snapshot cadence crosses once more, then ``LULL_TAIL`` pumps further.  So
    recovery folds the whole delta chain and replays a tail, but the tail
    holds no matching work.  It must not, today: replaying a window on a
    restored service diverges whenever the live service answered it from a
    stale grid-cell registration (see README, "Found while building").
    """
    journal = service.journal
    newest = _newest_snapshot_point(journal)
    for _ in range(SNAPSHOT_INTERVAL + 1):
        if _newest_snapshot_point(journal) != newest:
            break
        service.pump(now=now)
    for _ in range(LULL_TAIL):
        service.pump(now=now)
    live = canonical_state(service)
    result.journal_bytes = _directory_bytes(journal_dir)
    result.snapshot_bytes = _directory_bytes(
        journal_dir, "snapshot-*.json"
    ) + _directory_bytes(journal_dir, "delta-*.json")
    result.admitted = service.batcher.statistics.admitted
    service.close()  # writes no final snapshot
    copy = journal_dir.with_name("recover")
    shutil.copytree(journal_dir, copy)
    copied = ServiceJournal(copy)
    result.counts["recovery.replayed_records"] = sum(
        1 for record in copied.records(_newest_snapshot_point(copied)) if record.is_command
    )
    copied.close()
    result.sample_reference(REFERENCE_BURST)
    started = time.perf_counter()
    try:
        recovered = PTRiderService.recover(copy)
    except ServiceError as error:
        result.failures.append(f"recover() raised {error!r}")
        return
    result.recover_s = time.perf_counter() - started
    result.sample_reference(REFERENCE_BURST)
    try:
        if canonical_state(recovered) != live:
            result.failures.append("canonical_state(recovered) != canonical_state(live)")
    finally:
        recovered.close()


def run_round(inputs: Inputs, scratch: Path, traced: bool) -> Round:
    """Set up, replay, check; ``scratch`` holds the journal while it lasts."""
    gc.collect()
    round_started = time.perf_counter()
    result = Round(traced=traced, tracer=Tracer() if traced else None)
    journal_dir = scratch / "journal" if inputs.workload.durable else None
    if scratch.exists():
        shutil.rmtree(scratch)
    scratch.mkdir(parents=True)
    result.sample_reference(REFERENCE_BURST)
    service, result.setup = build_service(inputs, journal_dir)
    result.sample_reference(REFERENCE_BURST)
    try:
        if result.tracer is not None:
            result.tracer.attach(service)
        try:
            answers = replay(service, inputs, result)
        finally:
            if result.tracer is not None:
                result.tracer.detach()
        result.digest = outcome_digest(answers)
        if inputs.workload.path == "batched":
            _check_ingest(service, result)
        elif result.answered != result.attempted:
            result.failures.append(
                f"answered {result.answered} of {result.attempted} requests"
            )
        if journal_dir is not None:
            _crash_and_recover(service, journal_dir, float(len(inputs.ticks) + 1), result)
    finally:
        service.close()
        shutil.rmtree(scratch, ignore_errors=True)
    result.to_reference_speed()
    result.wall_s = time.perf_counter() - round_started
    return result


# ----------------------------------------------------------------------
# per-layer metrics of one traced round
# ----------------------------------------------------------------------
def layer_metrics(result: Round) -> Dict[str, float]:
    """Every per-layer metric of one traced round (``harness.generate_s`` and
    ``trace.overhead_ratio`` are the run's to add)."""
    counts, spans = result.counts, result.spans
    values: Dict[str, float] = {}
    for span, fields in SPAN_METRICS:
        for name in fields:
            values[f"{span}.{name}"] = spans[span][name]
    for name, _, _ in COUNT_METRICS:
        if name in counts:  # the ones the program counts under this very name
            values[name] = counts[name]
    values["journal.bytes"] = result.journal_bytes
    values["recovery.snapshot.bytes"] = result.snapshot_bytes
    values["recovery.replayed_records"] = counts.get("recovery.replayed_records", 0)
    # the program records each window's fill as a share of ``max_batch_size``
    values["ingest.window_fill_mean"] = MAX_BATCH_SIZE * ratio(
        counts["ingest.window_fill_sum"], counts["ingest.flushes"]
    )
    values["batch.shared_tree_hit_rate"] = ratio(
        counts["batch.shared_tree_hits"],
        counts["batch.prefetched_trees"]
        + counts["batch.shared_tree_hits"]
        + counts["batch.trees_computed"],
    )
    values["matcher.useful_eval_ratio"] = ratio(
        counts["matcher.options_returned"], counts["matcher.vehicles_evaluated"]
    )
    values["insertion.feasible_ratio"] = ratio(
        counts["insertion.feasible"], counts["insertion.enumerated"]
    )
    values["routing.cache_hit_ratio"] = ratio(
        counts["routing.cache_hits"], counts["routing.queries"]
    )
    values["recovery.recover.busy_s"] = result.recover_s
    values["grid.build_s"] = result.setup["grid_s"]
    for name in ("network_s", "engine_s", "fleet_s", "service_s"):
        values[f"setup.{name}"] = result.setup[name]
    values["harness.warmup_s"] = result.warmup_s
    values["harness.slowdown"] = result.slowdown
    values["trace.unaccounted_s"] = spans[ROOT]["self_s"]
    return values
