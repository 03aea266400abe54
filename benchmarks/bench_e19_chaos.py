"""E19 -- chaos: the serving path under injected faults, degrading gracefully.

ISSUE 9's failure-containment machinery (the pool watchdog, dispatch retry,
deadline-aware ingest and the durable journal) is only worth its complexity
if the *whole* serving path survives a hostile run.  This experiment replays
the E17 surge/lull day twice on identical durable services:

* the **reference arm** runs fault-free and pins the expected trajectory --
  every window's bookings, every chosen option, the canonical end state;
* the **faulted arm** replays the same day under a seeded
  :class:`~repro.service.faults.FaultPlan`: a pool worker *killed* outright
  at a mid-run batch command (the begin failure is retried once against a
  freshly spawned pool), a worker *stalled* mid-turn in the final window
  (SIGTERM-ignoring -- only the watchdog's SIGKILL removes it), slow
  flushes (injected sleeps), and transient journal-append failures on
  admissions and pumps, which the driver retries once -- the modelled
  client behaviour for a reported write-ahead failure.  The worker-fault
  occurrence indices are *placed from the deterministic window sizes* (a
  worker's counters restart at zero on every respawn, so naive indices
  recur once per pool lifetime): each fault fires exactly once.

Graceful degradation is then asserted, not hoped for:

* **zero lost, zero double-answered** -- every admitted request is answered
  exactly once;
* **byte-identity** -- the faulted arm's windows and chosen options equal
  the reference arm's, window for window (fallbacks recompute, never
  approximate);
* **containment** -- the stalled worker was killed by the watchdog (within
  ``worker_timeout``, which also bounds the latency tail: p99 grows by at
  most the timeout plus scheduling noise, never the stall's full hour), and
  the pool was respawned a bounded number of times;
* **durability under faults** -- recovering the faulted arm's journal
  reproduces its canonical state exactly (failed appends never half-executed);
* **bounded slowdown** -- the faulted arm's throughput against the
  reference arm's is recorded (``degradation``) and trend-gated across
  commits as the ``*_faulted_throughput`` rate phase; it is not asserted
  from one run per arm (the fault plan's fixed costs against a serving wall
  of a few tenths of a second flaked a 0.6x floor two runs in ten).

Scale knobs: ``PTRIDER_E19_REQUESTS`` (headline, default 12000) and
``PTRIDER_E19_SMOKE_REQUESTS`` (CI smoke, default 6000).  Without parallel
dispatch support (or a window shape with no exactly-once placement) the
worker faults are skipped and the remaining plan (journal + flush faults)
still runs.
"""

from __future__ import annotations

import os
import random
import time

import pytest

from common import HAVE_SCIPY, percentiles, record_result

from repro.core.config import SystemConfig
from repro.core.parallel import parallel_available
from repro.roadnet.generators import grid_network
from repro.roadnet.grid_index import GridIndex
from repro.roadnet.routing import make_engine
from repro.service.api import PTRiderService
from repro.service.faults import FaultInjected, FaultPlan, FaultSpec
from repro.service.recovery import canonical_state
from repro.sim.workload import RequestWorkload
from repro.vehicles.fleet import Fleet
from repro.vehicles.vehicle import Vehicle

SEED = 19
TICK = 1.0
RATE = 400.0
MAX_WAITING = 8.0
SERVICE_CONSTRAINT = 0.6

#: E17's backend-matrix city: big enough for real per-window dispatch work,
#: small enough that two replay arms plus a recovery fit a CI smoke budget.
CITY = dict(rows=30, grid=6, vehicles=24, capacity=2, cache=8,
            max_pickup=3.0, speed=6.0, hotspots=48)

#: Watchdog bound for both arms: a stalled worker costs at most this much
#: wall before the batch falls back in-process.
WORKER_TIMEOUT = 1.0

HEADLINE_REQUESTS = int(os.environ.get("PTRIDER_E19_REQUESTS", "12000"))
SMOKE_REQUESTS = int(os.environ.get("PTRIDER_E19_SMOKE_REQUESTS", "6000"))

#: Pool-respawn ceiling asserted after the faulted replay: the schedule
#: breaks the pool exactly twice (the kill's begin-retry respawns once; the
#: final-window stall leaves a condemned pool nothing ever respawns), so
#: more than a few respawns means containment churned instead of containing.
MAX_RESPAWNS = 3


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------
def _build_service(journal_dir, workers: int) -> PTRiderService:
    network = grid_network(CITY["rows"], CITY["rows"], weight_jitter=0.3, seed=SEED)
    grid = GridIndex(network, rows=CITY["grid"], columns=CITY["grid"])
    engine = make_engine(network, "csr", max_cached_sources=CITY["cache"])
    fleet = Fleet(grid, engine)
    rng = random.Random(SEED)
    vertices = network.vertices()
    for index in range(CITY["vehicles"]):
        fleet.add_vehicle(
            Vehicle(f"c{index + 1}", location=rng.choice(vertices),
                    capacity=CITY["capacity"])
        )
    config = SystemConfig(
        vehicle_capacity=CITY["capacity"],
        max_waiting=MAX_WAITING,
        service_constraint=SERVICE_CONSTRAINT,
        speed=CITY["speed"],
        max_pickup_distance=CITY["max_pickup"],
        routing_backend="csr",
        dispatch_workers=workers,
        match_shards=workers,  # both workers carry shards: faults reach both
        batch_window=TICK,
        max_batch_size=65536,
        worker_timeout=WORKER_TIMEOUT,
        max_dispatch_retries=1,
        durability="journal",
        journal_path=str(journal_dir),
    )
    return PTRiderService(fleet, config=config, seed=SEED)


def _build_workload(total: int) -> RequestWorkload:
    network = grid_network(CITY["rows"], CITY["rows"], weight_jitter=0.3, seed=SEED)
    return RequestWorkload.daily(
        network,
        total=total,
        duration=total / RATE,
        max_waiting=MAX_WAITING,
        service_constraint=SERVICE_CONSTRAINT,
        hotspot_count=CITY["hotspots"],
        hotspot_bias=1.0,
        seed=SEED,
    )


def _window_sizes(total: int):
    """The deterministic per-window request counts of a ``total``-request
    day: one window per tick with arrivals (admitted at tick ``t``, flushed
    by the pump at ``t + TICK``)."""
    probe = _build_workload(total)
    sizes, t = [], 0.0
    while probe.remaining:
        t += TICK
        due = probe.due(t)
        if due:
            sizes.append(len(due))
    return sizes


def _worker_fault_indices(sizes):
    """Occurrence indices placing each worker fault to fire *exactly once*.

    A worker's fault counters restart at zero on every respawn, so indices
    must be placed against pool *lifetimes*, not the whole day.  The kill
    hits worker 1's batch command at window ``kill_occ`` (0-based): the
    begin failure is retried once on a fresh pool, so lifetime 1 serves
    windows ``0..kill_occ-1`` and lifetime 2 the rest.  The stall index is
    then chosen inside lifetime 2's *final* window -- past every turn
    lifetime 1 saw (no early fire) and past lifetime 2's earlier windows --
    so the condemned pool is never respawned.  Returns ``None`` when no
    such placement exists for this window shape.
    """
    count = len(sizes)
    for kill_occ in range((count + 1) // 2, count - 1):
        first_lifetime_turns = sum(sizes[:kill_occ])
        second_lifetime_turns = sum(sizes[kill_occ:])
        before_last_window = second_lifetime_turns - sizes[-1]
        lowest = max(first_lifetime_turns, before_last_window)
        highest = second_lifetime_turns - 1
        if lowest <= highest:
            return kill_occ, (lowest + highest) // 2
    return None


def _chaos_plan(sizes, parallel_ok: bool) -> FaultPlan:
    """The seeded fault schedule for a day with the given window sizes.

    The service-layer faults are drawn pseudo-randomly from the seed; the
    worker faults are placed deterministically by ``_worker_fault_indices``.
    """
    total = sum(sizes)
    sleeps = FaultPlan.seeded(
        SEED, [("ingest.flush", "sleep", 2, 6)], seconds=0.05
    )
    admit_span = max(2, min(400, total // 2))
    admit_errors = FaultPlan.seeded(
        SEED + 1, [("journal.append", "error", 2, admit_span)], tag="admit"
    )
    pump_errors = FaultPlan.seeded(
        SEED + 2, [("journal.append", "error", 1, 6)], tag="pump"
    )
    specs = sleeps.specs + admit_errors.specs + pump_errors.specs
    placement = _worker_fault_indices(sizes) if parallel_ok else None
    if placement is not None:
        kill_occ, stall_at = placement
        specs += (
            # worker 1 dies abruptly at a mid-run batch command; the begin
            # failure is retried once against a freshly spawned pool
            FaultSpec(point="worker.batch", action="kill", position=1,
                      at=(kill_occ,)),
            # worker 0 wedges (SIGTERM ignored) partway through the final
            # window; only the watchdog's SIGKILL removes it
            FaultSpec(point="worker.turn", action="stall", position=0,
                      at=(stall_at,)),
        )
    return FaultPlan(specs, name="e19-chaos")


def _option_key(option):
    return None if option is None else (
        option.vehicle_id, option.pickup_distance, option.price
    )


def _booking_key(booking):
    return (
        booking.request.request_id,
        tuple(_option_key(option) for option in booking.options),
        _option_key(booking.chosen),
    )


def _retry_once(call):
    """The driver-side contract for injected write-ahead failures: a failed
    append means the command never executed, so one retry is safe and the
    retried call lands on the next (un-faulted) occurrence index."""
    try:
        return call()
    except FaultInjected:
        return call()


def _replay(service: PTRiderService, workload: RequestWorkload):
    """E17's tick loop (admit due requests, pump once per tick), with the
    retry-once harness around every journaled call.  Returns the per-window
    booking keys and the per-request chosen option keys."""
    windows, chosen = [], {}
    t = 0.0
    while True:
        t += TICK
        flushed = _retry_once(lambda: service.pump(now=t))
        if flushed:
            windows.append([_booking_key(b) for b in flushed])
            for booking in flushed:
                chosen[booking.request.request_id] = _option_key(booking.chosen)
        due = workload.due(t)
        for request in due:
            admitted = _retry_once(lambda r=request: service.ingest_request(r, now=t))
            assert admitted  # replay queue is unbounded: nothing sheds
        if not due and not flushed and not workload.remaining:
            assert service.batcher.pending == 0
            break
        service.advance(TICK)
    return windows, chosen


def _assert_served_exactly_once(windows, workload_total: int):
    """Zero lost, zero double-answered."""
    seen = {}
    for window in windows:
        for request_id, _options, _chosen in window:
            seen[request_id] = seen.get(request_id, 0) + 1
    doubles = {rid: n for rid, n in seen.items() if n > 1}
    assert not doubles, f"double-answered requests: {sorted(doubles)[:5]}"
    assert len(seen) == workload_total, (
        f"lost requests: answered {len(seen)} of {workload_total}"
    )


def _run_chaos(tmp_path, total: int, phase_prefix: str) -> None:
    """Both arms + assertions + records; shared by smoke and headline."""
    workers = 2 if parallel_available() else 1
    workload = _build_workload(total)
    total = len(workload)
    sizes = _window_sizes(total)

    # --- reference arm: fault-free trajectory and canonical end state ----
    reference = _build_service(tmp_path / "reference", workers)
    ref_windows, ref_chosen = _replay(reference, workload)
    ref_stats = reference.batcher.statistics
    assert ref_stats.answered == total
    ref_throughput = ref_stats.throughput
    ref_tail = percentiles(ref_stats.latencies)
    record_result(
        "E19", ref_stats.serving_seconds, routing_backend="csr",
        phase=f"{phase_prefix}_reference", requests=total, workers=workers,
        throughput=round(ref_throughput, 1),
        latency_p99=round(ref_tail.get("p99", 0.0), 6),
    )

    # --- faulted arm: same day under the seeded chaos plan ---------------
    workload.reset()
    faulted = _build_service(tmp_path / "chaos", workers)
    plan = _chaos_plan(sizes, workers > 1)
    worker_faults = any(spec.point.startswith("worker.") for spec in plan.specs)
    with plan:
        fault_windows, fault_chosen = _replay(faulted, workload)
    stats = faulted.batcher.statistics
    health = faulted.dispatcher.health

    # graceful degradation, clause by clause (module docstring order)
    _assert_served_exactly_once(fault_windows, total)
    assert fault_windows == ref_windows, "faulted windows diverged from reference"
    assert fault_chosen == ref_chosen
    assert stats.admitted == total == stats.answered
    assert stats.errored == 0 and faulted.batcher.pending == 0

    journal_faults = sum(
        count for label, count in plan.fired.items()
        if label.startswith("journal.append")
    )
    assert journal_faults >= 2, "the journal fault schedule never fired"
    assert plan.fired.get("ingest.flush:sleep", 0) >= 1

    if worker_faults:
        # worker-side fires count in the *worker's* rebuilt plan, which dies
        # with the process -- the parent-side evidence is the containment
        # machinery reacting: the watchdog caught the stall (a timeout and a
        # kill), the abrupt worker death condemned a begin that was retried
        # on a respawned pool, and nothing churned beyond those two breaks
        assert health.worker_timeouts >= 1, "the watchdog never caught the stall"
        assert health.worker_kills >= 1
        assert health.batch_failures >= 2, "the worker kill never surfaced"
        assert health.dispatch_retries >= 1, "the killed begin was never retried"
        assert health.pool_respawns >= 1
        assert health.pool_respawns <= MAX_RESPAWNS, (
            f"fault churn respawned the pool {health.pool_respawns} times"
        )
        # the watchdog bounds the hang: the latency tail grows by at most
        # the timeout plus slack, never the stall's full hour
        fault_tail = percentiles(stats.latencies)
        assert fault_tail["p99"] <= ref_tail["p99"] + WORKER_TIMEOUT + 5.0

    faulted_throughput = stats.throughput
    record_result(
        "E19", stats.serving_seconds, routing_backend="csr",
        phase=f"{phase_prefix}_faulted", requests=total, workers=workers,
        throughput=round(faulted_throughput, 1),
        degradation=round(faulted_throughput / ref_throughput, 4),
        latency_p99=round(percentiles(stats.latencies).get("p99", 0.0), 6),
        worker_timeouts=float(health.worker_timeouts),
        worker_kills=float(health.worker_kills),
        pool_respawns=float(health.pool_respawns),
        dispatch_retries=float(health.dispatch_retries),
        journal_faults=float(journal_faults),
        faults_fired=float(sum(plan.fired.values())),
    )
    record_result("E19", faulted_throughput, routing_backend="csr",
                  phase=f"{phase_prefix}_faulted_throughput", requests=total)

    # --- durability under faults: recover the chaos journal --------------
    expected = canonical_state(faulted)
    faulted._journal.close()
    started = time.perf_counter()
    recovered = PTRiderService.recover(tmp_path / "chaos")
    recovery_wall = time.perf_counter() - started
    assert canonical_state(recovered) == expected, (
        "recovering the faulted journal did not reproduce the end state"
    )
    record_result(
        "E19", recovery_wall, routing_backend="csr",
        phase=f"{phase_prefix}_recovery",
        journal_seq=float(recovered.journal.last_seq()),
    )
    recovered.close()
    reference.close()
    faulted.close()


# ----------------------------------------------------------------------
# the CI smoke leg (selected via -k smoke) and the local headline
# ----------------------------------------------------------------------
def test_e19_smoke_chaos_replay(tmp_path):
    if not HAVE_SCIPY:
        pytest.skip("the csr backend needs scipy")
    _run_chaos(tmp_path, SMOKE_REQUESTS, "smoke")


def test_e19_headline_chaos_replay(tmp_path):
    if not HAVE_SCIPY:
        pytest.skip("the csr backend needs scipy")
    _run_chaos(tmp_path, HEADLINE_REQUESTS, "headline")
