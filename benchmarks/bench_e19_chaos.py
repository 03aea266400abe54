"""E19 -- chaos: the serving path under injected faults, degrading gracefully.

Deadline-aware ingest and the durable journal are only worth their
complexity if the *whole* serving path survives a hostile run.  This
experiment replays the E17 surge/lull day twice on identical durable
services:

* the **reference arm** runs fault-free and pins the expected trajectory --
  every window's bookings, every chosen option, the canonical end state;
* the **faulted arm** replays the same day under a seeded
  :class:`~repro.service.faults.FaultPlan`: slow flushes (injected sleeps),
  failed flushes (injected errors at the flush hook, before the window is
  taken) and transient journal-append failures on admissions and pumps.
  The driver retries a failed call once -- the modelled client behaviour
  for a reported failure that executed nothing.

Graceful degradation is then asserted, not hoped for:

* **zero lost, zero double-answered** -- every admitted request is answered
  exactly once;
* **byte-identity** -- the faulted arm's windows and chosen options equal
  the reference arm's, window for window;
* **durability under faults** -- recovering the faulted arm's journal
  reproduces its canonical state exactly (failed appends never
  half-executed, and a failed flush's pump replays as the flush its retry
  performed);
* **bounded slowdown** -- the faulted arm's throughput against the
  reference arm's is recorded (``degradation``) and trend-gated across
  commits as the ``*_faulted_throughput`` rate phase; it is not asserted
  from one run per arm (the fault plan's fixed costs against a serving wall
  of a few tenths of a second flaked a 0.6x floor two runs in ten).

Scale knobs: ``PTRIDER_E19_REQUESTS`` (headline, default 12000) and
``PTRIDER_E19_SMOKE_REQUESTS`` (CI smoke, default 6000).
"""

from __future__ import annotations

import os
import random
import time

import pytest

from common import HAVE_SCIPY, percentiles, record_result

from repro.core.config import SystemConfig
from repro.roadnet.generators import grid_network
from repro.roadnet.grid_index import GridIndex
from repro.roadnet.routing import make_engine
from repro.service.api import PTRiderService
from repro.service.faults import FaultInjected, FaultPlan
from repro.service.recovery import canonical_state
from repro.sim.workload import RequestWorkload
from repro.vehicles.fleet import Fleet
from repro.vehicles.vehicle import Vehicle

from tests.crash import kill

SEED = 19
TICK = 1.0
RATE = 400.0
MAX_WAITING = 8.0
SERVICE_CONSTRAINT = 0.6

#: E17's backend-matrix city: big enough for real per-window dispatch work,
#: small enough that two replay arms plus a recovery fit a CI smoke budget.
CITY = dict(rows=30, grid=6, vehicles=24, capacity=2, cache=8,
            max_pickup=3.0, speed=6.0, hotspots=48)

HEADLINE_REQUESTS = int(os.environ.get("PTRIDER_E19_REQUESTS", "12000"))
SMOKE_REQUESTS = int(os.environ.get("PTRIDER_E19_SMOKE_REQUESTS", "6000"))

# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------
def _build_service(journal_dir) -> PTRiderService:
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
        batch_window=TICK,
        max_batch_size=65536,
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


def _chaos_plan(total: int) -> FaultPlan:
    """The seeded fault schedule: every occurrence index is drawn from the
    seed, so the faulted arm's trajectory is the same on every run."""
    sleeps = FaultPlan.seeded(
        SEED, [("ingest.flush", "sleep", 2, 6)], seconds=0.05
    )
    flush_errors = FaultPlan.seeded(SEED + 3, [("ingest.flush", "error", 2, 6)])
    admit_span = max(2, min(400, total // 2))
    admit_errors = FaultPlan.seeded(
        SEED + 1, [("journal.append", "error", 2, admit_span)], tag="admit"
    )
    pump_errors = FaultPlan.seeded(
        SEED + 2, [("journal.append", "error", 1, 6)], tag="pump"
    )
    specs = sleeps.specs + flush_errors.specs + admit_errors.specs + pump_errors.specs
    for spec in specs:
        if spec.action == "error":
            # the driver retries once, onto the next occurrence index
            assert all(b - a > 1 for a, b in zip(spec.at, spec.at[1:])), spec
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
    """The driver-side contract for injected failures: a failed append means
    the command never executed and a failed flush took nothing from the
    window, so one retry is safe and lands on the next (un-faulted)
    occurrence index."""
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
    workload = _build_workload(total)
    total = len(workload)

    # --- reference arm: fault-free trajectory and canonical end state ----
    reference = _build_service(tmp_path / "reference")
    ref_windows, ref_chosen = _replay(reference, workload)
    ref_stats = reference.batcher.statistics
    assert ref_stats.answered == total
    ref_throughput = ref_stats.throughput
    ref_tail = percentiles(ref_stats.latencies)
    record_result(
        "E19", ref_stats.serving_seconds, routing_backend="csr",
        phase=f"{phase_prefix}_reference", requests=total,
        throughput=round(ref_throughput, 1),
        latency_p99=round(ref_tail.get("p99", 0.0), 6),
    )

    # --- faulted arm: same day under the seeded chaos plan ---------------
    workload.reset()
    faulted = _build_service(tmp_path / "chaos")
    plan = _chaos_plan(total)
    with plan:
        fault_windows, fault_chosen = _replay(faulted, workload)
    stats = faulted.batcher.statistics

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
    assert plan.fired.get("ingest.flush:error", 0) == 2

    faulted_throughput = stats.throughput
    record_result(
        "E19", stats.serving_seconds, routing_backend="csr",
        phase=f"{phase_prefix}_faulted", requests=total,
        throughput=round(faulted_throughput, 1),
        degradation=round(faulted_throughput / ref_throughput, 4),
        latency_p99=round(percentiles(stats.latencies).get("p99", 0.0), 6),
        flush_errors=float(plan.fired.get("ingest.flush:error", 0)),
        journal_faults=float(journal_faults),
        faults_fired=float(sum(plan.fired.values())),
    )
    record_result("E19", faulted_throughput, routing_backend="csr",
                  phase=f"{phase_prefix}_faulted_throughput", requests=total)

    # --- durability under faults: recover the chaos journal --------------
    expected = canonical_state(faulted)
    kill(faulted)
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
