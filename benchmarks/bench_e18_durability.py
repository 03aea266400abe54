"""E18 -- durability: journal overhead and snapshot+replay recovery walls.

The durability subsystem (:mod:`repro.service.journal`,
:mod:`repro.service.recovery`) must be cheap enough to leave on in
production and fast enough to restart from after a crash.  Two questions,
two measurement families:

* **Journal overhead** -- the E17 surge/lull day (bimodal arrivals over
  hotspot origins, answered through the micro-batched ingest path) is
  replayed on a plain in-memory service and again with the SQLite
  write-ahead journal recording every admission, pump and flush outcome.
  Serving wall time -- admissions plus window flushes, world advancement
  excluded on both arms -- is compared; the headline claim is that the
  journaled arm stays within 10% of the throughput of the in-memory arm.
  A third arm adds the snapshot cadence (a delta every
  ``snapshot_interval`` records, compacted into a full snapshot between
  windows), whose cost is recorded (unasserted) as the price of that
  knob.
* **Recovery wall** -- journals holding 10k- and 100k-event tails are
  recovered end to end (snapshot restore + sequence-ordered replay), the
  wall clocked, and the recovered state asserted ``==`` (canonical state)
  to the pre-crash service.  Plain-journal mode keeps only the baseline
  snapshot, so these replays exercise the full tail.

The smoke legs (selected in CI via ``-k smoke``) run the same checks at a
small scale -- including a crash + recover + resume round trip asserting
state equality -- and record trend rows: the durable serving throughput
gates as a rate (``--rate-phases``), the recovery wall as a normal phase.

Scale knobs: ``PTRIDER_E18_REQUESTS`` (headline replay, default 20k),
``PTRIDER_E18_SMOKE_REQUESTS`` (CI smoke, default 1500) and
``PTRIDER_E18_TAILS`` (comma-separated recovery tail sizes, default
``10000,100000``).
"""

from __future__ import annotations

import os
import random
import time

import pytest

from common import HAVE_SCIPY, record_result

from repro.core.config import SystemConfig
from repro.roadnet.generators import grid_network
from repro.roadnet.grid_index import GridIndex
from repro.roadnet.routing import make_engine
from repro.service.api import PTRiderService
from repro.service.recovery import canonical_state
from repro.sim.workload import RequestWorkload
from repro.vehicles.fleet import Fleet
from repro.vehicles.vehicle import Vehicle

from tests.crash import kill

SEED = 18
TICK = 1.0
RATE = 400.0
MAX_WAITING = 8.0
SERVICE_CONSTRAINT = 0.6

#: The replay city (E17's backend-matrix shape: large enough for real
#: dispatch work per window, small enough that two arms + a recovery fit
#: a CI smoke budget).
CITY = dict(rows=30, grid=6, vehicles=24, capacity=2, cache=8,
            max_pickup=3.0, speed=6.0, hotspots=48)
#: The recovery-scaling city: tiny, so a 100k-event tail measures the
#: replay machinery (record decode, sequence ordering, re-execution
#: bookkeeping), not the routing engine.
TAIL_CITY = dict(rows=8, grid=4, vehicles=3, capacity=2, cache=8,
                 max_pickup=6.0, speed=6.0, hotspots=8)

HEADLINE_REQUESTS = int(os.environ.get("PTRIDER_E18_REQUESTS", "20000"))
SMOKE_REQUESTS = int(os.environ.get("PTRIDER_E18_SMOKE_REQUESTS", "1500"))
TAILS = tuple(
    int(part)
    for part in os.environ.get("PTRIDER_E18_TAILS", "10000,100000").split(",")
    if part.strip()
)
SMOKE_TAIL = 2000


def _build_service(city: dict, journal_dir=None, mode="journal+snapshot",
                   snapshot_interval=1000) -> PTRiderService:
    network = grid_network(city["rows"], city["rows"], weight_jitter=0.3, seed=SEED)
    grid = GridIndex(network, rows=city["grid"], columns=city["grid"])
    engine = make_engine(network, "csr", max_cached_sources=city["cache"])
    fleet = Fleet(grid, engine)
    rng = random.Random(SEED)
    vertices = network.vertices()
    for index in range(city["vehicles"]):
        fleet.add_vehicle(
            Vehicle(f"c{index + 1}", location=rng.choice(vertices),
                    capacity=city["capacity"])
        )
    durability = {}
    if journal_dir is not None:
        durability = dict(
            durability=mode,
            journal_path=str(journal_dir),
            snapshot_interval=snapshot_interval,
        )
    config = SystemConfig(
        vehicle_capacity=city["capacity"],
        max_waiting=MAX_WAITING,
        service_constraint=SERVICE_CONSTRAINT,
        speed=city["speed"],
        max_pickup_distance=city["max_pickup"],
        routing_backend="csr",
        batch_window=TICK,
        max_batch_size=65536,
        **durability,
    )
    return PTRiderService(fleet, config=config, seed=SEED)


def _build_workload(city: dict, total: int) -> RequestWorkload:
    network = grid_network(city["rows"], city["rows"], weight_jitter=0.3, seed=SEED)
    return RequestWorkload.daily(
        network,
        total=total,
        duration=total / RATE,
        max_waiting=MAX_WAITING,
        service_constraint=SERVICE_CONSTRAINT,
        hotspot_count=city["hotspots"],
        hotspot_bias=1.0,
        seed=SEED,
    )


def _replay_day(service: PTRiderService, workload: RequestWorkload) -> float:
    """Replay the day through the ingest path; returns serving wall seconds.

    Serving = admissions + window flushes (both of which the durable arm
    journals); world advancement is excluded on both arms, exactly as E17
    measures its serving walls.
    """
    serving = 0.0
    t = 0.0
    while True:
        t += TICK
        started = time.perf_counter()
        flushed = service.pump(now=t)
        serving += time.perf_counter() - started
        due = workload.due(t)
        started = time.perf_counter()
        for request in due:
            assert service.ingest_request(request, now=t)
        serving += time.perf_counter() - started
        if not due and not flushed and not workload.remaining:
            assert service.batcher.pending == 0
            break
        service.advance(TICK)
    return serving


def _journal_with_tail(journal_dir, events: int) -> PTRiderService:
    """A durable service whose journal holds ``events`` command records.

    Plain-journal mode (baseline snapshot only), so recovering it replays
    the full tail.  The mix -- mostly sim-tick advances, with an
    admission+pump pair every 50 events -- keeps per-event cost flat and
    the state non-trivial (live vehicles, bookings, ingest counters).
    """
    service = _build_service(TAIL_CITY, journal_dir, mode="journal")
    vertices = service.fleet.grid.network.vertices()
    emitted = 0
    index = 0
    while emitted < events:
        if emitted % 50 == 48 and events - emitted >= 2:
            index += 1
            origin = vertices[(index * 13) % len(vertices)]
            destination = vertices[(index * 13 + 7) % len(vertices)]
            if destination == origin:
                destination = vertices[(index * 13 + 8) % len(vertices)]
            from repro.model.request import Request

            service.ingest_request(Request(
                start=origin, destination=destination, riders=1,
                max_waiting=MAX_WAITING,
                service_constraint=SERVICE_CONSTRAINT,
                request_id=f"T{index}", submit_time=service.current_time,
            ))
            service.pump(now=service.current_time + TICK)
            emitted += 2
        else:
            service.advance(0.25)
            emitted += 1
    return service


def _measure_recovery(journal_dir, events: int, phase: str) -> float:
    """Build an ``events``-record journal, crash, recover, clock the wall."""
    service = _journal_with_tail(journal_dir, events)
    expected = canonical_state(service)
    tail_records = service.journal.last_seq()
    kill(service)  # crash
    del service

    started = time.perf_counter()
    recovered = PTRiderService.recover(journal_dir)
    wall = time.perf_counter() - started
    assert canonical_state(recovered) == expected, (
        f"{events}-event recovery did not reproduce the pre-crash state"
    )
    record_result(
        "E18", wall, routing_backend="csr", phase=phase,
        events=float(events), journal_seq=float(tail_records),
        events_per_second=round(events / wall, 1),
    )
    return wall


# ----------------------------------------------------------------------
# the CI smoke legs (selected via -k smoke): small scale, full checks
# ----------------------------------------------------------------------
def test_e18_smoke_overhead_and_crash_round_trip(tmp_path):
    """Durable serving at smoke scale + a crash/recover/resume round trip."""
    if not HAVE_SCIPY:
        pytest.skip("the csr backend needs scipy")
    workload = _build_workload(CITY, SMOKE_REQUESTS)
    total = len(workload)

    plain_serving = _replay_day(_build_service(CITY), workload)
    record_result(
        "E18", plain_serving, routing_backend="csr", phase="smoke_serve_off",
        requests=total, throughput=round(total / plain_serving, 1),
    )

    workload.reset()
    journal_dir = tmp_path / "journal"
    durable = _build_service(CITY, journal_dir, snapshot_interval=2000)
    durable_serving = _replay_day(durable, workload)
    stats = durable.batcher.statistics
    assert stats.answered == total and durable.batcher.pending == 0
    durable_throughput = total / durable_serving
    record_result(
        "E18", durable_serving, routing_backend="csr",
        phase="smoke_serve_durable", requests=total,
        throughput=round(durable_throughput, 1),
        journal_seq=float(durable.journal.last_seq()),
        overhead_vs_off=round(durable_serving / plain_serving - 1.0, 4),
    )
    record_result("E18", durable_throughput, routing_backend="csr",
                  phase="smoke_durable_throughput", requests=total)
    # the 10% bound is the headline's; at smoke scale the two walls are
    # ~0.1 s, where one stall decides a ratio, so ``overhead_vs_off`` is
    # recorded and ``smoke_durable_throughput`` trend-gated, not asserted

    # crash, recover, verify, resume: the recovered service equals the
    # pre-crash one and keeps serving (and journaling) afterwards
    expected = canonical_state(durable)
    kill(durable)
    started = time.perf_counter()
    recovered = PTRiderService.recover(journal_dir)
    recovery_wall = time.perf_counter() - started
    assert canonical_state(recovered) == expected
    record_result(
        "E18", recovery_wall, routing_backend="csr", phase="smoke_recovery",
        journal_seq=float(recovered.journal.last_seq()),
    )
    seq_before = recovered.journal.last_seq()
    recovered.advance(TICK)
    assert recovered.journal.last_seq() > seq_before  # recording resumed


def test_e18_smoke_recovery_tail(tmp_path):
    """Recovery wall of a small synthetic tail (the trend-gated phase)."""
    if not HAVE_SCIPY:
        pytest.skip("the csr backend needs scipy")
    _measure_recovery(tmp_path / "journal", SMOKE_TAIL, "smoke_recovery_tail")


# ----------------------------------------------------------------------
# the headline: surge/lull day overhead + recovery scaling (local-only)
# ----------------------------------------------------------------------
def test_e18_headline_overhead(tmp_path):
    """The tentpole bound: journaled serving within 10% of in-memory.

    Three arms: durability off, plain ``journal`` (every admission, pump
    and flush outcome written ahead -- the 10% bound binds here), and
    ``journal+snapshot`` with a 5000-record cadence.  The snapshot arm is
    recorded but unasserted: a delta serialises what the interval dirtied
    on the serving path, and each compaction the *whole* accumulated state
    between windows, so ``snapshot_interval`` is the knob trading that
    overhead against the recovery tail the ``recovery_tail_*`` phases
    clock.
    """
    if not HAVE_SCIPY:
        pytest.skip("the csr backend needs scipy")
    workload = _build_workload(CITY, HEADLINE_REQUESTS)
    total = len(workload)

    plain_serving = _replay_day(_build_service(CITY), workload)
    plain_throughput = total / plain_serving
    record_result(
        "E18", plain_serving, routing_backend="csr", phase="serve_off",
        requests=total, throughput=round(plain_throughput, 1),
    )

    workload.reset()
    durable = _build_service(CITY, tmp_path / "journal", mode="journal")
    durable_serving = _replay_day(durable, workload)
    stats = durable.batcher.statistics
    assert stats.answered == total
    durable_throughput = total / durable_serving
    record_result(
        "E18", durable_serving, routing_backend="csr", phase="serve_durable",
        requests=total, throughput=round(durable_throughput, 1),
        journal_seq=float(durable.journal.last_seq()),
        overhead_vs_off=round(durable_serving / plain_serving - 1.0, 4),
    )
    record_result("E18", durable_throughput, routing_backend="csr",
                  phase="durable_throughput", requests=total)

    workload.reset()
    snapshotting = _build_service(CITY, tmp_path / "journal-snap",
                                  snapshot_interval=5000)
    snapshot_serving = _replay_day(snapshotting, workload)
    assert snapshotting.batcher.statistics.answered == total
    record_result(
        "E18", snapshot_serving, routing_backend="csr",
        phase="serve_durable_snapshots", requests=total,
        throughput=round(total / snapshot_serving, 1),
        snapshots=float(len(snapshotting.journal.snapshot_files())
                        + len(snapshotting.journal.delta_files())),
        overhead_vs_off=round(snapshot_serving / plain_serving - 1.0, 4),
    )

    assert durable_throughput >= 0.90 * plain_throughput, (
        f"journaled serving ({durable_throughput:.0f} req/s) fell more than "
        f"10% below in-memory serving ({plain_throughput:.0f} req/s)"
    )


@pytest.mark.parametrize("events", TAILS)
def test_e18_recovery_scaling(tmp_path, events):
    """Recovery wall at 10k/100k-event tails; state-equal every time."""
    if not HAVE_SCIPY:
        pytest.skip("the csr backend needs scipy")
    _measure_recovery(tmp_path / "journal", events, f"recovery_tail_{events}")
