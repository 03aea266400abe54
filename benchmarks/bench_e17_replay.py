"""E17 -- micro-batched serving: replaying a synthetic high-volume day.

Every earlier experiment measured the batch pipeline on hand-assembled
bursts; this one measures it as the *serving architecture*.  A synthetic
day of requests (surge/lull arrivals from the bimodal demand profile,
exact-vertex hotspot origins -- :meth:`RequestWorkload.daily`) is replayed
tick by tick against a full :class:`PTRiderService` twice:

* the **sequential arm** answers each released request immediately through
  the per-request ``book_request`` / ``choose`` flow -- the smartphone loop
  every request paid before this PR;
* the **batched arm** admits released requests into the service's
  :class:`~repro.service.ingest.MicroBatcher` and pumps it once per tick,
  so each tick's arrivals are answered by one ``dispatch_batch`` flush
  (pooled start trees, leg trees pooled on demand).

Both arms advance the simulated world identically between ticks, so the
only difference is *how* a tick's arrivals are answered.  Matching
semantics are pinned, not assumed: a third replay drives the same windows
through raw ``dispatch_batch`` calls at the same instants and every
window's outcomes must be byte-identical to the ingest path's (and the
sequential arm must choose exactly the same options request by request).

Throughput is answered requests per wall second spent serving (world
advancement is excluded on both sides); admission-to-answer latency --
simulated queue wait plus the request's share of in-flush wall time -- is
summarised as nearest-rank p50/p95/p99.  The headline assertion is the
tentpole claim: micro-batched serving >= 2x the per-request loop.

Scale knobs: ``PTRIDER_E17_REQUESTS`` (headline replay, default 100k; set
it to a million locally for the full day) and
``PTRIDER_E17_SMOKE_REQUESTS`` (the CI smoke leg, default 4000).
"""

from __future__ import annotations

import os
import random
import time

import pytest

from common import HAVE_SCIPY, percentiles, record_result

from repro.core.config import SystemConfig
from repro.core.dispatcher import OptionPolicy
from repro.roadnet.generators import grid_network
from repro.roadnet.grid_index import GridIndex
from repro.roadnet.routing import make_engine
from repro.service.api import PTRiderService
from repro.sim.workload import RequestWorkload
from repro.vehicles.fleet import Fleet
from repro.vehicles.vehicle import Vehicle

SEED = 17
#: serving-loop cadence: one pump per simulated second
TICK = 1.0
#: mean arrival rate of the replayed day (requests per simulated second)
RATE = 400.0
#: per-request constraints of the day's riders
MAX_WAITING = 8.0
SERVICE_CONSTRAINT = 0.6

#: The headline city: a 50x50 jittered grid with 80 exact-vertex hotspot
#: origins and a deliberately small tree cache.  Each serving window then
#: holds many *distinct* hot starts -- far more than the cache -- which is
#: precisely the regime where per-request serving thrashes cold trees and
#: the batch pipeline's pool (one start plane + leg trees pinned on demand)
#: amortises them.
HEADLINE = dict(rows=50, grid=14, vehicles=40, capacity=2, cache=8,
                max_pickup=3.0, speed=6.0, hotspots=80)
#: The backend-matrix city: smaller -- identity does not need scale.
MATRIX = dict(rows=30, grid=6, vehicles=24, capacity=2, cache=8,
              max_pickup=3.0, speed=6.0, hotspots=48)

HEADLINE_REQUESTS = int(os.environ.get("PTRIDER_E17_REQUESTS", "100000"))
SMOKE_REQUESTS = int(os.environ.get("PTRIDER_E17_SMOKE_REQUESTS", "4000"))
MATRIX_REQUESTS = 2500


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------
def _build_service(city: dict, queue_capacity=None,
                   queue_policy: str = "shed") -> PTRiderService:
    """A fresh service on the city's network; identical per (city, seed)."""
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
    config = SystemConfig(
        vehicle_capacity=city["capacity"],
        max_waiting=MAX_WAITING,
        service_constraint=SERVICE_CONSTRAINT,
        speed=city["speed"],
        max_pickup_distance=city["max_pickup"],
        routing_backend="csr",
        batch_window=TICK,
        # windows must close by time, never by size, so each window is
        # exactly one tick's arrivals and the three replay arms stay
        # aligned window for window
        max_batch_size=65536,
        queue_capacity=queue_capacity,
        queue_policy=queue_policy,
    )
    return PTRiderService(fleet, config=config, seed=SEED)


def _build_workload(city: dict, total: int) -> RequestWorkload:
    """The synthetic day: surge/lull arrivals over hotspot origins."""
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


def _option_key(option):
    return None if option is None else (
        option.vehicle_id, option.pickup_distance, option.price
    )


def _outcome_key(outcome):
    """Byte-identity key of one dispatch outcome (options + committed choice)."""
    return (
        outcome.request.request_id,
        tuple(_option_key(option) for option in outcome.options),
        _option_key(outcome.chosen),
    )


def _booking_key(booking):
    return (
        booking.request.request_id,
        tuple(_option_key(option) for option in booking.options),
        _option_key(booking.chosen),
    )


def _cheapest_index(options) -> int:
    """Index the CHEAPEST policy would choose (price, pickup, id tiebreak)."""
    return min(
        range(len(options)),
        key=lambda i: (options[i].price, options[i].pickup_distance,
                       options[i].vehicle_id),
    )


# ----------------------------------------------------------------------
# replay arms (identical tick loops; only the serving differs)
# ----------------------------------------------------------------------
def _replay_ingest(service: PTRiderService, workload: RequestWorkload):
    """The micro-batched arm: admit due requests, pump once per tick.

    Returns ``(per-window key lists, {request_id: chosen key})``; serving
    wall time accumulates in the batcher's ``serving_seconds``.
    """
    windows, chosen = [], {}
    t = 0.0
    while True:
        t += TICK
        flushed = service.pump(now=t)
        if flushed:
            windows.append([_booking_key(b) for b in flushed])
            for booking in flushed:
                chosen[booking.request.request_id] = _option_key(booking.chosen)
        due = workload.due(t)
        for request in due:
            assert service.ingest_request(request, now=t)  # replay: unbounded
        if not due and not flushed and not workload.remaining:
            assert service.batcher.pending == 0
            break
        service.advance(TICK)
    return windows, chosen


def _replay_direct(service: PTRiderService, workload: RequestWorkload):
    """The reference arm: the same windows through raw ``dispatch_batch``."""
    windows = []
    carry = []
    t = 0.0
    while True:
        t += TICK
        flushed = bool(carry)
        if carry:
            outcomes = service.dispatcher.dispatch_batch(carry, policy=OptionPolicy.CHEAPEST)
            windows.append([_outcome_key(o) for o in outcomes])
        carry = workload.due(t)
        if not carry and not flushed and not workload.remaining:
            break
        service.advance(TICK)
    return windows


def _replay_book(service: PTRiderService, workload: RequestWorkload):
    """The sequential arm: the per-request book/choose (or cancel) loop.

    Requests are answered at the same instants as the batched arm's window
    flushes (one tick after release), so both arms serve identical groups
    against identical fleet states and the measurement isolates *how* each
    group is answered.  Returns ``(serving wall seconds, {request_id:
    chosen key})``.
    """
    serving = 0.0
    chosen = {}
    carry = []
    t = 0.0
    while True:
        t += TICK
        flushed = bool(carry)
        started = time.perf_counter()
        for request in carry:
            booking = service.book_request(request)
            if booking.options:
                option = service.choose(
                    booking.booking_id, _cheapest_index(booking.options)
                )
                chosen[request.request_id] = _option_key(option)
            else:
                service.cancel(booking.booking_id)
                chosen[request.request_id] = None
        serving += time.perf_counter() - started
        carry = workload.due(t)
        if not carry and not flushed and not workload.remaining:
            break
        service.advance(TICK)
    return serving, chosen


def _ingest_extras(stats) -> dict:
    """Record fields shared by every batched-arm row."""
    tail = percentiles(stats.latencies)
    return dict(
        throughput=round(stats.throughput, 1),
        latency_p50=round(tail.get("p50", 0.0), 6),
        latency_p95=round(tail.get("p95", 0.0), 6),
        latency_p99=round(tail.get("p99", 0.0), 6),
        shed=float(stats.shed),
        peak_queue_depth=float(stats.peak_queue_depth),
        mean_window_fill=round(stats.mean_window_fill, 6),
        flushes=float(stats.flushes),
    )


# ----------------------------------------------------------------------
# the CI smoke leg (selected via -k smoke): small replay, full checks
# ----------------------------------------------------------------------
def test_e17_smoke_replay():
    """Identity + throughput + observability on a small day (csr backend)."""
    if not HAVE_SCIPY:
        pytest.skip("the csr backend needs scipy")
    city = HEADLINE
    workload = _build_workload(city, SMOKE_REQUESTS)
    total = len(workload)

    direct_windows = _replay_direct(_build_service(city), workload)

    workload.reset()
    sequential_seconds, book_chosen = _replay_book(_build_service(city), workload)
    sequential_throughput = total / sequential_seconds
    record_result(
        "E17", sequential_seconds, routing_backend="csr",
        phase="smoke_serve_sequential", requests=total,
        throughput=round(sequential_throughput, 1),
    )

    workload.reset()
    service = _build_service(city)
    windows, chosen = _replay_ingest(service, workload)
    stats = service.batcher.statistics

    # Byte-identity: every window's outcomes are exactly what raw
    # dispatch_batch answers for the same requests at the same instant,
    # and the per-request book loop chose exactly the same options.
    assert windows == direct_windows
    assert chosen == book_chosen

    # Conservation: nothing admitted is lost, nothing was shed.
    assert stats.admitted == total == stats.answered
    assert stats.shed == 0 and service.batcher.pending == 0

    # Observability: the serving path surfaces through the admin panel.
    panel = service.routing_statistics()
    for key in ("ingest_throughput", "ingest_latency_p95", "ingest_shed",
                "ingest_queue_depth", "ingest_mean_window_fill"):
        assert key in panel, f"missing {key} in routing_statistics()"
    assert panel["ingest_answered"] == float(total)

    record_result(
        "E17", stats.serving_seconds, routing_backend="csr",
        phase="smoke_serve_batched", requests=total,
        speedup_vs_sequential=round(sequential_seconds / stats.serving_seconds, 2),
        **_ingest_extras(stats),
    )
    # dedicated trend rows: throughput is gated as a rate (higher is
    # better, --rate-phases), the latency tail as a plain wall
    record_result("E17", stats.throughput, routing_backend="csr",
                  phase="smoke_throughput", requests=total)
    record_result("E17", percentiles(stats.latencies)["p95"],
                  routing_backend="csr", phase="smoke_latency_p95",
                  requests=total)


def test_e17_smoke_backpressure_is_bounded():
    """A surge beyond ``queue_capacity`` sheds -- visibly, never unboundedly."""
    if not HAVE_SCIPY:
        pytest.skip("the csr backend needs scipy")
    capacity = 50
    service = _build_service(MATRIX, queue_capacity=capacity, queue_policy="shed")
    workload = _build_workload(MATRIX, 120)
    admitted = 0
    for request in list(workload):
        admitted += 1 if service.ingest_request(request, now=1.0) else 0
        assert service.batcher.pending <= capacity
    stats = service.batcher.statistics
    assert admitted == capacity
    assert stats.shed == len(workload) - capacity
    assert service.routing_statistics()["ingest_shed"] == float(stats.shed)
    started = time.perf_counter()
    answered = service.drain(now=2.0)
    wall = time.perf_counter() - started
    assert len(answered) == capacity and service.batcher.pending == 0
    record_result(
        "E17", wall, routing_backend="csr", phase="smoke_backpressure",
        requests=float(len(workload)), shed=float(stats.shed),
        peak_queue_depth=float(stats.peak_queue_depth),
        queue_capacity=float(capacity),
    )


# ----------------------------------------------------------------------
# the backend matrix: csr, the one backend that answers queries
# ----------------------------------------------------------------------
def test_e17_backend_matrix():
    """Ingest serving is byte-identical to dispatch_batch on the csr backend."""
    if not HAVE_SCIPY:
        pytest.skip("the csr backend needs scipy")
    workload = _build_workload(MATRIX, MATRIX_REQUESTS)
    total = len(workload)
    direct_windows = _replay_direct(_build_service(MATRIX), workload)
    workload.reset()
    service = _build_service(MATRIX)
    windows, _ = _replay_ingest(service, workload)
    assert windows == direct_windows, "csr diverged from dispatch_batch"
    stats = service.batcher.statistics
    assert stats.answered == total and service.batcher.pending == 0
    record_result(
        "E17", stats.serving_seconds, routing_backend="csr",
        phase="matrix_serve_batched", requests=total,
        **_ingest_extras(stats),
    )


# ----------------------------------------------------------------------
# the headline: a >=100k-request day, batched vs sequential serving
# ----------------------------------------------------------------------
def test_e17_headline_throughput():
    """The tentpole claim: micro-batched serving >= 2x the book loop."""
    if not HAVE_SCIPY:
        pytest.skip("the csr backend needs scipy")
    city = HEADLINE
    workload = _build_workload(city, HEADLINE_REQUESTS)
    total = len(workload)

    direct_windows = _replay_direct(_build_service(city), workload)

    workload.reset()
    service = _build_service(city)
    windows, ingest_chosen = _replay_ingest(service, workload)
    assert windows == direct_windows
    stats = service.batcher.statistics
    assert stats.admitted == total == stats.answered and stats.shed == 0

    workload.reset()
    sequential_seconds, book_chosen = _replay_book(_build_service(city), workload)
    assert ingest_chosen == book_chosen

    sequential_throughput = total / sequential_seconds
    batched_throughput = stats.throughput
    tail = percentiles(stats.latencies)
    record_result(
        "E17", sequential_seconds, routing_backend="csr",
        phase="serve_sequential", requests=total,
        throughput=round(sequential_throughput, 1),
    )
    record_result(
        "E17", stats.serving_seconds, routing_backend="csr",
        phase="serve_batched", requests=total,
        speedup_vs_sequential=round(sequential_seconds / stats.serving_seconds, 2),
        **_ingest_extras(stats),
    )
    record_result("E17", batched_throughput, routing_backend="csr",
                  phase="throughput", requests=total)
    record_result("E17", tail["p95"], routing_backend="csr",
                  phase="latency_p95", requests=total)

    assert batched_throughput >= 2.0 * sequential_throughput, (
        f"micro-batched serving ({batched_throughput:.0f} req/s) should be "
        f">=2x the per-request book loop ({sequential_throughput:.0f} req/s); "
        f"got {batched_throughput / sequential_throughput:.2f}x"
    )


def test_e17_summary_table(capsys):
    """Print the serving comparison at smoke scale (run with -s to see it)."""
    from common import format_table

    if not HAVE_SCIPY:
        pytest.skip("the csr backend needs scipy")
    workload = _build_workload(HEADLINE, SMOKE_REQUESTS)
    total = len(workload)
    sequential_seconds, _ = _replay_book(_build_service(HEADLINE), workload)
    workload.reset()
    service = _build_service(HEADLINE)
    _replay_ingest(service, workload)
    stats = service.batcher.statistics
    tail = percentiles(stats.latencies)
    rows = [
        ("book loop", f"{sequential_seconds:.2f}",
         f"{total / sequential_seconds:.0f}", "-", "-"),
        ("micro-batched", f"{stats.serving_seconds:.2f}",
         f"{stats.throughput:.0f}", f"{tail['p50']:.3f}", f"{tail['p95']:.3f}"),
    ]
    table = format_table(
        ("serving path", "serve [s]", "req/s", "lat p50 [s]", "lat p95 [s]"), rows
    )
    print(f"\nE17 -- micro-batched serving ({total} requests, csr)\n" + table)
