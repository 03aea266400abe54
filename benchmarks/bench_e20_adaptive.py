"""E20 -- adaptive windows + incremental snapshots on the surge/lull day.

Two serving-path mechanisms are measured on one day: the adaptive window
controller, which should keep the micro-batched pipeline's throughput while
cutting tail latency, and the delta snapshot cadence, which keeps
durability on without paying full-state serialisation inside serving
windows.

* **Adaptive vs fixed windows** -- the E17 surge/lull day (bimodal
  arrivals over hotspot origins) is replayed through four *durable*
  services: three fixed ``batch_window`` arms and one adaptive arm.  Every
  arm pays the same snapshot cadence (dirty-partition deltas on the hot
  path, compaction deferred to gaps between windows), so the comparison
  isolates the window policy.  Serving wall = admissions + pumps, world
  advancement excluded, exactly as E18 measures durable serving.  The headline assertions: the adaptive arm beats the
  best fixed arm on lull p99 and stays within 1.5x of it on surge p99
  (surge seconds and lull seconds split by the day's mean arrival rate);
  its throughput relative to that arm is recorded, not asserted.
* **Byte-identity under the controller** -- window sizing must change
  *when* windows close, never *what* a window answers.  An adaptive
  service with an injected deterministic wall clock records its window
  trajectory and per-window outcomes; replaying the same windows at the
  same instants through raw ``dispatch_batch`` must reproduce every
  outcome byte for byte (E17's identity contract, now under resizing),
  and a second run under the same injected clock must reproduce the
  trajectory exactly.
* **Incremental snapshots off the hot path** -- the same adaptive day is
  run under an injected clock.  Both recovery paths (the delta chain
  folded over the newest compaction, and full-journal replay from the
  baseline) must reproduce the live canonical state, and the mean
  hot-path stall of a delta must be under 10% of the mean stall of a
  compaction, the full serialisation the chain defers to gaps between
  windows.

Scale knobs: ``PTRIDER_E20_REQUESTS`` (headline replay, default 24k) and
``PTRIDER_E20_SMOKE_REQUESTS`` (the CI smoke leg, default 6000).
"""

from __future__ import annotations

import math
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
from repro.service.recovery import canonical_state
from repro.sim.workload import RequestWorkload
from repro.vehicles.fleet import Fleet
from repro.vehicles.vehicle import Vehicle

SEED = 20
#: serving-loop cadence: four pumps per simulated second, so fractional
#: windows (the controller's whole reason to exist) actually differ from
#: whole-tick windows
SUBTICK = 0.25
#: mean arrival rate of the replayed day (requests per simulated second);
#: high enough that window sizing moves real money -- each window holds
#: hundreds of requests and the per-flush fixed cost (fleet leg prefetch)
#: is worth amortising
RATE = 600.0
MAX_WAITING = 8.0
SERVICE_CONSTRAINT = 0.6

#: E17's headline city: 50x50 jittered grid, 80 exact-vertex hotspots, a
#: deliberately small tree LRU -- the regime where window size trades
#: per-flush amortisation against queue wait.
CITY = dict(rows=50, grid=14, vehicles=40, capacity=2, cache=8,
            max_pickup=3.0, speed=6.0, hotspots=80)

#: the fixed-window sweep the adaptive arm is compared with
FIXED_WINDOWS = (0.5, 1.0, 2.0)
ADAPTIVE_START = 0.5
ADAPTIVE_MIN = 0.125
ADAPTIVE_MAX = 4.0
#: journal records between snapshot points in the serving comparison --
#: dozens of cadence crossings per replay, so every arm pays the snapshot
#: bill many times inside measured serving
SNAPSHOT_EVERY = 250

HEADLINE_REQUESTS = int(os.environ.get("PTRIDER_E20_REQUESTS", "24000"))
SMOKE_REQUESTS = int(os.environ.get("PTRIDER_E20_SMOKE_REQUESTS", "6000"))
IDENTITY_REQUESTS = 2500
PAIR_REQUESTS = 6000
#: tighter cadence for the delta-vs-compaction stall leg, so the dirty set
#: per delta stays a small fraction of total state (the <10% stall claim is
#: about exactly that ratio: change-per-interval over state-for-the-day)
PAIR_SNAPSHOT_EVERY = 50


class _FakeWall:
    """Deterministic wall clock: each reading advances by a fixed step.

    Injected through ``PTRiderService(wall_clock=...)`` it makes the
    adaptive controller's diet -- flush walls -- a pure function of the
    command stream, so window trajectories replay byte-identically.
    """

    def __init__(self, step: float = 0.001) -> None:
        self._now = 0.0
        self._step = step

    def __call__(self) -> float:
        self._now += self._step
        return self._now


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------
def _build_service(*, window_mode="fixed", batch_window=1.0, window_min=None,
                   window_max=None, journal_dir=None,
                   snapshot_interval=SNAPSHOT_EVERY, wall_clock=None,
                   city=CITY) -> PTRiderService:
    """A fresh durable-or-not service on the E20 city; identical per seed."""
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
            durability="journal+snapshot",
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
        batch_window=batch_window,
        # windows close by time only, so every arm's windows are exactly
        # what its window policy dictates
        max_batch_size=65536,
        batch_window_mode=window_mode,
        batch_window_min=window_min,
        batch_window_max=window_max,
        **durability,
    )
    return PTRiderService(fleet, config=config, seed=SEED, wall_clock=wall_clock)


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


def _phase_map(workload: RequestWorkload, total: int):
    """Per-second surge/lull labels: surge = arrivals at or above the mean.

    The daily profile is bimodal, so this splits the day into the two
    rush-hour plateaus versus everything else -- the two regimes a fixed
    window must compromise between.
    """
    duration = total / RATE
    bins = int(math.ceil(duration)) + 1
    counts = [0] * bins
    for request in list(workload):
        counts[min(int(request.submit_time), bins - 1)] += 1
    mean = total / duration
    return [count >= mean for count in counts]


def _option_key(option):
    return None if option is None else (
        option.vehicle_id, option.pickup_distance, option.price
    )


def _outcome_key(outcome):
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


# ----------------------------------------------------------------------
# replay loops
# ----------------------------------------------------------------------
def _replay_timed(service: PTRiderService, workload: RequestWorkload, surge):
    """Replay the day; returns (serving wall, surge latencies, lull latencies).

    Serving wall = admissions + pumps (the commands a durable service
    journals and writes snapshot deltas inside); world
    advancement is excluded, exactly as E17/E18 measure serving.  Each
    flush's latencies are attributed to the arrival phase of the second
    it flushed in.
    """
    serving = 0.0
    surge_lat, lull_lat = [], []
    latencies = service.batcher.statistics.latencies
    seen = 0
    t = 0.0
    while True:
        t += SUBTICK
        started = time.perf_counter()
        flushed = service.pump(now=t)
        serving += time.perf_counter() - started
        if len(latencies) > seen:
            second = min(int(t), len(surge) - 1)
            bucket = surge_lat if surge[second] else lull_lat
            bucket.extend(latencies[seen:])
            seen = len(latencies)
        due = workload.due(t)
        started = time.perf_counter()
        for request in due:
            assert service.ingest_request(request, now=t)  # replay: unbounded
        serving += time.perf_counter() - started
        if (not due and not flushed and not workload.remaining
                and service.batcher.pending == 0):
            break
        service.advance(SUBTICK)
    return serving, surge_lat, lull_lat


def _replay_recorded(service: PTRiderService, workload: RequestWorkload):
    """Adaptive arm for the identity leg: record windows and the trajectory.

    Subticks are integer-indexed (``t = k * SUBTICK``) so the mirror arm
    can align on exact keys instead of float instants.
    """
    windows, flush_ticks, trajectory = [], [], []
    k = 0
    while True:
        k += 1
        t = k * SUBTICK
        flushed = service.pump(now=t)
        if flushed:
            windows.append([_booking_key(b) for b in flushed])
            flush_ticks.append(k)
        trajectory.append(service.batcher.current_window)
        due = workload.due(t)
        for request in due:
            assert service.ingest_request(request, now=t)
        if (not due and not flushed and not workload.remaining
                and service.batcher.pending == 0):
            break
        service.advance(SUBTICK)
    return windows, flush_ticks, trajectory


def _replay_direct_at(service: PTRiderService, workload: RequestWorkload,
                      flush_ticks):
    """The mirror arm: raw ``dispatch_batch`` at the recorded instants."""
    flush_at = set(flush_ticks)
    last = max(flush_ticks)
    windows, carry = [], []
    k = 0
    while True:
        k += 1
        t = k * SUBTICK
        if k in flush_at:
            outcomes = service.dispatcher.dispatch_batch(carry, policy=OptionPolicy.CHEAPEST)
            windows.append([_outcome_key(o) for o in outcomes])
            carry = []
        carry.extend(workload.due(t))
        if k >= last and not carry and not workload.remaining:
            break
        service.advance(SUBTICK)
    return windows


def _snapshot_panel(service: PTRiderService) -> dict:
    """The admin panel's persistence-cost attribution, keyed without prefix."""
    panel = service.routing_statistics()
    return {
        key[len("snapshot_"):]: value
        for key, value in panel.items()
        if key.startswith("snapshot_")
    }


def _run_arm(tmp_path, label: str, workload: RequestWorkload, surge,
             total: int, *, window_mode: str, batch_window: float,
             window_min=None, window_max=None) -> dict:
    """One durable serving arm of the adaptive-vs-fixed comparison."""
    workload.reset()
    service = _build_service(
        window_mode=window_mode, batch_window=batch_window,
        window_min=window_min, window_max=window_max,
        journal_dir=tmp_path / label,
    )
    try:
        serving, surge_lat, lull_lat = _replay_timed(service, workload, surge)
        stats = service.batcher.statistics
        # Conservation: the arm answered the whole day, shed nothing.
        assert stats.admitted == total == stats.answered
        assert stats.shed == 0 and service.batcher.pending == 0
        return dict(
            label=label,
            window=batch_window,
            serving=serving,
            throughput=total / serving,
            p99=percentiles(stats.latencies).get("p99", 0.0),
            surge_p99=percentiles(surge_lat).get("p99", 0.0),
            lull_p99=percentiles(lull_lat).get("p99", 0.0),
            surge_count=len(surge_lat),
            lull_count=len(lull_lat),
            flushes=stats.flushes,
            grown=stats.window_grown,
            shrunk=stats.window_shrunk,
            final_window=service.batcher.current_window,
            snapshots=_snapshot_panel(service),
        )
    finally:
        service.close()


def _arm_extras(arm: dict) -> dict:
    """Record fields shared by every serving-arm row."""
    snapshots = arm["snapshots"]
    return dict(
        throughput=round(arm["throughput"], 1),
        latency_p99=round(arm["p99"], 6),
        surge_p99=round(arm["surge_p99"], 6),
        lull_p99=round(arm["lull_p99"], 6),
        flushes=float(arm["flushes"]),
        snapshot_full_count=snapshots["full_count"],
        snapshot_delta_count=snapshots["delta_count"],
        snapshot_full_seconds=round(snapshots["full_seconds"], 6),
        snapshot_delta_seconds=round(snapshots["delta_seconds"], 6),
    )


def _compare_arms(tmp_path, total: int, prefix: str) -> None:
    """The adaptive-vs-fixed serving comparison at ``total`` requests."""
    workload = _build_workload(total)
    total = len(workload)
    surge = _phase_map(workload, total)

    fixed_arms = [
        _run_arm(
            tmp_path, f"fixed-{window}", workload, surge, total,
            window_mode="fixed", batch_window=window,
        )
        for window in FIXED_WINDOWS
    ]
    adaptive = _run_arm(
        tmp_path, "adaptive", workload, surge, total,
        window_mode="adaptive", batch_window=ADAPTIVE_START,
        window_min=ADAPTIVE_MIN, window_max=ADAPTIVE_MAX,
    )
    best = max(fixed_arms, key=lambda arm: arm["throughput"])

    # Every phase produced enough answers for a meaningful p99.
    assert adaptive["surge_count"] >= 100 and adaptive["lull_count"] >= 100
    # The controller actually steered (this day's regimes differ enough
    # that a fixed starting window cannot be optimal everywhere).
    assert adaptive["grown"] + adaptive["shrunk"] > 0
    # Durability bookkeeping worked as configured: every arm paid deltas
    # on the hot path (plus at least one deferred compaction between
    # windows).
    for arm in (*fixed_arms, adaptive):
        assert arm["snapshots"]["delta_count"] >= 10, arm["label"]
        assert arm["snapshots"]["full_count"] >= 1, arm["label"]

    # p99 strictly beaten in the lull, bounded in the surge.  The lull is
    # the structural win (the controller shrinks the window when flushes are
    # cheap, so answers stop waiting out a surge-sized window); during the
    # surge the controller deliberately grows the window to amortise flush
    # cost, so surge p99 is only bounded, not required to win.  Throughput
    # against the best fixed arm is recorded (``speedup_vs_best_fixed``),
    # not asserted: one run per arm cannot carry a timing inequality, and
    # whether growing the window still buys throughput is ROADMAP item 2's
    # paired-replay measurement, still owed.
    assert adaptive["lull_p99"] < best["lull_p99"], (
        f"lull p99 {adaptive['lull_p99']:.3f} not under "
        f"fixed-{best['window']}'s {best['lull_p99']:.3f}"
    )
    assert adaptive["surge_p99"] < 1.5 * best["surge_p99"], (
        f"surge p99 {adaptive['surge_p99']:.3f} blew past "
        f"fixed-{best['window']}'s {best['surge_p99']:.3f}"
    )

    for arm in fixed_arms:
        record_result(
            "E20", arm["serving"], routing_backend="csr",
            phase=f"{prefix}_serve_fixed", window=arm["window"],
            requests=total, **_arm_extras(arm),
        )
    record_result(
        "E20", adaptive["serving"], routing_backend="csr",
        phase=f"{prefix}_serve_adaptive", requests=total,
        window_min=ADAPTIVE_MIN, window_max=ADAPTIVE_MAX,
        window_grown=float(adaptive["grown"]),
        window_shrunk=float(adaptive["shrunk"]),
        final_window=round(adaptive["final_window"], 6),
        speedup_vs_best_fixed=round(
            adaptive["throughput"] / best["throughput"], 3
        ),
        **_arm_extras(adaptive),
    )
    # The trend row: adaptive serving throughput gates as a rate.
    record_result(
        "E20", adaptive["throughput"], routing_backend="csr",
        phase=f"{prefix}_adaptive_throughput", requests=total,
    )


# ----------------------------------------------------------------------
# the CI smoke legs (selected via -k smoke)
# ----------------------------------------------------------------------
def test_e20_smoke_adaptive_vs_fixed(tmp_path):
    """Adaptive wins the lull p99 of the best fixed window, bounds the surge's."""
    if not HAVE_SCIPY:
        pytest.skip("the csr backend needs scipy")
    _compare_arms(tmp_path, SMOKE_REQUESTS, "smoke")


def test_e20_smoke_window_identity():
    """Resizing changes when windows close, never what a window answers."""
    if not HAVE_SCIPY:
        pytest.skip("the csr backend needs scipy")
    workload = _build_workload(IDENTITY_REQUESTS)
    total = len(workload)

    runs = []
    replay_wall = 0.0
    for attempt in range(2):
        workload.reset()
        service = _build_service(
            window_mode="adaptive", batch_window=ADAPTIVE_START,
            window_min=0.25, window_max=2.0, wall_clock=_FakeWall(0.004),
        )
        started = time.perf_counter()
        windows, flush_ticks, trajectory = _replay_recorded(service, workload)
        replay_wall = time.perf_counter() - started
        stats = service.batcher.statistics
        assert stats.answered == total and service.batcher.pending == 0
        runs.append((windows, flush_ticks, trajectory,
                     stats.window_grown, stats.window_shrunk))

    # Determinism: under an injected wall clock the whole run -- window
    # contents, flush instants, controller trajectory -- replays exactly.
    assert runs[0] == runs[1]
    windows, flush_ticks, trajectory, grown, shrunk = runs[0]
    # The trajectory moved: this leg exercises resizing, not a fixed pin.
    assert grown + shrunk > 0 and len(set(trajectory)) > 1

    # Byte-identity: the same windows at the same instants through raw
    # dispatch_batch answer byte-for-byte the same.
    workload.reset()
    mirror = _build_service()
    direct = _replay_direct_at(mirror, workload, flush_ticks)
    assert windows == direct

    record_result(
        "E20", replay_wall, routing_backend="csr",
        phase="smoke_window_identity",
        requests=total, windows=float(len(windows)),
        window_grown=float(grown), window_shrunk=float(shrunk),
        distinct_windows=float(len(set(trajectory))),
    )


def test_e20_smoke_incremental_off_hot_path(tmp_path):
    """A delta's hot-path stall is under 10% of a compaction's.

    One durable adaptive day under an injected wall clock: the cadence
    writes a delta at every crossing and compacts the chain into a full
    snapshot between windows.  State equality across both recovery paths
    pins that the deltas lose nothing; the stall ratio pins that they cost
    almost nothing where it hurts.
    """
    if not HAVE_SCIPY:
        pytest.skip("the csr backend needs scipy")
    workload = _build_workload(PAIR_REQUESTS)
    total = len(workload)
    surge = _phase_map(workload, total)

    service = _build_service(
        window_mode="adaptive", batch_window=ADAPTIVE_START,
        window_min=ADAPTIVE_MIN, window_max=ADAPTIVE_MAX,
        journal_dir=tmp_path / "journal",
        snapshot_interval=PAIR_SNAPSHOT_EVERY, wall_clock=_FakeWall(),
    )
    serving, _, _ = _replay_timed(service, workload, surge)
    stats = service.batcher.statistics
    assert stats.answered == total and service.batcher.pending == 0
    reference = canonical_state(service)
    snapshots = _snapshot_panel(service)
    journal_dir = service.journal.directory
    service.close()

    # Both recovery paths reproduce the live state: the delta chain folded
    # over the newest compaction, and full-journal replay from the baseline.
    for prefer_snapshot in (True, False):
        recovered = PTRiderService.recover(journal_dir, prefer_snapshot=prefer_snapshot)
        try:
            assert canonical_state(recovered) == reference
        finally:
            recovered.close()

    # The stall claim: mean per-delta hot-path cost under 10% of the mean
    # compaction (full serialisation) cost on the same day.
    assert snapshots["delta_count"] >= 10
    assert snapshots["full_count"] >= 1  # compaction ran, between windows
    full_stall = snapshots["full_seconds"] / snapshots["full_count"]
    delta_stall = snapshots["delta_seconds"] / snapshots["delta_count"]
    assert delta_stall < 0.10 * full_stall, (
        f"mean delta stall {delta_stall * 1e3:.2f}ms not under 10% of "
        f"mean compaction stall {full_stall * 1e3:.2f}ms"
    )

    record_result(
        "E20", full_stall, routing_backend="csr",
        phase="smoke_snapshot_full_stall", requests=total,
        snapshot_interval=float(PAIR_SNAPSHOT_EVERY),
        snapshots=snapshots["full_count"],
        serving=round(serving, 6),
    )
    record_result(
        "E20", delta_stall, routing_backend="csr",
        phase="smoke_snapshot_delta_stall", requests=total,
        snapshot_interval=float(PAIR_SNAPSHOT_EVERY),
        snapshots=snapshots["delta_count"],
        compactions=snapshots["full_count"],
        serving=round(serving, 6),
        stall_ratio=round(delta_stall / full_stall, 4),
    )


# ----------------------------------------------------------------------
# the headline replay (scaled by PTRIDER_E20_REQUESTS; not part of smoke)
# ----------------------------------------------------------------------
def test_e20_headline_adaptive_vs_fixed(tmp_path):
    """The smoke comparison at headline scale."""
    if not HAVE_SCIPY:
        pytest.skip("the csr backend needs scipy")
    _compare_arms(tmp_path, HEADLINE_REQUESTS, "headline")
