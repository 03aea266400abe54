"""E12 -- batched dispatch pipeline versus the sequential greedy loop.

Section 2.5's greedy strategy fixes *what* simultaneous requests get (each
request decided in submission order against the fleet state its predecessors
left behind); the batched pipeline (`Dispatcher.dispatch_batch`) restructures
*where* the work happens: one :class:`~repro.core.batch.BatchContext` pools
the start-rooted distance trees (requests sharing a start vertex share one
tree) and memoises the schedule-leg distances every verification of the batch
re-asks, matching runs per fleet shard with the per-shard skylines merged by
dominance, and a commit changes exactly one shard's contents (the chosen
vehicle's), keeping every other shard's results valid mid-batch.

At city scale the routing engine cannot cache a full distance tree per
recently seen vertex (each tree is O(V)), so this experiment builds its
engines with a deliberately small tree cache -- the same device
``routing_layer_seconds`` uses (``max_cached_sources=1``) to measure cold
trees in E2/E8.  Under that cache pressure the sequential loop keeps
re-running Dijkstra for starts and schedule legs it has already answered,
while the batch pays each exactly once; the recorded speedup is the honest
value of sharing routing contexts across a tick's worth of requests.

The pipeline's outcomes are asserted byte-identical to the loop's here (and
property-tested in ``tests/property/test_batch_equivalence.py``), so the
speedup is pure restructuring, not a semantics change.

The *vectorised* arm measures the next rung: the same burst on the CSR
backend with the one-shot batch tree prefetch (every distinct start tree
computed by one ``scipy.csgraph.dijkstra(indices=[...])`` call).  Its wall
time is asserted at least 2x better than the committed dict-backend E12
record (the PR-over-PR contract of ISSUE 3), again at byte-identical
outcomes versus the sequential loop on the same engine.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.core.config import SystemConfig
from repro.core.dispatcher import Dispatcher, OptionPolicy
from repro.roadnet.generators import grid_network
from repro.roadnet.grid_index import GridIndex
from repro.roadnet.routing import make_engine
from repro.sim.trips import ShanghaiLikeTripGenerator
from repro.sim.workload import RequestWorkload
from repro.vehicles.fleet import Fleet
from repro.vehicles.vehicle import Vehicle

from common import HAVE_SCIPY, MATCHERS, committed_baseline_wall, record_result

#: Modest tree cache modelling city-scale cache pressure (a real deployment
#: cannot hold a full O(V) tree for every recently queried vertex).
CACHE_SLOTS = 16
ROWS = 20
VEHICLES = 10
TRIPS = 120
SEED = 17


def _build_dispatcher(matcher_name: str = "single_side", routing: str = "dict") -> Dispatcher:
    """A seeded city with a cache-pressured engine (identical per call)."""
    network = grid_network(ROWS, ROWS, weight_jitter=0.3, seed=SEED)
    grid = GridIndex(network, rows=6, columns=6)
    fleet = Fleet(grid, make_engine(network, routing, max_cached_sources=CACHE_SLOTS))
    rng = random.Random(SEED)
    vertices = network.vertices()
    for index in range(VEHICLES):
        fleet.add_vehicle(Vehicle(f"c{index + 1}", location=rng.choice(vertices), capacity=4))
    config = SystemConfig(
        max_waiting=8.0, service_constraint=0.6, max_pickup_distance=12.0,
    )
    matcher = MATCHERS[matcher_name](fleet, config=config)
    return Dispatcher(fleet, matcher, config)


def _burst(dispatcher: Dispatcher):
    """The E2 workload (Shanghai-like trips, hot-spot structure) as one burst."""
    network = dispatcher.fleet.grid.network
    generator = ShanghaiLikeTripGenerator(
        network, seed=SEED, hotspot_bias=0.85, hotspot_count=4
    )
    trips = generator.generate(TRIPS, day_seconds=300.0)
    workload = RequestWorkload.from_trips(trips, 8.0, 0.6)
    return list(workload.due(float("inf")))


def _outcome_key(outcome):
    return (
        outcome.request.request_id,
        tuple(outcome.options),
        outcome.chosen,
    )


@pytest.mark.parametrize("shards", [1, 4])
def test_e12_batched_pipeline_beats_sequential_loop(shards):
    """Batched dispatch is >= 1.5x faster than the loop, with identical results."""
    sequential = _build_dispatcher()
    requests = _burst(sequential)
    started = time.perf_counter()
    loop_outcomes = sequential.dispatch_sequential(requests, policy=OptionPolicy.CHEAPEST)
    sequential_seconds = time.perf_counter() - started

    batched = _build_dispatcher()
    started = time.perf_counter()
    pipeline_outcomes = batched.dispatch_batch(
        requests, policy=OptionPolicy.CHEAPEST, shards=shards
    )
    batched_seconds = time.perf_counter() - started

    # Pure restructuring: byte-identical skylines, choices and commit order.
    assert [_outcome_key(o) for o in loop_outcomes] == [
        _outcome_key(o) for o in pipeline_outcomes
    ]

    stats = batched.last_batch_statistics
    assert stats is not None and stats.requests == len(requests)
    speedup = sequential_seconds / batched_seconds
    record_result(
        "E12",
        batched_seconds,
        routing_backend="dict",
        vehicles_evaluated=batched.matcher.statistics.vehicles_evaluated,
        matcher="single_side",
        shards=shards,
        requests=len(requests),
        sequential_seconds=round(sequential_seconds, 6),
        speedup_vs_sequential=round(speedup, 2),
        shared_tree_hit_rate=round(stats.shared_tree_hit_rate, 3),
        trees_computed=stats.trees_computed,
    )
    assert stats.shared_tree_hit_rate > 0.1  # the hot-spot workload shares starts
    assert speedup >= 1.5, (
        f"batched dispatch ({batched_seconds:.3f}s) should be >=1.5x faster than "
        f"the sequential loop ({sequential_seconds:.3f}s); got {speedup:.2f}x"
    )


def _run_vectorised_arm(routing: str):
    """One vectorised-pipeline measurement: byte-identical check + wall time."""
    sequential = _build_dispatcher(routing=routing)
    requests = _burst(sequential)
    loop_outcomes = sequential.dispatch_sequential(requests, policy=OptionPolicy.CHEAPEST)

    batched = _build_dispatcher(routing=routing)
    started = time.perf_counter()
    pipeline_outcomes = batched.dispatch_batch(requests, policy=OptionPolicy.CHEAPEST)
    batched_seconds = time.perf_counter() - started

    # Same semantics as ever: the vectorised plane changes where trees are
    # computed, not a single float of what the riders are offered.
    assert [_outcome_key(o) for o in loop_outcomes] == [
        _outcome_key(o) for o in pipeline_outcomes
    ]

    stats = batched.last_batch_statistics
    assert stats is not None
    assert stats.prefetched_trees == stats.requests - stats.shared_tree_hits
    assert stats.trees_computed == 0  # every tree came through the one plane
    return batched, requests, stats, batched_seconds


def test_e12_vectorised_prefetch_halves_the_committed_batch_wall_time():
    """ISSUE 3's acceptance gate: the vectorised pipeline (one-shot tree-plane
    prefetch on the CSR and table backends) beats the committed
    pre-vectorisation dict-backend E12 record by >= 2x, at byte-identical
    dispatch outcomes.

    The hard assert is one-shot by construction: it only fires while the
    committed ``BENCH_results.json`` still predates this change (no E12 "csr"
    record).  Once the baseline is regenerated with vectorised records, E12
    wall-time regressions are guarded by ``scripts/check_bench_trend.py``
    (median-of-3, 25% threshold) instead of an ever-tightening 2x bar.
    """
    if not HAVE_SCIPY:
        pytest.skip("the vectorised tree plane needs scipy.sparse.csgraph")

    baseline = committed_baseline_wall("E12", "dict")
    speedups = {}
    for routing in ("csr", "table"):
        batched, requests, stats, batched_seconds = _run_vectorised_arm(routing)
        if baseline is not None:
            speedups[routing] = baseline / batched_seconds
        record_result(
            "E12",
            batched_seconds,
            routing_backend=routing,
            vehicles_evaluated=batched.matcher.statistics.vehicles_evaluated,
            matcher="single_side",
            shards=1,
            requests=len(requests),
            prefetched_trees=stats.prefetched_trees,
            prefetch_seconds=round(stats.prefetch_seconds, 6),
            baseline_dict_seconds=round(baseline, 6) if baseline is not None else None,
            speedup_vs_dict_baseline=(
                round(baseline / batched_seconds, 2) if baseline is not None else None
            ),
        )

    if baseline is None:
        pytest.skip("no committed dict-backend E12 record to compare against")
    if committed_baseline_wall("E12", "csr") is not None:
        pytest.skip(
            "committed baseline is already post-vectorisation; E12 is guarded "
            "by the trend check"
        )
    best = max(speedups.values())
    assert best >= 2.0, (
        f"the vectorised batch should be >=2x faster than the committed "
        f"dict-backend record ({baseline:.3f}s); best arm achieved {best:.2f}x "
        f"({ {k: round(v, 2) for k, v in speedups.items()} })"
    )


def test_e12_sharded_matching_work_equals_unsharded():
    """Sharding redistributes verification work; it must not add or lose any."""
    results = {}
    for shards in (1, 2, 4):
        dispatcher = _build_dispatcher()
        requests = _burst(dispatcher)[:40]
        outcomes = dispatcher.dispatch_batch(
            requests, policy=OptionPolicy.CHEAPEST, shards=shards
        )
        results[shards] = (
            [_outcome_key(o) for o in outcomes],
            dispatcher.matcher.statistics.vehicles_evaluated,
        )
    baseline_outcomes, _ = results[1]
    for shards in (2, 4):
        sharded_outcomes, _ = results[shards]
        assert sharded_outcomes == baseline_outcomes


def test_e12_summary_table(capsys):
    """Print the batched-vs-sequential comparison (run with -s to see it)."""
    from common import format_table

    rows = []
    for shards in (1, 2, 4):
        sequential = _build_dispatcher()
        requests = _burst(sequential)
        started = time.perf_counter()
        sequential.dispatch_sequential(requests, policy=OptionPolicy.CHEAPEST)
        loop_seconds = time.perf_counter() - started

        batched = _build_dispatcher()
        started = time.perf_counter()
        batched.dispatch_batch(requests, policy=OptionPolicy.CHEAPEST, shards=shards)
        pipeline_seconds = time.perf_counter() - started
        stats = batched.last_batch_statistics
        rows.append(
            (
                shards,
                f"{loop_seconds * 1000:.1f}",
                f"{pipeline_seconds * 1000:.1f}",
                f"{loop_seconds / pipeline_seconds:.2f}x",
                f"{stats.shared_tree_hit_rate:.0%}",
            )
        )
    table = format_table(
        ("shards", "sequential [ms]", "batched [ms]", "speedup", "tree hit rate"), rows
    )
    print("\nE12 -- batched dispatch pipeline vs sequential greedy loop\n" + table)
