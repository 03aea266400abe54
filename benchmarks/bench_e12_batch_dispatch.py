"""E12 -- batched dispatch pipeline versus the sequential greedy loop.

Section 2.5's greedy strategy fixes *what* simultaneous requests get (each
request decided in submission order against the fleet state its predecessors
left behind); the batched pipeline (`Dispatcher.dispatch_batch`) restructures
*where* the work happens: one :class:`~repro.core.batch.BatchContext` pools
the start-rooted distance trees (requests sharing a start vertex share one
tree) and memoises the schedule-leg distances every verification of the batch
re-asks.  The sequential arm is ``Dispatcher.dispatch`` called request by
request: every call is a batch of one, so it pools nothing across requests.

At city scale the routing engine cannot cache a full distance tree per
recently seen vertex (each tree is O(V)), so this experiment builds its
engines with a deliberately small tree cache.  Under that cache pressure the sequential loop keeps
re-running Dijkstra for starts and schedule legs it has already answered,
while the batch pays each exactly once; the recorded speedup is the honest
value of sharing routing contexts across a tick's worth of requests.

The batch computes every distinct start tree with one
``scipy.csgraph.dijkstra(indices=[...])`` prefetch.  The pipeline's outcomes
are asserted byte-identical to the loop's here (and property-tested in
``tests/property/test_batch_equivalence.py``), so the speedup is pure
restructuring, not a semantics change.
"""

from __future__ import annotations

import random
import time

from repro.core.config import SystemConfig
from repro.core.dispatcher import Dispatcher, OptionPolicy
from repro.roadnet.generators import grid_network
from repro.roadnet.grid_index import GridIndex
from repro.roadnet.routing import make_engine
from repro.sim.trips import ShanghaiLikeTripGenerator
from repro.sim.workload import RequestWorkload
from repro.vehicles.fleet import Fleet
from repro.vehicles.vehicle import Vehicle

from common import MATCHERS, record_result

#: Modest tree cache modelling city-scale cache pressure (a real deployment
#: cannot hold a full O(V) tree for every recently queried vertex).
CACHE_SLOTS = 16
ROWS = 20
VEHICLES = 10
TRIPS = 120
SEED = 17


def _build_dispatcher(matcher_name: str = "single_side", routing: str = "csr") -> Dispatcher:
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


def _sequential(dispatcher: Dispatcher, requests):
    """The per-request loop: one ``dispatch`` call per request."""
    return [dispatcher.dispatch(request, policy=OptionPolicy.CHEAPEST) for request in requests]


def test_e12_batched_pipeline_beats_sequential_loop():
    """Batched dispatch is >= 1.5x faster than the loop, with identical results."""
    sequential = _build_dispatcher()
    requests = _burst(sequential)
    started = time.perf_counter()
    loop_outcomes = _sequential(sequential, requests)
    sequential_seconds = time.perf_counter() - started

    batched = _build_dispatcher()
    started = time.perf_counter()
    pipeline_outcomes = batched.dispatch_batch(requests, policy=OptionPolicy.CHEAPEST)
    batched_seconds = time.perf_counter() - started

    # Pure restructuring: byte-identical skylines, choices and commit order.
    assert [_outcome_key(o) for o in loop_outcomes] == [
        _outcome_key(o) for o in pipeline_outcomes
    ]

    stats = batched.last_batch_statistics
    assert stats is not None and stats.requests == len(requests)
    assert stats.prefetched_trees == stats.requests - stats.shared_tree_hits
    assert stats.trees_computed == 0  # every start tree came through the one plane
    speedup = sequential_seconds / batched_seconds
    record_result(
        "E12",
        batched_seconds,
        routing_backend="csr",
        vehicles_evaluated=batched.matcher.statistics.vehicles_evaluated,
        matcher="single_side",
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


def test_e12_summary_table(capsys):
    """Print the batched-vs-sequential comparison (run with -s to see it)."""
    from common import format_table

    sequential = _build_dispatcher()
    requests = _burst(sequential)
    started = time.perf_counter()
    _sequential(sequential, requests)
    loop_seconds = time.perf_counter() - started

    batched = _build_dispatcher()
    started = time.perf_counter()
    batched.dispatch_batch(requests, policy=OptionPolicy.CHEAPEST)
    pipeline_seconds = time.perf_counter() - started
    stats = batched.last_batch_statistics
    rows = [
        (
            f"{loop_seconds * 1000:.1f}",
            f"{pipeline_seconds * 1000:.1f}",
            f"{loop_seconds / pipeline_seconds:.2f}x",
            f"{stats.shared_tree_hit_rate:.0%}",
        )
    ]
    table = format_table(
        ("sequential [ms]", "batched [ms]", "speedup", "tree hit rate"), rows
    )
    print("\nE12 -- batched dispatch pipeline vs sequential greedy loop\n" + table)
