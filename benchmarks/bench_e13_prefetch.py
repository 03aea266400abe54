"""E13 -- batch tree-prefetch ablation.

The batched pipeline moves its tree work into one
``scipy.csgraph.dijkstra(indices=[...])`` call.  This experiment isolates
that step: the same E12-style burst (120 Shanghai-like trips, hot-spot start
structure, cache-pressured engines) is dispatched with the one-shot prefetch
on and off, recording

* trees/second resolved on the request side (the paper's bottleneck for
  simultaneous requests, Section 2.5);
* per-request p95 latency (the real-time promise is a tail claim, not an
  average claim);
* the shared/prefetched tree counters of :class:`BatchStatistics`.

Prefetch on/off must be byte-identical in what riders are offered -- the
ablation only moves where trees are computed -- which is asserted here and
property-tested in ``tests/property/test_batch_equivalence.py``.
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

from common import MATCHERS, format_table, record_result

#: Same cache pressure as E12: city scale cannot hold a tree per hot vertex.
CACHE_SLOTS = 16
ROWS = 20
VEHICLES = 10
TRIPS = 120
SEED = 17

BACKENDS = ("csr",)


def _build_dispatcher(routing: str) -> Dispatcher:
    """The E12 city on the requested backend (identical per call)."""
    network = grid_network(ROWS, ROWS, weight_jitter=0.3, seed=SEED)
    grid = GridIndex(network, rows=6, columns=6)
    fleet = Fleet(grid, make_engine(network, routing, max_cached_sources=CACHE_SLOTS))
    rng = random.Random(SEED)
    vertices = network.vertices()
    for index in range(VEHICLES):
        fleet.add_vehicle(Vehicle(f"c{index + 1}", location=rng.choice(vertices), capacity=4))
    config = SystemConfig(max_waiting=8.0, service_constraint=0.6, max_pickup_distance=12.0)
    matcher = MATCHERS["single_side"](fleet, config=config)
    return Dispatcher(fleet, matcher, config)


def _burst(dispatcher: Dispatcher):
    network = dispatcher.fleet.grid.network
    generator = ShanghaiLikeTripGenerator(
        network, seed=SEED, hotspot_bias=0.85, hotspot_count=4
    )
    trips = generator.generate(TRIPS, day_seconds=300.0)
    workload = RequestWorkload.from_trips(trips, 8.0, 0.6)
    return list(workload.due(float("inf")))


def _p95_ms(outcomes) -> float:
    latencies = sorted(outcome.match_seconds for outcome in outcomes)
    return latencies[int(0.95 * (len(latencies) - 1))] * 1000.0


def _run_arm(backend: str, prefetch: bool):
    dispatcher = _build_dispatcher(backend)
    requests = _burst(dispatcher)
    started = time.perf_counter()
    outcomes = dispatcher.dispatch_batch(
        requests, policy=OptionPolicy.CHEAPEST, prefetch=prefetch
    )
    wall = time.perf_counter() - started
    return dispatcher, requests, outcomes, wall


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("prefetch", [True, False])
def test_e13_prefetch_ablation(backend, prefetch):
    dispatcher, requests, outcomes, wall = _run_arm(backend, prefetch)
    stats = dispatcher.last_batch_statistics
    assert stats is not None and stats.requests == len(requests)

    trees_resolved = stats.prefetched_trees + stats.trees_computed
    assert trees_resolved + stats.shared_tree_hits == len(requests)
    if prefetch:
        # The whole batch is answered from one plane.
        assert stats.prefetched_trees == trees_resolved
        assert stats.trees_computed == 0
    else:
        assert stats.prefetched_trees == 0
        assert stats.trees_computed == trees_resolved

    record_result(
        "E13",
        wall,
        routing_backend=backend,
        vehicles_evaluated=dispatcher.matcher.statistics.vehicles_evaluated,
        matcher="single_side",
        prefetch=prefetch,
        requests=len(requests),
        trees_resolved=trees_resolved,
        trees_per_second=round(trees_resolved / wall, 1) if wall > 0 else None,
        prefetch_seconds=round(stats.prefetch_seconds, 6),
        p95_latency_ms=round(_p95_ms(outcomes), 3),
        shared_tree_hit_rate=round(stats.shared_tree_hit_rate, 3),
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_e13_prefetch_is_pure_restructuring(backend):
    """Prefetch on/off must offer and commit byte-identical rides."""

    def keys(outcomes):
        return [(o.request.request_id, tuple(o.options), o.chosen) for o in outcomes]

    _, _, with_prefetch, _ = _run_arm(backend, prefetch=True)
    _, _, without_prefetch, _ = _run_arm(backend, prefetch=False)
    assert keys(with_prefetch) == keys(without_prefetch)


def test_e13_summary_table(capsys):
    """Print the prefetch-ablation grid (run with -s to see it)."""
    rows = []
    for backend in BACKENDS:
        for prefetch in (True, False):
            dispatcher, requests, outcomes, wall = _run_arm(backend, prefetch)
            stats = dispatcher.last_batch_statistics
            trees = stats.prefetched_trees + stats.trees_computed
            rows.append(
                (
                    backend,
                    "on" if prefetch else "off",
                    f"{wall * 1000:.1f}",
                    f"{trees / wall:.0f}" if wall > 0 else "-",
                    f"{_p95_ms(outcomes):.2f}",
                )
            )
    table = format_table(
        ("backend", "prefetch", "batch [ms]", "trees/s", "p95 [ms]"), rows
    )
    print("\nE13 -- one-shot batch tree prefetch ablation\n" + table)
