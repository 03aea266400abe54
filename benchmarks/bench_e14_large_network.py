"""E14 -- csr routing on a city-sized network.

Every other experiment runs on cities of a few hundred to a few thousand
vertices; this one checks that the csr backend and the batch pipeline hold
up at ~20k vertices, on an arterial grid (140 x 140 with fast arterial
rows/columns every 7 lines -- the highway structure any real road network,
and in particular an OSM extract, exhibits):

* cold point-to-point queries: with a one-tree cache and distinct sources
  every answer is a full Dijkstra over all ~20k vertices (one ``scipy`` C
  call), the exact cost the matchers pay per uncached schedule leg.  Every
  answer must equal the one read off the source's own tree;
* a burst dispatched through the batch pipeline must produce
  **byte-identical** outcomes (same options, same prices, same winners) to
  the sequential per-request loop on the same city.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.core.dispatcher import OptionPolicy
from repro.roadnet.generators import arterial_grid_network
from repro.roadnet.routing import make_engine
from repro.sim.workload import random_requests

from common import HAVE_SCIPY, build_city, record_result

pytestmark = pytest.mark.skipif(
    not HAVE_SCIPY, reason="E14 times the SciPy-backed CSR Dijkstra"
)

ROWS = 140
COLUMNS = 140
ARTERIAL_EVERY = 7
SEED = 23
#: distinct-source query pairs of the cold point-query phase
QUERY_PAIRS = 80
#: best-of repetitions (damps scheduler noise on CI runners)
QUERY_REPEATS = 3
VEHICLES = 24
REQUESTS = 30


@pytest.fixture(scope="module")
def network():
    """The ~20k-vertex arterial city (19600 vertices, shared per module)."""
    return arterial_grid_network(
        ROWS, COLUMNS, weight_jitter=0.3, arterial_every=ARTERIAL_EVERY, seed=SEED
    )


def _query_pairs(network, count=QUERY_PAIRS):
    """Random far-flung pairs with *distinct* sources (keeps the cache cold)."""
    rng = random.Random(7)
    vertices = network.vertices()
    pairs, seen = [], set()
    while len(pairs) < count:
        u, v = rng.choice(vertices), rng.choice(vertices)
        if u != v and u not in seen:
            seen.add(u)
            pairs.append((u, v))
    return pairs


def test_e14_cold_point_queries(network):
    """Cold csr point queries at 20k vertices, each equal to its tree's value."""
    pairs = _query_pairs(network)
    # max_cached_sources=1 + distinct sources: every answer is a cold
    # full-network Dijkstra.
    engine = make_engine(network, "csr", max_cached_sources=1)
    wall = float("inf")
    for _ in range(QUERY_REPEATS):
        started = time.perf_counter()
        values = [engine.distance(u, v) for u, v in pairs]
        wall = min(wall, time.perf_counter() - started)
    reference = make_engine(network, "csr")
    assert values == [
        reference.distances_from(min(u, v))[max(u, v)] for u, v in pairs
    ]  # bit-identical, not approximately equal
    record_result(
        "E14",
        wall,
        routing_backend="csr",
        phase="point_queries",
        queries=len(pairs),
        ms_per_query=round(wall / len(pairs) * 1000, 3),
        vertices=network.vertex_count,
    )


def test_e14_dispatch_batch_equals_sequential(network):
    """The same burst through dispatch_batch and the per-request loop commits
    identical rides on the 20k-vertex city."""

    def run(batched):
        city = build_city(
            vehicles=VEHICLES,
            grid_rows=10,
            grid_columns=10,
            seed=SEED,
            routing="csr",
            network=network,
        )
        requests = random_requests(
            city.network,
            REQUESTS,
            city.config.max_waiting,
            city.config.service_constraint,
            seed=11,
        )
        dispatcher = city.dispatcher("single_side")
        started = time.perf_counter()
        if batched:
            outcomes = dispatcher.dispatch_batch(requests, policy=OptionPolicy.CHEAPEST)
        else:
            outcomes = [
                dispatcher.dispatch(request, policy=OptionPolicy.CHEAPEST) for request in requests
            ]
        wall = time.perf_counter() - started
        keys = [
            (o.request.request_id, tuple(o.options), o.chosen) for o in outcomes
        ]
        return keys, wall

    sequential_keys, _ = run(batched=False)
    batched_keys, batched_wall = run(batched=True)
    assert batched_keys == sequential_keys
    record_result(
        "E14",
        batched_wall,
        routing_backend="csr",
        phase="dispatch",
        requests=REQUESTS,
        vehicles=VEHICLES,
        vertices=network.vertex_count,
    )
