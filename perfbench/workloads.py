"""The four named workloads and the inputs they are replayed with.

Everything the program sees -- road network, fleet placement, request
stream -- is generated from ``--seed`` here; the program itself never sees
the seed's meaning.  ``README.md`` records why each workload exists and
which layer it loads.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.model.request import Request
from repro.roadnet.generators import grid_network
from repro.roadnet.graph import RoadNetwork
from repro.sim.workload import RequestWorkload

#: Request counts shrink by this factor under ``--smoke`` (self-tests).
SMOKE_FACTOR = 0.25


@dataclass(frozen=True)
class Workload:
    """One traffic regime: a city, a fleet, a request stream and a serving path."""

    name: str
    why: str
    #: "book" = per-request ``book_request`` -> ``choose``/``cancel``;
    #: "batched" = ``ingest_request`` + one ``pump`` per tick
    path: str
    #: the jittered grid is ``rows`` x ``rows`` vertices
    rows: int
    #: the ``GridIndex`` is ``grid`` x ``grid`` cells
    grid: int
    vehicles: int
    capacity: int
    #: tree-LRU capacity of the csr engine (1024 is the product default)
    tree_cache: int
    max_waiting: float
    service_constraint: float
    max_pickup_distance: float
    speed: float
    #: size of the exact-vertex origin pool (0 = uniform origins)
    hotspots: int
    #: mean arrivals per simulated second
    rate: float
    requests: int
    #: journal + incremental snapshots, then recovery from the journal
    durable: bool = False

    def request_count(self, smoke: bool) -> int:
        return max(1, int(self.requests * SMOKE_FACTOR)) if smoke else self.requests


_COMMUTE = dict(
    rows=50, grid=14, vehicles=400, capacity=4, tree_cache=1024,
    max_waiting=8.0, service_constraint=0.6, max_pickup_distance=3.0, speed=6.0,
    hotspots=320, rate=40.0, requests=1000,
)

WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="commute_book",
            why="per-request smartphone loop on a day where most riders get a "
                "ride: cold trees, matcher search, commit and vehicle movement "
                "all carry weight",
            path="book",
            **_COMMUTE,
        ),
        Workload(
            name="commute_batched",
            why="the same city, fleet and requests through ingest+pump: pooled "
                "start trees and leg prefetch instead of cold trees; outcomes "
                "must equal commute_book",
            path="batched",
            **_COMMUTE,
        ),
        Workload(
            name="dense_pool",
            why="small city inside the tree cache, few taxis with loose "
                "constraints: long kinetic trees put the wall in "
                "core.insertion, routing is lookups",
            path="batched",
            rows=20, grid=6, vehicles=40, capacity=4, tree_cache=1024,
            max_waiting=12.0, service_constraint=0.8, max_pickup_distance=10.0,
            speed=6.0, hotspots=0, rate=20.0, requests=800,
        ),
        Workload(
            name="surge_durable",
            why="E17's overload regime (saturated fleet, 8-tree cache, 400 "
                "req/s) with journal and incremental snapshots, then recovery: "
                "pruning, admission, journal appends and snapshots do the work",
            path="batched",
            rows=50, grid=14, vehicles=40, capacity=2, tree_cache=8,
            max_waiting=8.0, service_constraint=0.6, max_pickup_distance=3.0,
            speed=6.0, hotspots=80, rate=400.0, requests=4000, durable=True,
        ),
    )
}


def build_network(workload: Workload, seed: int) -> RoadNetwork:
    """The workload's road network for ``seed`` (a jittered grid)."""
    return grid_network(workload.rows, workload.rows, weight_jitter=0.3, seed=seed)


@dataclass
class Inputs:
    """What one run replays: generated once per run, reused by every round."""

    workload: Workload
    seed: int
    #: vehicle start vertices, in vehicle-id order
    placements: List[int]
    #: ``ticks[t]`` = the requests released at tick ``t + 1``
    ticks: List[Tuple[Request, ...]]
    generate_s: float


def generate(workload: Workload, seed: int, smoke: bool = False) -> Inputs:
    """Generate the fleet placement and the day's request stream from ``seed``."""
    started = time.perf_counter()
    network = build_network(workload, seed)
    total = workload.request_count(smoke)
    rng = random.Random(seed)
    vertices = network.vertices()
    placements = [rng.choice(vertices) for _ in range(workload.vehicles)]
    day = RequestWorkload.daily(
        network,
        total=total,
        duration=total / workload.rate,
        max_waiting=workload.max_waiting,
        service_constraint=workload.service_constraint,
        hotspot_count=workload.hotspots,
        hotspot_bias=1.0 if workload.hotspots else 0.0,
        seed=seed,
    )
    ticks: List[Tuple[Request, ...]] = []
    tick = 0
    while day.remaining:
        tick += 1
        ticks.append(tuple(day.due(float(tick))))
    return Inputs(
        workload=workload,
        seed=seed,
        placements=placements,
        ticks=ticks,
        generate_s=time.perf_counter() - started,
    )
