"""Byte-identity of sharded batch dispatch with the sequential greedy loop.

``dispatch_batch`` partitions vehicles into ``shards`` by grid cell, runs the
collect/verify stage per shard in process, merges the per-shard skylines by
dominance and commits greedily.  On a fixed small city, for every routing
backend and shard count, the outcomes -- offered skylines, chosen vehicles,
commit order, fleet end-state -- must be byte-identical to
``dispatch_sequential``, for one burst and for consecutive bursts served by
the same dispatcher.
"""

from __future__ import annotations

import random

import pytest

from repro.core.config import SystemConfig
from repro.core.dispatcher import Dispatcher, OptionPolicy
from repro.core.single_side import SingleSideSearchMatcher
from repro.roadnet.generators import grid_network
from repro.roadnet.routing import make_engine
from repro.sim.workload import random_requests

from tests.conftest import build_fleet

SEED = 23
VEHICLES = 8
REQUESTS = 10


def _build_dispatcher(backend: str) -> Dispatcher:
    """A deterministic small city (identical per call, per backend)."""
    network = grid_network(6, 6, weight_jitter=0.35, seed=SEED)
    rng = random.Random(SEED)
    vertices = network.vertices()
    locations = [rng.choice(vertices) for _ in range(VEHICLES)]
    fleet = build_fleet(network, locations, capacity=4, grid_rows=3, grid_columns=3)
    fleet.set_routing_engine(make_engine(network, backend))
    config = SystemConfig(max_waiting=6.0, service_constraint=0.6, max_pickup_distance=10.0)
    matcher = SingleSideSearchMatcher(fleet, config=config)
    return Dispatcher(fleet, matcher, config)


def _burst(dispatcher: Dispatcher):
    return random_requests(
        dispatcher.fleet.grid.network, REQUESTS, 6.0, 0.6, seed=SEED + 1,
        id_prefix="p-",
    )


def _outcome_key(outcome):
    return (outcome.request.request_id, tuple(outcome.options), outcome.chosen)


def _fleet_state(fleet):
    return [
        (
            vehicle.vehicle_id,
            vehicle.location,
            vehicle.offset,
            sorted(vehicle.unfinished_request_ids()),
            tuple(
                sorted(
                    tuple((stop.vertex, stop.request_id, stop.kind.value) for stop in schedule)
                    for schedule in vehicle.kinetic_tree.schedules()
                )
            ),
        )
        for vehicle in fleet.vehicles()
    ]


@pytest.mark.parametrize("backend", ("dict", "csr", "ch", "table"))
@pytest.mark.parametrize("shards", (1, 2, 4))
def test_sharded_dispatch_equals_sequential(backend, shards):
    sequential = _build_dispatcher(backend)
    requests = _burst(sequential)
    loop_outcomes = sequential.dispatch_sequential(requests, policy=OptionPolicy.CHEAPEST)

    sharded = _build_dispatcher(backend)
    pipeline_outcomes = sharded.dispatch_batch(
        requests, policy=OptionPolicy.CHEAPEST, shards=shards
    )

    assert [_outcome_key(o) for o in loop_outcomes] == [
        _outcome_key(o) for o in pipeline_outcomes
    ]
    assert _fleet_state(sequential.fleet) == _fleet_state(sharded.fleet)
    stats = sharded.last_batch_statistics
    assert stats is not None and stats.requests == REQUESTS


@pytest.mark.parametrize("shards", (1, 2, 4))
def test_consecutive_batches_equal_sequential(shards):
    """A dispatcher serves batch after batch: the second burst sees the
    first one's commits exactly as the loop does."""
    sequential = _build_dispatcher("csr")
    requests = _burst(sequential)
    loop_outcomes = sequential.dispatch_sequential(requests, policy=OptionPolicy.CHEAPEST)

    sharded = _build_dispatcher("csr")
    pipeline_outcomes = sharded.dispatch_batch(
        requests[:5], policy=OptionPolicy.CHEAPEST, shards=shards
    )
    assert sharded.last_batch_statistics.requests == 5
    pipeline_outcomes += sharded.dispatch_batch(
        requests[5:], policy=OptionPolicy.CHEAPEST, shards=shards
    )
    assert sharded.last_batch_statistics.requests == REQUESTS - 5

    assert [_outcome_key(o) for o in loop_outcomes] == [
        _outcome_key(o) for o in pipeline_outcomes
    ]
    assert _fleet_state(sequential.fleet) == _fleet_state(sharded.fleet)
