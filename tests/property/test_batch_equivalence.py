"""Property-based equivalence of the batched dispatch pipeline with the loop.

The batched pipeline (`Dispatcher.dispatch_batch` and `Dispatcher.dispatch`,
a batch of one) restructures *where* the greedy
strategy's routing work happens -- pooled start trees, a batch-wide leg memo
and demand-pooled leg trees -- but must not change *what* it computes: for
any fleet and any burst of simultaneous requests, the outcomes (offered
skylines, chosen vehicles, fleet end-state) must be byte-identical to the
literal request-by-request greedy loop of Section 2.5
(``tests/dispatch_reference.py``).
"""

from __future__ import annotations

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import BatchContext, BatchMatchContext
from repro.core.config import SystemConfig
from repro.core.dispatcher import Dispatcher, OptionPolicy
from repro.core.dual_side import DualSideSearchMatcher
from repro.core.naive import NaiveKineticTreeMatcher
from repro.core.single_side import SingleSideSearchMatcher
from repro.counters import counters
from repro.errors import DisconnectedError
from repro.model.request import Request
from repro.roadnet.generators import grid_network
from repro.roadnet.routing import ROUTING_BACKENDS, make_engine
from repro.sim.engine import SimulationEngine
from repro.sim.workload import RequestWorkload, random_requests

from tests.conftest import build_fleet
from tests.dispatch_reference import dispatch_sequential, match_sequential
from tests.routing_arms import ROUTING_ARMS

MATCHERS = {
    "naive": NaiveKineticTreeMatcher,
    "single_side": SingleSideSearchMatcher,
    "dual_side": DualSideSearchMatcher,
}


@st.composite
def batch_scenarios(draw):
    """A seeded fleet blueprint plus a burst of simultaneous requests."""
    seed = draw(st.integers(min_value=0, max_value=100_000))
    rng = random.Random(seed)
    rows = draw(st.integers(min_value=4, max_value=7))
    columns = draw(st.integers(min_value=4, max_value=7))
    network = grid_network(rows, columns, weight_jitter=0.4, seed=seed)
    vertices = network.vertices()

    vehicle_count = draw(st.integers(min_value=1, max_value=8))
    locations = [rng.choice(vertices) for _ in range(vehicle_count)]
    grid_rows = draw(st.integers(min_value=2, max_value=4))

    request_count = draw(st.integers(min_value=1, max_value=6))
    # A couple of shared start vertices exercise the tree pooling.
    starts = [rng.choice(vertices) for _ in range(max(1, request_count // 2))]
    requests = []
    for index in range(request_count):
        start = rng.choice(starts) if rng.random() < 0.5 else rng.choice(vertices)
        destination = rng.choice([v for v in vertices if v != start])
        requests.append(
            Request(
                start=start, destination=destination, riders=rng.randint(1, 2),
                max_waiting=6.0, service_constraint=0.6, request_id=f"b-{seed}-{index}",
            )
        )

    matcher_name = draw(st.sampled_from(sorted(MATCHERS)))
    policy = draw(st.sampled_from([OptionPolicy.CHEAPEST, OptionPolicy.FASTEST, OptionPolicy.BALANCED]))
    max_pickup = draw(st.sampled_from([None, 4.0, 8.0]))
    blueprint = (network, locations, grid_rows)
    config = SystemConfig(max_waiting=6.0, service_constraint=0.6, max_pickup_distance=max_pickup)
    return blueprint, requests, matcher_name, policy, config


def _build_dispatcher(blueprint, matcher_name, config, backend=None):
    network, locations, grid_rows = blueprint
    fleet = build_fleet(network, locations, capacity=4, grid_rows=grid_rows, grid_columns=grid_rows)
    if backend is not None:
        # Swap before the matcher is built: matchers snapshot the engine.
        fleet.set_routing_engine(make_engine(network, backend))
    matcher = MATCHERS[matcher_name](fleet, config=config)
    return Dispatcher(fleet, matcher, config)


def _fleet_state(fleet):
    """A comparable snapshot of every vehicle's full state."""
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


@given(batch_scenarios())
@settings(max_examples=40, deadline=None)
def test_dispatch_batch_equals_sequential_loop(scenario):
    blueprint, requests, matcher_name, policy, config = scenario
    sequential = _build_dispatcher(blueprint, matcher_name, config)
    batched = _build_dispatcher(blueprint, matcher_name, config)

    loop_outcomes = dispatch_sequential(sequential, requests, policy)
    pipeline_outcomes = batched.dispatch_batch(requests, policy=policy)

    assert len(loop_outcomes) == len(pipeline_outcomes)
    for loop, pipe in zip(loop_outcomes, pipeline_outcomes):
        # Byte-identical skylines: same options, same order, same floats,
        # same schedules -- and therefore the same chosen vehicle.
        assert loop.options == pipe.options
        assert loop.chosen == pipe.chosen
        assert loop.request.request_id == pipe.request.request_id
    assert _fleet_state(sequential.fleet) == _fleet_state(batched.fleet)


@given(batch_scenarios())
@settings(max_examples=20, deadline=None)
def test_dispatch_equals_the_loop_and_notifies_once(scenario):
    """``dispatch(r)``, request after request, is the loop on a one-request
    list each time, and hands every outcome to ``outcome_listener`` exactly
    once."""
    blueprint, requests, matcher_name, policy, config = scenario
    sequential = _build_dispatcher(blueprint, matcher_name, config)
    single = _build_dispatcher(blueprint, matcher_name, config)
    heard = []
    single.outcome_listener = heard.append

    for request in requests:
        loop = dispatch_sequential(sequential, [request], policy)[0]
        before = len(heard)
        outcome = single.dispatch(request, policy=policy)
        assert heard[before:] == [outcome]
        assert outcome.options == loop.options
        assert outcome.chosen == loop.chosen
        assert outcome.request == loop.request
        assert outcome.direct_distance == loop.direct_distance
    assert _fleet_state(sequential.fleet) == _fleet_state(single.fleet)


@given(batch_scenarios())
@settings(max_examples=15, deadline=None)
def test_shared_tree_statistics_are_consistent(scenario):
    blueprint, requests, matcher_name, policy, config = scenario
    dispatcher = _build_dispatcher(blueprint, matcher_name, config)
    dispatcher.dispatch_batch(requests, policy=policy)
    stats = dispatcher.last_batch_statistics
    assert stats is not None
    assert stats.requests == len(requests)
    # Every distinct start comes from the one bulk prefetch.
    assert stats.prefetched_trees == len({r.start for r in requests})
    assert stats.trees_computed == 0
    assert stats.prefetched_trees + stats.shared_tree_hits == len(requests)
    assert 0.0 <= stats.shared_tree_hit_rate <= 1.0


@given(batch_scenarios(), st.sampled_from(ROUTING_BACKENDS))
@settings(max_examples=16, deadline=None)
def test_prefetched_batch_equals_sequential_on_vector_backends(scenario, backend):
    """The one-shot tree-plane prefetch is pure restructuring: on every
    backend the batched pipeline must reproduce the sequential loop's
    options, choices and fleet end-state float for float."""
    blueprint, requests, matcher_name, policy, config = scenario
    sequential = _build_dispatcher(blueprint, matcher_name, config, backend=backend)
    batched = _build_dispatcher(blueprint, matcher_name, config, backend=backend)

    loop_outcomes = dispatch_sequential(sequential, requests, policy)
    pipeline_outcomes = batched.dispatch_batch(requests, policy=policy)

    assert len(loop_outcomes) == len(pipeline_outcomes)
    for loop, pipe in zip(loop_outcomes, pipeline_outcomes):
        assert loop.options == pipe.options
        assert loop.chosen == pipe.chosen
    assert _fleet_state(sequential.fleet) == _fleet_state(batched.fleet)

    stats = batched.last_batch_statistics
    assert stats is not None
    # Every tree came through the vectorised prefetch, counted exactly once.
    assert stats.prefetched_trees == len({r.start for r in requests})
    assert stats.trees_computed == 0
    assert (
        stats.prefetched_trees + stats.shared_tree_hits == len(requests)
    )


@st.composite
def busy_fleet_scenarios(draw):
    """A request stream that drives a fleet busy, a burst to answer against
    it, and the routing configuration to answer it under."""
    seed = draw(st.integers(min_value=0, max_value=100_000))
    rng = random.Random(seed)
    network = grid_network(
        draw(st.integers(min_value=4, max_value=6)),
        draw(st.integers(min_value=4, max_value=6)),
        weight_jitter=0.4,
        seed=seed,
    )
    vertices = network.vertices()
    locations = [rng.choice(vertices) for _ in range(draw(st.integers(min_value=2, max_value=5)))]
    grid_rows = draw(st.integers(min_value=2, max_value=4))
    ticks = draw(st.integers(min_value=1, max_value=4))

    def _requests(prefix, count, submit):
        requests = []
        for index in range(count):
            start, destination = rng.sample(vertices, 2)
            requests.append(
                Request(
                    start=start, destination=destination, riders=rng.randint(1, 2),
                    max_waiting=8.0, service_constraint=0.8,
                    request_id=f"{prefix}-{seed}-{index}", submit_time=submit(),
                )
            )
        return requests

    stream = _requests("w", draw(st.integers(min_value=2, max_value=8)),
                       lambda: float(rng.randint(0, ticks - 1)))
    burst = _requests("b", draw(st.integers(min_value=1, max_value=6)), lambda: 0.0)
    return {
        "blueprint": (network, locations, grid_rows),
        "stream": stream,
        "ticks": ticks,
        "speed": draw(st.sampled_from([0.35, 0.8, 1.3])),
        "seed": seed,
        "burst": burst,
        "matcher": draw(st.sampled_from(sorted(MATCHERS))),
        "backend": draw(st.sampled_from(ROUTING_BACKENDS)),
        "cache": draw(st.sampled_from([1, 8, 1024])),
        "policy": draw(st.sampled_from([OptionPolicy.CHEAPEST, OptionPolicy.FASTEST])),
    }


def _driven_dispatcher(scenario):
    """A dispatcher whose fleet served ``stream`` for a few ticks: riders on
    board, vehicles mid-edge, kinetic trees with several branches."""
    network, locations, grid_rows = scenario["blueprint"]
    config = SystemConfig(max_waiting=8.0, service_constraint=0.8)
    fleet = build_fleet(network, locations, capacity=4, grid_rows=grid_rows, grid_columns=grid_rows)
    fleet.set_routing_engine(
        make_engine(network, scenario["backend"], max_cached_sources=scenario["cache"])
    )
    dispatcher = Dispatcher(fleet, MATCHERS[scenario["matcher"]](fleet, config=config), config)
    SimulationEngine(
        dispatcher, RequestWorkload(list(scenario["stream"])), speed=scenario["speed"],
        seed=scenario["seed"], idle_wander=False,
    ).run(max_ticks=scenario["ticks"])
    return dispatcher


class _PoolSpy:
    """Records what one batch asks: every ``prefetch_trees`` and
    ``walk_distance`` call on the engine (and how many walks answered) and
    every leg ``BatchMatchContext.distance`` is asked."""

    def __init__(self, engine):
        self.engine = engine
        self.prefetch_calls = []
        self.walk_calls = 0
        self.walks = 0
        self.asked_roots = set()
        self.expected_hits = 0

    def __enter__(self):
        engine, spy = self.engine, self
        original_prefetch = engine.prefetch_trees
        original_walk = engine.walk_distance
        original_distance = BatchMatchContext.distance

        def prefetch_trees(sources):
            spy.prefetch_calls.append(tuple(sources))
            return original_prefetch(sources)

        def walk_distance(root, leaf, leaf_row=None):
            value = original_walk(root, leaf, leaf_row)
            spy.walk_calls += 1
            spy.walks += value is not None
            return value

        def distance(context, source, target):
            start = context.request.start
            if start not in (source, target) and source != target:
                root = min(source, target)
                spy.asked_roots.add(root)
                key = (root, max(source, target))
                # the grids are connected: a pooled tree reaches every leaf
                if key not in context.shared_distances:
                    spy.expected_hits += 1
            return original_distance(context, source, target)

        self._patches = [
            mock.patch.object(engine, "prefetch_trees", prefetch_trees),
            mock.patch.object(engine, "walk_distance", walk_distance),
            mock.patch.object(BatchMatchContext, "distance", distance),
        ]
        for patch in self._patches:
            patch.start()
        return self

    def __exit__(self, *exc):
        for patch in self._patches:
            patch.stop()


@given(busy_fleet_scenarios())
@settings(max_examples=60, deadline=None)
def test_leg_prefetch_equals_sequential_on_busy_fleets(scenario):
    """The demand pool is pure restructuring.  Against a fleet that has been
    driven busy, a burst answered through ``dispatch_batch`` -- whatever the
    backend or the engine's tree-cache size -- equals the sequential loop
    byte for byte, while the pool asks the engine for each root at most once
    and only for roots some verification really asked."""
    sequential = _driven_dispatcher(scenario)
    batched = _driven_dispatcher(scenario)
    assert _fleet_state(sequential.fleet) == _fleet_state(batched.fleet)
    burst, policy = scenario["burst"], scenario["policy"]

    loop_outcomes = dispatch_sequential(sequential, burst, policy)
    with _PoolSpy(batched.fleet.routing_engine) as spy:
        pipeline_outcomes = batched.dispatch_batch(burst, policy=policy)

    assert len(loop_outcomes) == len(pipeline_outcomes)
    for loop, pipe in zip(loop_outcomes, pipeline_outcomes):
        assert loop.options == pipe.options
        assert loop.chosen == pipe.chosen
    assert _fleet_state(sequential.fleet) == _fleet_state(batched.fleet)

    # One bulk call for the distinct starts, then one call per demanded
    # root: no root is ever asked twice, and none that no leg query was
    # rooted at.
    starts = list(dict.fromkeys(batched.normalise(request).start for request in burst))
    assert spy.prefetch_calls[0] == tuple(starts)
    demanded = [root for call in spy.prefetch_calls[1:] for root in call]
    assert all(len(call) == 1 for call in spy.prefetch_calls[1:])
    assert len(set(demanded)) == len(demanded)
    assert not set(demanded) & set(starts)
    assert set(demanded) <= spy.asked_roots

    # every memo miss is answered from a pooled tree or by a certified walk
    # over the leaf's tree, never by the engine's own query
    stats = batched.last_batch_statistics
    assert stats.prefetched_trees == len(starts)
    assert stats.leg_sources_prefetched == len(demanded)
    assert stats.leg_tree_hits + stats.leg_walks == spy.expected_hits
    # an unpooled root is walked first; only a walk that did not answer
    # demands the root's tree
    assert stats.leg_walks == spy.walks
    assert spy.walk_calls == spy.walks + len(demanded)
    if spy.asked_roots:
        assert stats.leg_tree_hits + stats.leg_walks > 0
    payload = counters(stats)
    assert payload["leg_sources_prefetched"] == float(stats.leg_sources_prefetched)
    assert payload["leg_tree_hits"] == float(stats.leg_tree_hits)
    assert payload["leg_walks"] == float(stats.leg_walks)


def _island_city(backend):
    """A dispatcher whose second taxi is stranded on an island vertex, and a
    three-request burst whose middle request is the one that considers it."""
    network = grid_network(6, 6, weight_jitter=0.2, seed=4)
    vertices = network.vertices()
    far = network.coordinate(vertices[-1])
    network.add_vertex(9_001, x=far.x, y=far.y)
    config = SystemConfig(max_waiting=2.0, service_constraint=0.6)
    fleet = build_fleet(network, [vertices[0], 9_001], grid_rows=3, grid_columns=3)
    fleet.set_routing_engine(make_engine(network, backend))
    dispatcher = Dispatcher(fleet, SingleSideSearchMatcher(fleet, config=config), config)
    requests = [
        Request(start=start, destination=destination, riders=1, max_waiting=2.0,
                service_constraint=0.6, request_id=f"e{index}")
        for index, (start, destination) in enumerate(
            [(vertices[1], vertices[8]), (vertices[-2], vertices[-9]), (vertices[2], vertices[9])]
        )
    ]
    return dispatcher, requests


def _dispatch_one_by_one(dispatcher, requests):
    for request in requests:
        dispatcher.dispatch(request)


PIPELINES = {
    "dispatch_batch": lambda dispatcher, requests: dispatcher.dispatch_batch(requests),
    "dispatch": _dispatch_one_by_one,
}


@pytest.mark.parametrize("backend", ROUTING_ARMS)
@pytest.mark.parametrize("entry", sorted(PIPELINES))
def test_unreachable_vehicle_raises_at_the_same_turn_as_the_loop(entry, backend):
    """A taxi stranded on an island makes the verification of the one request
    that considers it raise.  ``dispatch_batch`` on the burst, and ``dispatch``
    request after request, raise the loop's error at the loop's turn: the
    request before it is committed, the one after it is never reached."""

    def _run(pipeline):
        dispatcher, requests = _island_city(backend)
        answered = []
        dispatcher.outcome_listener = answered.append
        with pytest.raises(Exception) as raised:
            pipeline(dispatcher, requests)
        return (
            raised.value,
            [outcome.request.request_id for outcome in answered],
            _fleet_state(dispatcher.fleet),
        )

    loop_error, loop_answered, loop_fleet = _run(dispatch_sequential)
    pipe_error, pipe_answered, pipe_fleet = _run(PIPELINES[entry])
    assert isinstance(loop_error, DisconnectedError)
    assert type(pipe_error) is type(loop_error)
    assert pipe_error.args == loop_error.args
    assert pipe_answered == loop_answered == ["e0"]
    assert pipe_fleet == loop_fleet


def _fixed_city(backend):
    """A deterministic small city (identical per call, per backend)."""
    network = grid_network(6, 6, weight_jitter=0.35, seed=23)
    rng = random.Random(23)
    vertices = network.vertices()
    locations = [rng.choice(vertices) for _ in range(8)]
    fleet = build_fleet(network, locations, capacity=4, grid_rows=3, grid_columns=3)
    fleet.set_routing_engine(make_engine(network, backend))
    config = SystemConfig(max_waiting=6.0, service_constraint=0.6, max_pickup_distance=10.0)
    dispatcher = Dispatcher(fleet, SingleSideSearchMatcher(fleet, config=config), config)
    burst = random_requests(network, 10, 6.0, 0.6, seed=24, id_prefix="p-")
    return dispatcher, burst


def _outcome_key(outcome):
    return (outcome.request.request_id, outcome.options, outcome.chosen)


@pytest.mark.parametrize("backend", ROUTING_ARMS)
def test_fixed_burst_equals_the_loop(backend):
    """One ten-request burst on a fixed city, on every routing arm."""
    sequential, burst = _fixed_city(backend)
    loop_outcomes = dispatch_sequential(sequential, burst, OptionPolicy.CHEAPEST)
    batched, _ = _fixed_city(backend)
    pipeline_outcomes = batched.dispatch_batch(burst, policy=OptionPolicy.CHEAPEST)

    assert list(map(_outcome_key, pipeline_outcomes)) == list(map(_outcome_key, loop_outcomes))
    assert _fleet_state(batched.fleet) == _fleet_state(sequential.fleet)
    assert batched.last_batch_statistics.requests == len(burst)


@pytest.mark.parametrize("backend", ROUTING_ARMS)
def test_consecutive_batches_equal_the_loop(backend):
    """A dispatcher serves batch after batch: the second burst sees the
    first one's commits exactly as the loop does."""
    sequential, burst = _fixed_city(backend)
    loop_outcomes = dispatch_sequential(sequential, burst, OptionPolicy.CHEAPEST)

    batched, _ = _fixed_city(backend)
    pipeline_outcomes = batched.dispatch_batch(burst[:5], policy=OptionPolicy.CHEAPEST)
    assert batched.last_batch_statistics.requests == 5
    pipeline_outcomes += batched.dispatch_batch(burst[5:], policy=OptionPolicy.CHEAPEST)
    assert batched.last_batch_statistics.requests == len(burst) - 5

    assert list(map(_outcome_key, pipeline_outcomes)) == list(map(_outcome_key, loop_outcomes))
    assert _fleet_state(batched.fleet) == _fleet_state(sequential.fleet)


def test_the_reference_loop_never_pools():
    """The oracle builds every context per request: with ``BatchContext``
    unusable it still answers the whole burst, so the equivalence tests above
    never compare the pipeline with itself."""
    dispatcher, burst = _fixed_city("csr")
    with mock.patch.object(BatchContext, "create", side_effect=AssertionError("pooled")):
        outcomes = dispatch_sequential(dispatcher, burst, OptionPolicy.CHEAPEST)
        answers = match_sequential(dispatcher, burst)
    assert len(outcomes) == len(answers) == len(burst)
    assert any(outcome.matched for outcome in outcomes)
