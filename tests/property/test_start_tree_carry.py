"""The start trees a dispatcher carries from one batch into the next.

``Dispatcher.dispatch_batch`` hands each batch's pooled start rows to the
next batch (``BatchContext.create``'s ``carried``), so a start vertex that
recurs from one window to the next is not rooted again.  The carry moves no
answer: consecutive windows equal the sequential loop of
``tests/dispatch_reference.py`` byte for byte, whatever the engine's tree
cache evicts in between.  A carried row is reused only on the graph it was
built on, and ``PTRiderService.close()`` drops the carry.
"""

from __future__ import annotations

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import build_system
from repro.core.batch import BatchContext
from repro.core.config import SystemConfig
from repro.core.dispatcher import Dispatcher, OptionPolicy
from repro.core.single_side import SingleSideSearchMatcher
from repro.model.request import Request
from repro.roadnet.generators import grid_network
from repro.roadnet.routing import CSRGraph, make_engine

from tests.conftest import build_fleet
from tests.dispatch_reference import dispatch_sequential
from tests.property.test_batch_equivalence import MATCHERS, _fleet_state
from tests.routing_arms import ROUTING_ARMS


@st.composite
def window_scenarios(draw):
    """A fleet blueprint and 3-5 consecutive windows whose starts recur."""
    seed = draw(st.integers(min_value=0, max_value=100_000))
    rng = random.Random(seed)
    network = grid_network(
        draw(st.integers(min_value=4, max_value=6)),
        draw(st.integers(min_value=4, max_value=6)),
        weight_jitter=0.4,
        seed=seed,
    )
    vertices = network.vertices()
    locations = [rng.choice(vertices) for _ in range(draw(st.integers(min_value=1, max_value=6)))]
    grid_rows = draw(st.integers(min_value=2, max_value=4))
    hotspots = rng.sample(vertices, draw(st.integers(min_value=1, max_value=3)))
    windows = []
    for window in range(draw(st.integers(min_value=3, max_value=5))):
        requests = []
        for index in range(draw(st.integers(min_value=1, max_value=4))):
            start = rng.choice(hotspots) if rng.random() < 0.75 else rng.choice(vertices)
            destination = rng.choice([v for v in vertices if v != start])
            requests.append(
                Request(
                    start=start, destination=destination, riders=rng.randint(1, 2),
                    max_waiting=6.0, service_constraint=0.6,
                    request_id=f"w{window}-{seed}-{index}",
                )
            )
        windows.append(requests)
    return {
        "blueprint": (network, locations, grid_rows),
        "windows": windows,
        "matcher": draw(st.sampled_from(sorted(MATCHERS))),
        "policy": draw(st.sampled_from([OptionPolicy.CHEAPEST, OptionPolicy.FASTEST])),
        "cache": draw(st.sampled_from([1, 2])),
    }


def _dispatcher(scenario, backend):
    network, locations, grid_rows = scenario["blueprint"]
    config = SystemConfig(max_waiting=6.0, service_constraint=0.6)
    fleet = build_fleet(network, locations, capacity=4, grid_rows=grid_rows, grid_columns=grid_rows)
    fleet.set_routing_engine(
        make_engine(network, backend, max_cached_sources=scenario["cache"])
    )
    return Dispatcher(fleet, MATCHERS[scenario["matcher"]](fleet, config=config), config)


class _RootSpy:
    """Records the root of every tree ``graph`` computes."""

    def __init__(self, graph):
        self.graph = graph
        self.roots = set()

    def __enter__(self):
        spy = self
        original_tree, original_trees = CSRGraph.tree, CSRGraph.trees

        def tree(graph, source_index):
            if graph is spy.graph:
                spy.roots.add(graph.vertex_ids[source_index])
            return original_tree(graph, source_index)

        def trees(graph, source_indices):
            if graph is spy.graph:
                spy.roots.update(graph.vertex_ids[index] for index in source_indices)
            return original_trees(graph, source_indices)

        self._patches = [
            mock.patch.object(CSRGraph, "tree", tree),
            mock.patch.object(CSRGraph, "trees", trees),
        ]
        for patch in self._patches:
            patch.start()
        return self

    def __exit__(self, *exc):
        for patch in self._patches:
            patch.stop()


@pytest.mark.parametrize("backend", ROUTING_ARMS)
@given(window_scenarios())
@settings(max_examples=20, deadline=None)
def test_consecutive_windows_equal_the_loop_and_root_no_recurring_start(backend, scenario):
    """Window after window on a one- or two-tree cache, the batched pipeline
    equals the sequential loop byte for byte, and a start the previous window
    also started from is taken from the carry: never rooted again, never
    asked of the engine."""
    sequential = _dispatcher(scenario, backend)
    batched = _dispatcher(scenario, backend)
    engine = batched.fleet.routing_engine
    policy = scenario["policy"]
    previous = set()
    for window in scenario["windows"]:
        loop_outcomes = dispatch_sequential(sequential, window, policy)
        asked = []
        original_prefetch = engine.prefetch_trees

        def prefetch_trees(sources):
            asked.extend(sources)
            return original_prefetch(sources)

        with _RootSpy(engine.graph) as spy, mock.patch.object(
            engine, "prefetch_trees", prefetch_trees
        ):
            pipeline_outcomes = batched.dispatch_batch(window, policy=policy)

        assert [(o.options, o.chosen) for o in loop_outcomes] == [
            (o.options, o.chosen) for o in pipeline_outcomes
        ]
        assert _fleet_state(sequential.fleet) == _fleet_state(batched.fleet)
        starts = {request.start for request in window}
        recurring = starts & previous
        assert not spy.roots & recurring
        assert not set(asked) & recurring
        statistics = batched.last_batch_statistics
        assert statistics.carried_trees == len(recurring)
        assert statistics.prefetched_trees == len(starts)
        assert set(batched.last_start_trees) == starts
        previous = starts


def _city(backend):
    network = grid_network(6, 6, weight_jitter=0.3, seed=8)
    vertices = network.vertices()
    config = SystemConfig(max_waiting=6.0, service_constraint=0.6)
    fleet = build_fleet(network, [vertices[0], vertices[20], vertices[35]], grid_rows=3, grid_columns=3)
    fleet.set_routing_engine(make_engine(network, backend, max_cached_sources=2))
    dispatcher = Dispatcher(fleet, SingleSideSearchMatcher(fleet, config=config), config)
    return dispatcher, vertices


def _window(vertices, tag):
    return [
        Request(start=vertices[start], destination=vertices[destination], riders=1,
                max_waiting=6.0, service_constraint=0.6, request_id=f"{tag}{index}")
        for index, (start, destination) in enumerate([(7, 30), (14, 2), (7, 25)])
    ]


@pytest.mark.parametrize("backend", ROUTING_ARMS)
def test_no_carried_row_survives_invalidate(backend):
    """After ``engine.invalidate()`` the next window roots every start on the
    recompiled graph: nothing is carried, every pooled row is the new
    graph's, and the answers equal a fresh dispatcher's."""
    dispatcher, vertices = _city(backend)
    dispatcher.dispatch_batch(_window(vertices, "a"))
    assert dispatcher.last_batch_statistics.carried_trees == 0
    dispatcher.dispatch_batch(_window(vertices, "b"))
    assert dispatcher.last_batch_statistics.carried_trees == 2

    engine = dispatcher.fleet.routing_engine
    stale = dict(dispatcher.last_start_trees)
    engine.invalidate()
    outcomes = dispatcher.dispatch_batch(_window(vertices, "c"))
    assert dispatcher.last_batch_statistics.carried_trees == 0
    assert dispatcher.last_batch_statistics.prefetched_trees == 2
    for start, view in dispatcher.last_start_trees.items():
        assert view.index_of is engine.graph.index_of
        assert view is not stale[start]

    reference, _ = _city(backend)
    for tag in "ab":
        reference.dispatch_batch(_window(vertices, tag))
    assert [o.options for o in outcomes] == [
        o.options for o in reference.dispatch_batch(_window(vertices, "c"))
    ]


@pytest.mark.parametrize("backend", ROUTING_ARMS)
def test_rows_of_another_engine_are_not_carried(backend):
    """A view built on another engine's graph -- a backend switch hands the
    fleet a new engine -- is never pooled, even for the same network."""
    dispatcher, vertices = _city(backend)
    dispatcher.dispatch_batch(_window(vertices, "a"))
    carried = dispatcher.last_start_trees
    fleet = dispatcher.fleet
    other = make_engine(fleet.grid.network, backend, max_cached_sources=2)
    batch = BatchContext.create(_window(vertices, "b"), other, fleet.grid, carried=carried)
    assert batch.statistics.carried_trees == 0
    assert batch.statistics.prefetched_trees == 2
    assert all(view.index_of is other.graph.index_of for view in batch.start_trees.values())


def _service_window(system):
    vertices = system.fleet.grid.network.vertices()
    for start, destination in [(5, 130), (20, 100), (5, 180)]:
        system.ingest(vertices[start], vertices[destination])
    system.advance(1.5)
    return system.pump()


def test_a_backend_switch_carries_nothing():
    """``set_parameters(routing_backend=...)`` rebuilds the engine and the
    dispatcher: the next window carries no row of the old engine."""
    system = build_system(vehicles=10, seed=11)
    _service_window(system)
    _service_window(system)
    assert system.dispatcher.last_batch_statistics.carried_trees == 2
    system.set_parameters(routing_backend="csr+alt")
    _service_window(system)
    engine = system.fleet.routing_engine
    assert engine.backend == "csr+alt"
    assert system.dispatcher.last_batch_statistics.carried_trees == 0
    assert system.dispatcher.last_start_trees
    assert all(
        view.index_of is engine.graph.index_of
        for view in system.dispatcher.last_start_trees.values()
    )


def test_close_releases_the_carry():
    system = build_system(vehicles=10, seed=11)
    _service_window(system)
    assert len(system.dispatcher.last_start_trees) == 2
    system.close()
    assert system.dispatcher.last_start_trees == {}
    # the service stays usable: the next window roots its starts again
    _service_window(system)
    assert system.dispatcher.last_batch_statistics.carried_trees == 0
    assert len(system.dispatcher.last_start_trees) == 2
