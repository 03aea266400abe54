"""The rows an engine retains: one per live fleet stop and recent start.

``CSREngine.pinned`` holds rows outside the engine's FIFO tree cache, read
after it for root and leaf rows alike.  A pinned row is the engine's own row
for its root on its current graph, so an engine with pins answers every
query bit for bit as one without.  At the end of each window the dispatcher
names the roots to retain -- the stops of waiting and riding requests and
the window's starts -- and ``CSREngine.retain`` takes their rows from the
window's pool or the previous pins.  Consecutive windows and a driven day on
a one- or two-tree cache equal the sequential loop of
``tests/dispatch_reference.py`` window after window; a start that recurs
from one window to the next is never rooted again; after every window the
pinned roots are live stops or that window's starts, and nothing stays
pinned after ``invalidate()``, a backend switch or ``close()``.
"""

from __future__ import annotations

import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SystemConfig
from repro.core.dispatcher import Dispatcher, OptionPolicy
from repro.core.single_side import SingleSideSearchMatcher
from repro.errors import VertexNotFoundError
from repro.model.request import Request
from repro.roadnet.generators import grid_network
from repro.roadnet.routing import CSRGraph, make_engine
from repro.service.api import PTRiderService, assemble_fleet
from repro.sim.engine import SimulationEngine
from repro.sim.workload import RequestWorkload

from tests.conftest import build_fleet
from tests.crash import kill
from tests.dispatch_reference import dispatch_sequential
from tests.property.test_batch_equivalence import MATCHERS, _fleet_state
from tests.routing_arms import ROUTING_ARMS

QUERIES = ("distance", "path", "walk_distance", "distances_from", "prefetch_trees")


def _live_stops(fleet) -> Counter:
    """The stop vertices of the fleet's committed requests, counted from the
    vehicles themselves: a waiting request's start and destination, a riding
    one's destination."""
    stops = Counter()
    for vehicle in fleet.vehicles():
        for state in vehicle.waiting_requests.values():
            stops[state.request.start] += 1
        for state in vehicle.request_states().values():
            stops[state.request.destination] += 1
    return stops


def _pinned_roots(engine) -> set:
    return {engine.graph.vertex_ids[index] for index in engine.pinned}


def _assert_pins_are_the_engines_own(engine) -> None:
    for index, row in engine.pinned.items():
        assert row.tobytes() == engine.graph.tree(index).tobytes()


# ----------------------------------------------------------------------
# the engine: pinned rows answer as cached ones
# ----------------------------------------------------------------------
@st.composite
def pinned_engines(draw):
    seed = draw(st.integers(min_value=0, max_value=100_000))
    network = grid_network(
        draw(st.integers(min_value=3, max_value=6)),
        draw(st.integers(min_value=3, max_value=6)),
        weight_jitter=0.4,
        seed=seed,
    )
    vertices = network.vertices()
    vertex = st.sampled_from(vertices)
    return {
        "network": network,
        "cache": draw(st.sampled_from([1, 2])),
        "pinned": draw(st.lists(vertex, unique=True, max_size=len(vertices) // 2)),
        "queries": draw(
            st.lists(st.tuples(st.sampled_from(QUERIES), vertex, vertex), min_size=1, max_size=30)
        ),
    }


def _answer(engine, kind, u, v):
    """One query's answer, floats as their bytes."""
    if kind == "distance":
        return engine.distance(u, v).hex()
    if kind == "path":
        result = engine.path(u, v)
        return result.distance.hex(), result.path
    if kind == "walk_distance":
        # callers walk towards the canonical root (the smaller id), and
        # ``None`` says: take that root's tree, which ``distance`` reads
        root, leaf = min(u, v), max(u, v)
        walked = engine.walk_distance(root, leaf)
        return (engine.distance(root, leaf) if walked is None else walked).hex()
    if kind == "distances_from":
        return engine.distances_from(u).row.tobytes()
    return [(source, view.row.tobytes()) for source, view in engine.prefetch_trees([u, v]).items()]


@pytest.mark.parametrize("backend", ROUTING_ARMS)
@given(pinned_engines())
@settings(max_examples=30, deadline=None)
def test_an_engine_with_pinned_rows_answers_bit_for_bit(backend, scenario):
    network, cache = scenario["network"], scenario["cache"]
    plain = make_engine(network, backend, max_cached_sources=cache)
    pinned = make_engine(network, backend, max_cached_sources=cache)
    graph = pinned.graph
    pinned.pinned = {
        graph.index_of[vertex]: graph.tree(graph.index_of[vertex]) for vertex in scenario["pinned"]
    }
    for kind, u, v in scenario["queries"]:
        assert _answer(pinned, kind, u, v) == _answer(plain, kind, u, v), (kind, u, v)
    pinned.invalidate()
    assert pinned.pinned == {}


def test_a_pinned_read_counts_as_a_pinned_hit_not_a_cache_hit():
    network = grid_network(4, 4, weight_jitter=0.3, seed=3)
    engine = make_engine(network, max_cached_sources=1)
    root, other = network.vertices()[0], network.vertices()[5]
    engine.pinned = {0: engine.graph.tree(0)}
    engine.distances_from(root)
    engine.prefetch_trees([root])
    engine.distance(root, other)
    stats = engine.stats
    assert (stats.pinned_hits, stats.cache_hits, stats.dijkstra_runs) == (3, 0, 0)


def test_retain_keeps_only_the_named_roots_of_the_current_graph():
    """``retain`` keeps a named root's row from the pool when it is this
    engine's current graph's, else the row it kept before; an unnamed root,
    an unknown one and another graph's row are not kept."""
    network = grid_network(4, 4, weight_jitter=0.3, seed=3)
    engine = make_engine(network, max_cached_sources=1)
    a, b, c, d = network.vertices()[:4]
    index_of = engine.graph.index_of
    pool = dict(engine.prefetch_trees([a, b, c]))
    pool[d] = make_engine(network, max_cached_sources=1).prefetch_trees([d])[d]
    runs = engine.stats.dijkstra_runs
    engine.retain([a, b, d, 99_999], pool)
    assert _pinned_roots(engine) == {a, b}
    assert engine.pinned[index_of[a]] is pool[a].row
    # a root the pool lacks keeps its previous row; one never kept stays out
    engine.retain([a, c], {})
    assert _pinned_roots(engine) == {a}
    assert engine.pinned[index_of[a]] is pool[a].row
    assert engine.stats.dijkstra_runs == runs  # nothing is rooted to keep it
    engine.invalidate()
    assert engine.pinned == {}
    engine.retain([a, b], pool)  # the pool's rows are the old graph's
    assert engine.pinned == {}

    roomy = make_engine(network, max_cached_sources=len(network.vertices()))
    roomy.retain([a], roomy.prefetch_trees([a]))
    assert roomy.pinned == {}  # a cache with a slot per vertex evicts nothing


# ----------------------------------------------------------------------
# the dispatcher: consecutive windows whose starts recur
# ----------------------------------------------------------------------
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
    also started from is read from the engine's retained rows: never rooted
    again."""
    sequential = _dispatcher(scenario, backend)
    batched = _dispatcher(scenario, backend)
    engine = batched.fleet.routing_engine
    policy = scenario["policy"]
    previous = set()
    for window in scenario["windows"]:
        loop_outcomes = dispatch_sequential(sequential, window, policy)
        with _RootSpy(engine.graph) as spy:
            pipeline_outcomes = batched.dispatch_batch(window, policy=policy)

        assert [(o.options, o.chosen) for o in loop_outcomes] == [
            (o.options, o.chosen) for o in pipeline_outcomes
        ]
        assert _fleet_state(sequential.fleet) == _fleet_state(batched.fleet)
        starts = {request.start for request in window}
        recurring = starts & previous
        assert not spy.roots & recurring
        statistics = batched.last_batch_statistics
        assert statistics.prefetched_trees == len(starts)
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
def test_a_start_whose_request_got_no_option_is_retained_for_one_window(backend):
    """A window retains its starts whether or not their requests were
    served: the next window reads such a start's row instead of rooting it
    again, and the first window that neither starts nor stops there drops
    it."""
    dispatcher, vertices = _city(backend)
    engine = dispatcher.fleet.routing_engine
    lonely = vertices[12]

    def too_many_riders(tag):  # more riders than any taxi seats
        return [
            Request(start=lonely, destination=vertices[33], riders=5, max_waiting=6.0,
                    service_constraint=0.6, request_id=tag)
        ]

    [outcome] = dispatcher.dispatch_batch(too_many_riders("x0"))
    assert outcome.options == ()
    assert lonely in _pinned_roots(engine)
    for vertex in vertices[:2]:  # push its row out of the two-tree cache
        engine.distances_from(vertex)
    hits = engine.stats.pinned_hits
    with _RootSpy(engine.graph) as spy:
        [outcome] = dispatcher.dispatch_batch(too_many_riders("x1"))
    assert outcome.options == ()
    assert lonely not in spy.roots
    assert engine.stats.pinned_hits > hits
    dispatcher.dispatch_batch(_window(vertices, "a"))
    assert lonely not in _pinned_roots(engine)
    _assert_pins_are_the_engines_own(engine)


@pytest.mark.parametrize("backend", ROUTING_ARMS)
def test_a_window_that_raises_at_a_turn_still_retains_its_starts(backend):
    """A turn that raises (an unknown start) ends the window early; the
    starts it already pooled are retained all the same, so the rest of the
    window, re-queued by the ingest queue, finds its start rows kept."""
    dispatcher, vertices = _city(backend)
    engine = dispatcher.fleet.routing_engine
    window = _window(vertices, "a")
    window.insert(1, Request(start=99_999, destination=vertices[30], riders=1, max_waiting=6.0,
                             service_constraint=0.6, request_id="unknown"))
    with pytest.raises(VertexNotFoundError):
        dispatcher.dispatch_batch(window)
    assert {vertices[7], vertices[14]} <= _pinned_roots(engine)
    _assert_pins_are_the_engines_own(engine)


@pytest.mark.parametrize("backend", ROUTING_ARMS)
def test_no_retained_row_survives_invalidate(backend):
    """After ``engine.invalidate()`` the next window roots every start on the
    recompiled graph: no row kept before is read or kept again, every pin is
    the new graph's, and the answers equal a fresh dispatcher's."""
    dispatcher, vertices = _city(backend)
    engine = dispatcher.fleet.routing_engine
    dispatcher.dispatch_batch(_window(vertices, "a"))
    dispatcher.dispatch_batch(_window(vertices, "b"))
    starts = {vertices[7], vertices[14]}
    assert starts <= _pinned_roots(engine)

    stale = list(engine.pinned.values())  # held, so no id is reused
    engine.invalidate()
    assert engine.pinned == {}
    with _RootSpy(engine.graph) as spy:
        outcomes = dispatcher.dispatch_batch(_window(vertices, "c"))
    assert starts <= spy.roots
    assert dispatcher.last_batch_statistics.prefetched_trees == 2
    assert starts <= _pinned_roots(engine)
    assert not {id(row) for row in engine.pinned.values()} & {id(row) for row in stale}
    _assert_pins_are_the_engines_own(engine)

    reference, _ = _city(backend)
    for tag in "ab":
        reference.dispatch_batch(_window(vertices, tag))
    assert [o.options for o in outcomes] == [
        o.options for o in reference.dispatch_batch(_window(vertices, "c"))
    ]


@pytest.mark.parametrize("backend", ROUTING_ARMS)
def test_rows_of_another_engine_are_not_retained(backend):
    """A fleet handed a new engine on the same network between two windows,
    with the dispatcher rebuilt as the service does: the next window roots
    its recurring starts on the new engine's graph and the new engine keeps
    no row of the old one."""
    dispatcher, vertices = _city(backend)
    fleet = dispatcher.fleet
    old = fleet.routing_engine
    dispatcher.dispatch_batch(_window(vertices, "a"))
    starts = {vertices[7], vertices[14]}
    assert starts <= _pinned_roots(old)
    old_rows = {id(row) for row in old.pinned.values()}

    other = make_engine(fleet.grid.network, backend, max_cached_sources=2)
    fleet.set_routing_engine(other)
    config = dispatcher.config
    dispatcher = Dispatcher(fleet, SingleSideSearchMatcher(fleet, config=config), config)
    with _RootSpy(other.graph) as spy:
        dispatcher.dispatch_batch(_window(vertices, "b"))
    assert starts <= spy.roots
    assert dispatcher.last_batch_statistics.prefetched_trees == 2
    assert starts <= _pinned_roots(other)
    assert not {id(row) for row in other.pinned.values()} & old_rows
    _assert_pins_are_the_engines_own(other)


# ----------------------------------------------------------------------
# the dispatcher: a driven day against the sequential loop
# ----------------------------------------------------------------------
@st.composite
def driven_days(draw):
    seed = draw(st.integers(min_value=0, max_value=100_000))
    rng = random.Random(seed)
    network = grid_network(
        draw(st.integers(min_value=4, max_value=6)),
        draw(st.integers(min_value=4, max_value=6)),
        weight_jitter=0.4,
        seed=seed,
    )
    vertices = network.vertices()
    return {
        "seed": seed,
        "blueprint": (
            network,
            [rng.choice(vertices) for _ in range(draw(st.integers(min_value=1, max_value=5)))],
            draw(st.integers(min_value=2, max_value=3)),
        ),
        "windows": draw(st.lists(st.integers(min_value=0, max_value=3), min_size=4, max_size=10)),
        "matcher": draw(st.sampled_from(sorted(MATCHERS))),
        "policy": draw(st.sampled_from([OptionPolicy.CHEAPEST, OptionPolicy.FASTEST])),
        "cache": draw(st.sampled_from([1, 2])),
        "speed": draw(st.sampled_from([0.6, 1.5])),
    }


def _world(scenario, backend):
    network, locations, grid_rows = scenario["blueprint"]
    config = SystemConfig(max_waiting=6.0, service_constraint=0.6)
    fleet = build_fleet(
        network, locations, capacity=3, grid_rows=grid_rows, grid_columns=grid_rows
    )
    fleet.set_routing_engine(make_engine(network, backend, max_cached_sources=scenario["cache"]))
    dispatcher = Dispatcher(fleet, MATCHERS[scenario["matcher"]](fleet, config=config), config)
    simulation = SimulationEngine(
        dispatcher, RequestWorkload([]), speed=scenario["speed"], seed=scenario["seed"]
    )
    return dispatcher, simulation


def _registering(simulation):
    def register(outcome):
        if outcome.chosen is not None:
            chosen = outcome.chosen
            simulation.register_assignment(
                outcome.request.request_id, chosen.vehicle_id, chosen.pickup_distance
            )

    return register


@pytest.mark.parametrize("backend", ROUTING_ARMS)
@given(driven_days())
@settings(max_examples=15, deadline=None)
def test_a_driven_day_equals_the_loop_and_pins_only_live_stops_and_starts(backend, scenario):
    """Window after window, with taxis moving and serving stops in between,
    the pinning dispatcher equals the loop byte for byte; its counts of live
    stops equal the fleet's, and its pins are rows rooted at live stops or
    at the window's starts, every start among them.  Request ids recur once
    their first request is no longer live."""
    loop, loop_world = _world(scenario, backend)
    pinning, world = _world(scenario, backend)
    engine = pinning.fleet.routing_engine
    vertices = scenario["blueprint"][0].vertices()
    rng = random.Random(scenario["seed"])
    used = []
    for tick, size in enumerate(scenario["windows"]):
        taken = {rid for v in pinning.fleet.vehicles() for rid in v.unfinished_request_ids()}
        window = []
        for index in range(size):
            free = [rid for rid in used if rid not in taken]
            if free and rng.random() < 0.5:
                request_id = rng.choice(free)
            else:
                request_id = f"t{tick}-{index}"
                used.append(request_id)
            taken.add(request_id)
            start = rng.choice(vertices)
            window.append(
                Request(
                    start=start, destination=rng.choice([v for v in vertices if v != start]),
                    riders=rng.randint(1, 2), max_waiting=6.0, service_constraint=0.6,
                    request_id=request_id,
                )
            )
        loop_outcomes = dispatch_sequential(loop, window, scenario["policy"])
        for outcome in loop_outcomes:
            _registering(loop_world)(outcome)
        outcomes = pinning.dispatch_batch(
            window, policy=scenario["policy"], on_outcome=_registering(world)
        )
        assert [(o.options, o.chosen) for o in outcomes] == [
            (o.options, o.chosen) for o in loop_outcomes
        ]
        assert _fleet_state(pinning.fleet) == _fleet_state(loop.fleet)
        live = _live_stops(pinning.fleet)
        assert pinning._live_stops == dict(live)
        if window:
            starts = {request.start for request in window}
            assert starts <= _pinned_roots(engine) <= set(live) | starts
        _assert_pins_are_the_engines_own(engine)
        loop_world.step()
        world.step()
        assert _fleet_state(pinning.fleet) == _fleet_state(loop.fleet)
        assert pinning._live_stops == dict(_live_stops(pinning.fleet))
    pinning.release_trees()
    assert engine.pinned == {}


# ----------------------------------------------------------------------
# the service: what a rebuild, a backend switch, a recovery and close() do
# ----------------------------------------------------------------------
def _service(tree_cache=4, **overrides):
    network = grid_network(10, 10, weight_jitter=0.3, seed=8)
    config = SystemConfig(max_waiting=6.0, service_constraint=0.6).with_knobs(
        overrides, running=False
    )
    fleet = assemble_fleet(network, config, 12, 8, max_cached_sources=tree_cache)
    return PTRiderService(fleet, config=config, seed=8)


def _windows(system, count, offset=0):
    """Serve ``count`` windows; return the last one's starts."""
    vertices = system.fleet.grid.network.vertices()
    for window in range(offset, offset + count):
        starts = set()
        for index in range(4):
            start = vertices[(window * 13 + index * 29) % len(vertices)]
            starts.add(start)
            system.ingest(start, vertices[(window * 7 + index * 31 + 50) % len(vertices)])
        system.advance(1.0)
        system.pump()
        live = _live_stops(system.fleet)
        assert system.dispatcher._live_stops == dict(live)
        assert _pinned_roots(system.fleet.routing_engine) <= set(live) | starts
    return starts


def test_a_rebuilt_dispatcher_and_close_keep_and_drop_the_pins():
    system = _service()
    _windows(system, 4)
    engine = system.fleet.routing_engine
    assert engine.pinned
    _assert_pins_are_the_engines_own(engine)
    system.set_parameters(max_waiting=7.0)  # a new dispatcher counts the fleet's stops
    assert system.dispatcher._live_stops == dict(_live_stops(system.fleet))
    _windows(system, 2, offset=4)
    assert engine.pinned
    system.close()
    assert engine.pinned == {}
    _windows(system, 1, offset=6)  # still usable: the next window pins again
    assert engine.pinned


def test_a_backend_switch_pins_no_row_of_the_old_engine():
    system = _service()
    _windows(system, 3)
    old = system.fleet.routing_engine
    old_rows = list(old.pinned.values()) + list(old._trees.values())
    assert old_rows
    system.set_parameters(routing_backend="csr+alt")
    new = system.fleet.routing_engine
    assert new is not old and new.pinned == {}
    _windows(system, 3, offset=3)
    assert new.pinned
    assert not {id(row) for row in new.pinned.values()} & {id(row) for row in old_rows}
    _assert_pins_are_the_engines_own(new)
    new.invalidate()
    assert new.pinned == {}


def test_a_cache_with_a_slot_for_every_vertex_pins_nothing():
    """The engine decides whether its cache evicts; one that holds every
    vertex never does, so it retains no row however the dispatcher names
    the roots, and one slot fewer does."""
    system = _service(tree_cache=100)  # the 10 x 10 grid: a slot per vertex
    _windows(system, 4)
    assert system.fleet.routing_engine.pinned == {}
    system = _service(tree_cache=99)
    _windows(system, 4)
    assert system.fleet.routing_engine.pinned


def test_a_recovered_service_counts_the_stops_it_inherited(tmp_path):
    journal = tmp_path / "journal"
    system = _service(
        durability="journal+snapshot", snapshot_interval=5, journal_path=str(journal)
    )
    starts = _windows(system, 5)
    live = dict(_live_stops(system.fleet))
    assert live
    kill(system)
    recovered = PTRiderService.recover(journal)
    try:
        assert recovered.fleet.routing_engine.max_cached_sources == 4
        assert recovered.dispatcher._live_stops == live
        # the replayed tail's windows pin as the live ones did
        assert _pinned_roots(recovered.fleet.routing_engine) <= set(live) | starts
        _windows(recovered, 2, offset=5)
        assert recovered.fleet.routing_engine.pinned
    finally:
        recovered.close()
