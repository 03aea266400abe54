"""Unit tests for the batch dispatch pipeline building blocks."""

from __future__ import annotations

import pytest

from repro.core.batch import BatchContext, BatchStatistics
from repro.core.config import SystemConfig
from repro.core.dispatcher import Dispatcher, OptionPolicy
from repro.core.single_side import SingleSideSearchMatcher
from repro.counters import counters
from repro.errors import DisconnectedError, VertexNotFoundError
from repro.model.options import RideOption, Skyline
from repro.model.request import Request
from repro.roadnet.routing import make_engine
from repro.sim.workload import random_requests

from tests.conftest import build_random_fleet
from tests.dispatch_reference import dispatch_sequential
from tests.routing_arms import ROUTING_ARMS


@pytest.fixture
def fleet():
    return build_random_fleet(vehicles=8, seed=13)


def _requests(fleet, count, seed=31):
    return random_requests(fleet.grid.network, count, 6.0, 0.4, seed=seed)


class TestBatchContext:
    def test_shared_start_vertices_share_one_tree(self, fleet):
        base = _requests(fleet, 1)[0]
        twins = [
            Request(
                start=base.start, destination=base.destination, riders=1,
                max_waiting=6.0, service_constraint=0.4, request_id=f"t{i}",
            )
            for i in range(3)
        ]
        batch = BatchContext.create(twins, fleet.routing_engine, fleet.grid)
        assert batch.statistics.prefetched_trees == 1
        assert batch.statistics.trees_computed == 0
        assert batch.statistics.shared_tree_hits == 2
        assert batch.statistics.shared_tree_hit_rate == pytest.approx(2 / 3)
        trees = {id(batch.context_for(i).start_tree) for i in range(3)}
        assert len(trees) == 1  # literally the same pooled object

    def test_contexts_match_per_request_construction(self, fleet):
        requests = _requests(fleet, 5)
        batch = BatchContext.create(requests, fleet.routing_engine, fleet.grid)
        matcher = SingleSideSearchMatcher(fleet, config=SystemConfig())
        for index, request in enumerate(requests):
            solo = matcher.make_context(request)
            pooled = batch.context_for(index)
            assert pooled.direct == solo.direct
            assert pooled.request is request

    def test_unknown_start_surfaces_at_the_requests_turn(self, fleet):
        good = _requests(fleet, 1)[0]
        bad = Request(
            start=10_000, destination=good.destination, riders=1,
            max_waiting=6.0, service_constraint=0.4, request_id="bad",
        )
        batch = BatchContext.create([good, bad], fleet.routing_engine, fleet.grid)
        batch.context_for(0)  # fine
        with pytest.raises(VertexNotFoundError):
            batch.context_for(1)

    def test_unreachable_destination_recorded_as_disconnected(self, fleet):
        network = fleet.grid.network
        network.add_vertex(10_001, x=0.0, y=0.0)
        fleet.routing_engine.invalidate()
        request = Request(
            start=network.vertices()[0], destination=10_001, riders=1,
            max_waiting=6.0, service_constraint=0.4, request_id="island",
        )
        batch = BatchContext.create([request], fleet.routing_engine, fleet.grid)
        with pytest.raises(DisconnectedError):
            batch.context_for(0)

    def test_statistics_panel(self):
        stats = BatchStatistics(requests=4, trees_computed=3, shared_tree_hits=1)
        flat = counters(stats)
        assert flat["requests"] == 4.0
        assert flat["shared_tree_hit_rate"] == pytest.approx(0.25)
        assert flat["prefetched_trees"] == 0.0
        assert flat["prefetch_seconds"] == 0.0

    def test_nothing_resolved_reads_a_zero_hit_rate(self):
        assert BatchStatistics().shared_tree_hit_rate == 0.0
        assert counters(BatchStatistics(requests=2))["shared_tree_hit_rate"] == 0.0

    def test_prefetched_trees_count_in_the_hit_rate_denominator(self):
        stats = BatchStatistics(
            requests=4, trees_computed=0, shared_tree_hits=1, prefetched_trees=3
        )
        assert stats.shared_tree_hit_rate == pytest.approx(0.25)


class TestBatchPrefetch:
    """The one-shot vectorised tree prefetch of BatchContext.create."""

    @pytest.fixture
    def csr_fleet(self):
        return build_random_fleet(vehicles=6, seed=13)

    def test_distinct_starts_prefetched_in_one_plane(self, csr_fleet):
        requests = _requests(csr_fleet, 6, seed=21)
        engine = csr_fleet.routing_engine
        batch = BatchContext.create(requests, engine, csr_fleet.grid)
        distinct = len({r.start for r in requests})
        assert batch.statistics.prefetched_trees == distinct
        assert batch.statistics.trees_computed == 0
        assert batch.statistics.shared_tree_hits == len(requests) - distinct
        assert batch.statistics.prefetch_seconds > 0.0
        # The double-count fix: one Dijkstra run per distinct start, no
        # matter how many requests consumed each tree.
        assert engine.stats.dijkstra_runs == distinct

    def test_prefetched_contexts_match_per_request_construction(self, csr_fleet):
        requests = _requests(csr_fleet, 5, seed=33)
        batch = BatchContext.create(requests, csr_fleet.routing_engine, csr_fleet.grid)
        matcher = SingleSideSearchMatcher(csr_fleet, config=SystemConfig())
        for index, request in enumerate(requests):
            solo = matcher.make_context(request)
            pooled = batch.context_for(index)
            assert pooled.direct == solo.direct
            assert pooled.from_start(request.destination) == solo.from_start(
                request.destination
            )

    def test_unknown_start_still_surfaces_at_the_requests_turn(self, csr_fleet):
        good = _requests(csr_fleet, 1, seed=3)[0]
        bad = Request(
            start=10_000, destination=good.destination, riders=1,
            max_waiting=6.0, service_constraint=0.4, request_id="bad",
        )
        batch = BatchContext.create(
            [good, bad], csr_fleet.routing_engine, csr_fleet.grid
        )
        batch.context_for(0)  # fine
        with pytest.raises(VertexNotFoundError):
            batch.context_for(1)


class TestDemandPool:
    """The batch-scoped leg-tree pool of ``BatchMatchContext.distance``."""

    @staticmethod
    def _pieces(backend, cache=1024):
        fleet = build_random_fleet(vehicles=4, seed=13)
        network = fleet.grid.network
        network.add_vertex(10_001, x=0.0, y=0.0)  # an island: known, unreachable
        return make_engine(network, backend, max_cached_sources=cache), fleet.grid

    @staticmethod
    def _context(engine, grid):
        vertices = grid.network.vertices()
        request = Request(
            start=vertices[20], destination=vertices[40], riders=1,
            max_waiting=6.0, service_constraint=0.4, request_id="probe",
        )
        batch = BatchContext.create([request], engine, grid)
        return batch, batch.context_for(0)

    @pytest.mark.parametrize("backend", ROUTING_ARMS)
    def test_leg_answers_are_the_engines_own_floats(self, backend):
        engine, grid = self._pieces(backend, cache=1)
        reference, _ = self._pieces(backend)
        batch, context = self._context(engine, grid)
        vertices = grid.network.vertices()
        legs = [(vertices[3], vertices[9]), (vertices[9], vertices[3]),
                (vertices[3], vertices[30]), (vertices[50], vertices[7]),
                (vertices[7], vertices[7])]
        for source, target in legs:
            assert context.distance(source, target) == reference.distance(source, target)
        stats = batch.statistics
        # roots 3 and 7 pooled once each; the repeated pair hit the memo
        assert (stats.leg_sources_prefetched, stats.leg_tree_hits) == (2, 3)

    def test_pooled_root_survives_engine_cache_eviction(self):
        engine, grid = self._pieces("csr", cache=1)
        _, context = self._context(engine, grid)
        vertices = grid.network.vertices()
        context.distance(vertices[3], vertices[9])
        engine.distance(vertices[11], vertices[12])  # evicts root 3 from the engine
        runs = engine.stats.dijkstra_runs
        context.distance(vertices[3], vertices[30])
        assert engine.stats.dijkstra_runs == runs  # answered from the pinned row

    def test_a_request_start_answers_legs_rooted_at_it(self):
        engine, grid = self._pieces("csr")
        vertices = grid.network.vertices()
        requests = [
            Request(start=start, destination=vertices[40], riders=1, max_waiting=6.0,
                    service_constraint=0.4, request_id=f"s{start}")
            for start in (vertices[2], vertices[20])
        ]
        batch = BatchContext.create(requests, engine, grid)
        queries = engine.stats.queries
        # request 1 asks a leg whose canonical root is request 0's start
        value = batch.context_for(1).distance(vertices[30], vertices[2])
        assert value == batch.context_for(0).from_start(vertices[30])
        assert engine.stats.queries == queries
        assert batch.statistics.leg_tree_hits == 1
        assert batch.statistics.leg_sources_prefetched == 0

    @pytest.mark.parametrize("backend", ROUTING_ARMS)
    @pytest.mark.parametrize(
        "leg",
        [(3, 10_001), (10_001, 3), (3, 99_999), (99_999, 3), (-5, 3), (10_001, 99_999)],
        ids=["island-leaf", "island-leaf-reversed", "unknown-leaf", "unknown-leaf-reversed",
             "unknown-root", "island-root-unknown-leaf"],
    )
    def test_unanswerable_legs_raise_exactly_like_the_engine(self, backend, leg):
        engine, grid = self._pieces(backend)
        _, context = self._context(engine, grid)
        source, target = leg
        with pytest.raises((DisconnectedError, VertexNotFoundError)) as expected:
            engine.distance(source, target)
        for _ in range(2):  # the second ask finds the root already pooled
            with pytest.raises(type(expected.value)) as raised:
                context.distance(source, target)
            assert raised.value.args == expected.value.args

    def test_prefetch_share_covers_start_trees_only(self, monkeypatch):
        """``context_seconds`` bills the start-tree prefetch, each start's
        share to its first request and no clock read per request -- never
        the wall of a leg tree, which lands in the turn that demanded it."""
        import repro.core.batch as batch_module

        class _Clock:
            now = 0.0

            def perf_counter(self):
                self.now += 1.0
                return self.now

        clock = _Clock()
        monkeypatch.setattr(batch_module, "time", clock)
        engine, grid = self._pieces("csr")
        calls = []
        original = engine.prefetch_trees

        def slow_prefetch(sources):
            calls.append(tuple(sources))
            clock.now += 100.0  # every engine call is expensive on this clock
            return original(sources)

        engine.prefetch_trees = slow_prefetch
        requests = _requests(build_random_fleet(vehicles=1, seed=13), 5, seed=21)
        batch = BatchContext.create(requests, engine, grid)
        starts = tuple(dict.fromkeys(request.start for request in requests))
        assert calls == [starts]
        assert batch.statistics.prefetch_seconds == 101.0
        billed = sum(batch.context_seconds(index) for index in range(len(requests)))
        assert billed == pytest.approx(101.0)

        vertices = grid.network.vertices()
        leg = next(
            (a, b) for a in vertices for b in vertices
            if a < b and a not in starts and b not in starts
        )
        batch.context_for(0).distance(*leg)
        assert calls == [starts, (leg[0],)]  # the leg tree was demanded ...
        assert batch.statistics.prefetch_seconds == 101.0  # ... and billed nowhere here
        assert billed == pytest.approx(
            sum(batch.context_seconds(index) for index in range(len(requests)))
        )


class TestSkylineMerge:
    def test_merge_is_partition_independent(self):
        options = [
            RideOption(vehicle_id="a", pickup_distance=1.0, price=9.0),
            RideOption(vehicle_id="b", pickup_distance=2.0, price=5.0),
            RideOption(vehicle_id="c", pickup_distance=3.0, price=7.0),  # dominated by b
            RideOption(vehicle_id="d", pickup_distance=4.0, price=1.0),
        ]
        whole = Skyline.merge([options]).options()
        split = Skyline.merge([[options[0], options[3]], [options[1]], [options[2]]]).options()
        assert whole == split
        assert [o.vehicle_id for o in whole] == ["a", "b", "d"]

    def test_equal_points_collapse_to_smallest_vehicle_id(self):
        twin_a = RideOption(vehicle_id="z", pickup_distance=2.0, price=2.0)
        twin_b = RideOption(vehicle_id="a", pickup_distance=2.0, price=2.0)
        for ordering in ([[twin_a], [twin_b]], [[twin_b], [twin_a]], [[twin_a, twin_b]]):
            merged = Skyline.merge(ordering).options()
            assert [o.vehicle_id for o in merged] == ["a"]

    def test_incremental_add_matches_merge_on_ties(self):
        twin_a = RideOption(vehicle_id="z", pickup_distance=2.0, price=2.0)
        twin_b = RideOption(vehicle_id="a", pickup_distance=2.0, price=2.0)
        skyline = Skyline()
        assert skyline.add(twin_a)
        assert skyline.add(twin_b)  # replaces: smaller vehicle id wins
        assert [o.vehicle_id for o in skyline.options()] == ["a"]


class TestDispatchBatchPipeline:
    def test_empty_batch(self, fleet):
        config = SystemConfig(max_waiting=6.0, service_constraint=0.4)
        dispatcher = Dispatcher(fleet, SingleSideSearchMatcher(fleet, config=config), config)
        assert dispatcher.dispatch_batch([]) == []

    def test_an_unknown_destination_is_not_found_on_both_paths(self, fleet):
        config = SystemConfig(max_waiting=6.0, service_constraint=0.4)
        dispatcher = Dispatcher(fleet, SingleSideSearchMatcher(fleet, config=config), config)
        request = Request(
            start=fleet.grid.network.vertices()[0], destination=10_000, riders=1,
            max_waiting=6.0, service_constraint=0.4, request_id="nowhere",
        )
        with pytest.raises(VertexNotFoundError) as looped:
            dispatch_sequential(dispatcher, [request])
        with pytest.raises(VertexNotFoundError) as booked:
            dispatcher.dispatch(request)
        with pytest.raises(VertexNotFoundError) as batched:
            dispatcher.dispatch_batch([request])
        assert batched.value.vertex == booked.value.vertex == looped.value.vertex == 10_000
        assert batched.value.args == booked.value.args == looped.value.args

    def test_bad_request_raises_after_predecessors_commit(self, fleet):
        config = SystemConfig(max_waiting=6.0, service_constraint=0.4)
        dispatcher = Dispatcher(fleet, SingleSideSearchMatcher(fleet, config=config), config)
        good = _requests(fleet, 1, seed=8)[0]
        bad = Request(
            start=10_000, destination=good.destination, riders=1,
            max_waiting=6.0, service_constraint=0.4, request_id="bad",
        )
        with pytest.raises(VertexNotFoundError):
            dispatcher.dispatch_batch([good, bad], policy=OptionPolicy.CHEAPEST)
        # the request before the failing one still committed, as in the loop
        assert any(
            good.request_id in vehicle.unfinished_request_ids()
            for vehicle in dispatcher.fleet.vehicles()
        )


class TestBalancedPolicy:
    def test_zero_price_axis_decides_by_pickup_alone(self):
        options = [
            RideOption(vehicle_id="far", pickup_distance=9.0, price=0.0),
            RideOption(vehicle_id="near", pickup_distance=1.0, price=0.0),
        ]
        assert OptionPolicy.BALANCED.choose(options).vehicle_id == "near"

    def test_zero_pickup_axis_decides_by_price_alone(self):
        options = [
            RideOption(vehicle_id="dear", pickup_distance=0.0, price=5.0),
            RideOption(vehicle_id="cheap", pickup_distance=0.0, price=2.0),
        ]
        assert OptionPolicy.BALANCED.choose(options).vehicle_id == "cheap"

    def test_all_zero_ties_break_by_vehicle_id(self):
        options = [
            RideOption(vehicle_id="b", pickup_distance=0.0, price=0.0),
            RideOption(vehicle_id="a", pickup_distance=0.0, price=0.0),
        ]
        assert OptionPolicy.BALANCED.choose(options).vehicle_id == "a"


def test_the_fleet_wide_leg_plane_knob_stays_deleted():
    """The eager plane's switch and its argument were removed in favour of the
    demand pool; neither may come back as a fork (the names are assembled here
    so this file does not trip its own guard)."""
    from pathlib import Path

    banned = ("prefetch" + "_legs", "leg" + "_sources=")
    root = Path(__file__).resolve().parents[2]
    offenders = [
        f"{path.relative_to(root)}: {name}"
        for folder in ("src", "benchmarks", "tests")
        for path in sorted((root / folder).rglob("*.py"))
        for name in banned
        if name in path.read_text(encoding="utf-8")
    ]
    assert offenders == []
