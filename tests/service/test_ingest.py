"""Unit tests for the micro-batched ingest path (MicroBatcher + service)."""

from __future__ import annotations

import pytest

from repro.core.config import SystemConfig
from repro.core.dispatcher import Dispatcher, OptionPolicy
from repro.core.single_side import SingleSideSearchMatcher
from repro.counters import counters
from repro.errors import ConfigurationError, VertexNotFoundError
from repro.model.request import Request
from repro.roadnet.generators import grid_network
from repro.roadnet.grid_index import GridIndex
from repro.roadnet.routing import make_engine
from repro.service.api import build_system
from repro.service.ingest import IngestStatistics, MicroBatcher, percentiles
from repro.vehicles.fleet import Fleet
from repro.vehicles.vehicle import Vehicle


def _make_dispatcher(vehicles: int = 6, seed: int = 3):
    network = grid_network(8, 8, weight_jitter=0.2, seed=seed)
    grid = GridIndex(network, rows=4, columns=4)
    fleet = Fleet(grid, make_engine(network, "csr"))
    vertices = network.vertices()
    for index in range(vehicles):
        fleet.add_vehicle(
            Vehicle(f"c{index + 1}", location=vertices[(index * 7) % len(vertices)], capacity=4)
        )
    config = SystemConfig(max_waiting=6.0, service_constraint=0.5)
    matcher = SingleSideSearchMatcher(fleet, config=config)
    return Dispatcher(fleet, matcher, config), network


def _batcher(dispatcher, clock=None, on_outcome=None, **knobs) -> MicroBatcher:
    """A batcher on ``dispatcher`` whose config is the dispatcher's with ``knobs``."""
    config = dispatcher.config.with_updates(**knobs)
    return MicroBatcher(dispatcher, config, clock=clock, on_outcome=on_outcome)


def _request(network, index: int, submit: float = 0.0) -> Request:
    vertices = network.vertices()
    start = vertices[(index * 3) % len(vertices)]
    destination = vertices[(index * 3 + 11) % len(vertices)]
    if destination == start:
        destination = vertices[(index * 3 + 12) % len(vertices)]
    return Request(
        start=start, destination=destination, riders=1, max_waiting=6.0,
        service_constraint=0.5, request_id=f"Q{index}", submit_time=submit,
    )


class TestPercentiles:
    def test_known_inputs(self):
        values = list(range(1, 101))  # 1..100
        result = percentiles(values)
        assert result == {"p50": 50, "p95": 95, "p99": 99}

    def test_nearest_rank_small_samples(self):
        assert percentiles([7.0]) == {"p50": 7.0, "p95": 7.0, "p99": 7.0}
        # nearest rank on 4 values: p50 -> position ceil(2.0) = 2
        assert percentiles([4.0, 1.0, 3.0, 2.0], ranks=(50,)) == {"p50": 2.0}
        assert percentiles([4.0, 1.0, 3.0, 2.0], ranks=(75, 100)) == {
            "p75": 3.0, "p100": 4.0,
        }

    def test_values_are_observed_never_interpolated(self):
        result = percentiles([10.0, 20.0], ranks=(50, 95))
        assert result["p50"] in (10.0, 20.0)
        assert result["p95"] in (10.0, 20.0)

    def test_empty_input(self):
        assert percentiles([]) == {}

    def test_invalid_rank(self):
        with pytest.raises(ConfigurationError):
            percentiles([1.0], ranks=(0,))
        with pytest.raises(ConfigurationError):
            percentiles([1.0], ranks=(101,))


class TestMicroBatcherWindows:
    def test_window_closes_when_batch_window_elapses(self):
        dispatcher, network = _make_dispatcher()
        batcher = _batcher(dispatcher, batch_window=2.0)
        assert batcher.submit(_request(network, 1), now=10.0)
        assert batcher.submit(_request(network, 2), now=11.0)
        # still inside the window: nothing flushes
        assert batcher.pump(now=11.9) == []
        assert batcher.pending == 2
        outcomes = batcher.pump(now=12.0)
        assert [o.request.request_id for o in outcomes] == ["Q1", "Q2"]
        assert batcher.pending == 0
        assert batcher.statistics.window_closed == 1
        assert batcher.statistics.size_closed == 0

    def test_window_closes_at_max_batch_size(self):
        dispatcher, network = _make_dispatcher()
        batcher = _batcher(dispatcher, batch_window=100.0, max_batch_size=3)
        answered = []
        batcher._on_outcome = answered.append
        for index in range(1, 4):
            assert batcher.submit(_request(network, index), now=0.0)
        # the third admission filled the window: it flushed inline
        assert batcher.pending == 0
        assert len(answered) == 3
        assert batcher.statistics.size_closed == 1
        assert batcher.statistics.window_fills == [1.0]

    def test_flush_forces_a_partial_window(self):
        dispatcher, network = _make_dispatcher()
        batcher = _batcher(dispatcher, batch_window=100.0)
        batcher.submit(_request(network, 1), now=0.0)
        outcomes = batcher.flush(now=0.5)
        assert len(outcomes) == 1
        assert batcher.statistics.forced == 1
        assert batcher.flush(now=1.0) == []  # idempotent on empty

    def test_injected_clock_drives_the_window(self):
        dispatcher, network = _make_dispatcher()
        moments = iter([0.0, 0.5, 0.9, 1.0])
        batcher = _batcher(dispatcher, batch_window=1.0, clock=lambda: next(moments))
        batcher.submit(_request(network, 1))  # clock -> 0.0, opens window
        batcher.submit(_request(network, 2))  # clock -> 0.5
        assert batcher.pump() == []           # clock -> 0.9, window still open
        assert len(batcher.pump()) == 2       # clock -> 1.0, window closes

    def test_outcomes_identical_to_dispatch_batch(self):
        requests = None
        dispatcher, network = _make_dispatcher()
        requests = [_request(network, index) for index in range(1, 8)]
        reference = dispatcher.dispatch_batch(requests, policy=OptionPolicy.CHEAPEST)
        key = lambda o: (o.request.request_id, tuple(o.options), o.chosen)

        fresh, _ = _make_dispatcher()
        batcher = _batcher(fresh, batch_window=1.0)
        for request in requests:
            batcher.submit(request, now=0.0)
        outcomes = batcher.pump(now=1.0)
        assert [key(o) for o in outcomes] == [key(o) for o in reference]

    def test_a_broken_endpoint_does_not_void_the_rest_of_the_window(self):
        dispatcher, network = _make_dispatcher()
        batcher = _batcher(dispatcher, batch_window=1.0)
        answered = []
        batcher._on_outcome = answered.append
        bad = Request(
            start=10_000, destination=network.vertices()[0], riders=1, max_waiting=6.0,
            service_constraint=0.5, request_id="bad",
        )
        for request in (_request(network, 1), bad, _request(network, 2)):
            assert batcher.submit(request, now=0.0)
        with pytest.raises(VertexNotFoundError):
            batcher.pump(now=1.0)
        # the request before the broken one is answered, the one after it
        # goes back to the front of the queue and the next flush answers it
        assert [o.request.request_id for o in answered] == ["Q1"]
        assert batcher.pending == 1
        assert [o.request.request_id for o in batcher.flush(now=1.0)] == ["Q2"]
        stats = batcher.statistics
        assert (stats.admitted, stats.answered, stats.errored) == (3, 2, 1)

    def test_statistics_latency_and_conservation(self):
        dispatcher, network = _make_dispatcher()
        batcher = _batcher(dispatcher, batch_window=5.0)
        batcher.submit(_request(network, 1), now=0.0)
        batcher.submit(_request(network, 2), now=3.0)
        batcher.pump(now=5.0)
        stats = batcher.statistics
        assert stats.admitted == 2 == stats.answered
        assert stats.errored == 0 and batcher.pending == 0
        assert len(stats.latencies) == 2
        # simulated queue wait dominates: 5s for the first, 2s for the second
        assert stats.latencies[0] >= 5.0
        assert 2.0 <= stats.latencies[1] < stats.latencies[0]
        assert stats.serving_seconds > 0.0
        assert stats.throughput > 0.0
        payload = counters(stats)
        assert payload["latency_p50"] >= 2.0
        assert payload["latency_p99"] == max(stats.latencies)
        assert payload["flushes"] == 1.0


class TestBackpressure:
    def test_shed_policy_refuses_and_counts(self):
        dispatcher, network = _make_dispatcher()
        batcher = _batcher(dispatcher, batch_window=100.0, queue_capacity=2, queue_policy="shed")
        assert batcher.submit(_request(network, 1), now=0.0)
        assert batcher.submit(_request(network, 2), now=0.0)
        assert not batcher.submit(_request(network, 3), now=0.0)
        assert batcher.pending == 2
        assert batcher.statistics.shed == 1
        assert batcher.statistics.admitted == 2

    def test_block_policy_flushes_inline_and_admits(self):
        dispatcher, network = _make_dispatcher()
        batcher = _batcher(dispatcher, batch_window=100.0, queue_capacity=2, queue_policy="block")
        batcher.submit(_request(network, 1), now=0.0)
        batcher.submit(_request(network, 2), now=0.0)
        assert batcher.submit(_request(network, 3), now=0.0)  # never refused
        assert batcher.pending == 1  # the blocked admit drained the window
        stats = batcher.statistics
        assert stats.shed == 0
        assert stats.forced == 1
        assert stats.admitted == 3 and stats.answered == 2


class TestServiceIngest:
    def test_ingest_pump_answers_bookings(self):
        system = build_system(network_rows=6, network_columns=6, vehicles=5, seed=2)
        vertices = system.fleet.grid.network.vertices()
        assert system.ingest(vertices[0], vertices[10])
        assert system.ingest(vertices[3], vertices[14])
        assert system.pump() == []  # window still open at simulated now
        system.advance(system.config.batch_window)
        answered = system.pump()
        assert len(answered) == 2
        assert all(b.booking_id.startswith("B") for b in answered)
        # answered bookings arrive closed (matched) or open with no options
        for booking in answered:
            assert (booking.chosen is not None) == bool(booking.options)
        panel = system.routing_statistics()
        assert panel["ingest_answered"] == 2.0
        assert panel["ingest_queue_depth"] == 0.0
        assert "ingest_latency_p95" in panel

    def test_drain_forces_the_pending_window(self):
        system = build_system(network_rows=6, network_columns=6, vehicles=5, seed=2)
        vertices = system.fleet.grid.network.vertices()
        system.ingest(vertices[0], vertices[8])
        answered = system.drain()
        assert len(answered) == 1
        assert system.batcher.statistics.forced == 1

    def test_close_drains_and_is_idempotent(self):
        system = build_system(network_rows=6, network_columns=6, vehicles=5, seed=2)
        vertices = system.fleet.grid.network.vertices()
        system.ingest(vertices[0], vertices[8])
        system.close()
        assert system.batcher.pending == 0
        assert system.batcher.statistics.answered == 1
        system.close()  # second close is a no-op, not an error

    def test_context_manager_closes(self):
        with build_system(network_rows=6, network_columns=6, vehicles=5, seed=2) as system:
            vertices = system.fleet.grid.network.vertices()
            system.ingest(vertices[0], vertices[8])
        assert system.batcher.pending == 0

    def test_set_parameters_rebuilds_batcher_and_keeps_statistics(self):
        system = build_system(network_rows=6, network_columns=6, vehicles=5, seed=2)
        vertices = system.fleet.grid.network.vertices()
        system.ingest(vertices[0], vertices[8])
        config = system.set_parameters(
            batch_window=0.25, max_batch_size=16, queue_capacity=8,
            queue_policy="block",
        )
        assert config.batch_window == 0.25
        assert config.queue_capacity == 8
        assert config.queue_policy == "block"
        assert system.batcher.current_window == 0.25
        # the pending admission was drained through the old dispatcher, and
        # the counters survived the rebuild (the panel series is continuous)
        assert system.batcher.pending == 0
        assert system.batcher.statistics.admitted == 1
        assert system.batcher.statistics.answered == 1
        # queue_capacity=0 maps back to unbounded
        assert system.set_parameters(queue_capacity=0).queue_capacity is None

    def test_set_parameters_keeps_the_matcher_series_and_counts_the_drained_window(self):
        system = build_system(network_rows=8, network_columns=8, vehicles=10, seed=3)
        vertices = system.fleet.grid.network.vertices()

        def matcher_series():
            return {k: v for k, v in system.statistics().items() if k.startswith("matcher_")}

        for index in range(15):
            system.book(vertices[index], vertices[-1 - index])
        before = matcher_series()
        assert before["matcher_requests_answered"] == 15.0
        system.set_parameters(max_waiting=6.0)
        assert matcher_series() == before
        for index in range(5):
            assert system.ingest(vertices[index], vertices[20 + index])
        system.set_parameters(max_waiting=5.0)  # drains the five admissions
        after = matcher_series()
        assert system.statistics()["routing_ingest_answered"] == 5.0
        assert after["matcher_requests_answered"] == 20.0
        assert all(after[key] >= value for key, value in before.items())

    def test_build_system_wires_the_ingest_knobs(self):
        system = build_system(
            network_rows=6, network_columns=6, vehicles=4, seed=2,
            batch_window=0.5, max_batch_size=32, queue_capacity=64,
            queue_policy="block",
        )
        assert system.config.batch_window == 0.5
        assert system.config.max_batch_size == 32
        assert system.config.queue_capacity == 64
        assert system.config.queue_policy == "block"
        assert system.batcher.current_window == 0.5

    def test_book_request_matches_book(self):
        system = build_system(network_rows=6, network_columns=6, vehicles=5, seed=2)
        vertices = system.fleet.grid.network.vertices()
        booking = system.book(vertices[0], vertices[9])
        assert booking.request.max_waiting == system.config.max_waiting
        assert booking.booking_id in {booking.booking_id}
        assert system.booking(booking.booking_id) is booking


class TestDemandPoolTreeCounts:
    """Deterministic count guard (no timing): pooling leg trees on demand must
    never make the batched serving path compute more distance trees than the
    per-request booking loop needs for the same requests."""

    @staticmethod
    def _serve_day(batched: bool):
        from repro.sim.workload import RequestWorkload

        network = grid_network(16, 16, weight_jitter=0.3, seed=6)
        config = SystemConfig(
            vehicle_capacity=4, max_waiting=8.0, service_constraint=0.6, speed=3.0,
            max_pickup_distance=3.0, routing_backend="csr", batch_window=1.0,
            max_batch_size=65536,
        )
        service = build_system(
            network=network, vehicles=60, grid_rows=6, grid_columns=6, config=config, seed=6
        )
        day = RequestWorkload.daily(
            network, total=240, duration=12.0, max_waiting=8.0, service_constraint=0.6,
            hotspot_count=40, hotspot_bias=1.0, seed=6,
        )
        answers, carry, tick = [], [], 0
        while day.remaining or carry:
            tick += 1
            now = float(tick)
            if batched:
                for booking in service.pump(now=now):
                    answers.append((booking.request.request_id, booking.chosen))
            else:
                for request in carry:
                    booking = service.book_request(request)
                    options = booking.options
                    if options:
                        chosen = OptionPolicy.CHEAPEST.choose(options)
                        service.choose(booking.booking_id, options.index(chosen))
                    else:
                        service.cancel(booking.booking_id)
                        chosen = None
                    answers.append((request.request_id, chosen))
            carry = day.due(now)
            if batched:
                for request in carry:
                    assert service.ingest_request(request, now=now)
            service.advance(1.0)
        return answers, service.fleet.routing_engine.stats

    def test_batched_day_computes_no_more_trees_than_the_booking_loop(self):
        loop_answers, loop_stats = self._serve_day(batched=False)
        pump_answers, pump_stats = self._serve_day(batched=True)
        assert pump_answers == loop_answers
        assert sum(1 for _, chosen in loop_answers if chosen is not None) > 100
        assert 0 < pump_stats.dijkstra_runs <= loop_stats.dijkstra_runs


class TestIngestStatisticsUnit:
    def test_defaults_and_flushes(self):
        stats = IngestStatistics()
        assert stats.flushes == 0
        assert stats.throughput == 0.0
        assert stats.mean_window_fill == 0.0
        assert "latency_p50" not in counters(stats)

    def test_panel_is_flat_floats(self):
        stats = IngestStatistics(admitted=3, answered=2, shed=1,
                                 serving_seconds=0.5, window_fills=[0.5, 1.0],
                                 latencies=[0.1, 0.2])
        payload = counters(stats)
        assert payload["admitted"] == 3.0
        assert payload["throughput"] == 4.0
        assert payload["mean_window_fill"] == 0.75
        assert payload["latency_p95"] == 0.2
        assert all(isinstance(value, float) for value in payload.values())


class TestMicroBatcherKnobs:
    def test_fixed_mode_has_no_controller_and_ignores_window_pins(self):
        dispatcher, _ = _make_dispatcher()
        batcher = _batcher(dispatcher, batch_window=2.0, queue_capacity=5)
        assert batcher.controller is None
        batcher.set_window(7.0)
        batcher.restore_controller({"window": 7.0})
        assert batcher.current_window == 2.0
        assert batcher.controller_state() is None

    def test_adaptive_window_pins_are_clamped_to_the_bounds(self):
        dispatcher, _ = _make_dispatcher()
        batcher = _batcher(dispatcher, batch_window=2.0, batch_window_mode="adaptive",
                           batch_window_min=1.0, batch_window_max=4.0)
        assert batcher.controller is not None
        batcher.set_window(3.0)
        assert batcher.current_window == 3.0
        batcher.set_window(100.0)
        assert batcher.current_window == 4.0
        batcher.set_window(0.01)
        assert batcher.current_window == 1.0

    def test_flushing_an_empty_window_answers_nothing(self):
        dispatcher, _ = _make_dispatcher()
        batcher = _batcher(dispatcher, batch_window=2.0)
        assert batcher.flush(now=0.0) == []
        assert batcher.drain(now=0.0) == []
        assert batcher.statistics.forced == 0


class TestDrain:
    def test_drain_keeps_going_past_a_broken_request(self):
        dispatcher, network = _make_dispatcher()
        answered = []
        batcher = _batcher(dispatcher, batch_window=100.0, on_outcome=answered.append)
        bad = Request(
            start=10_000, destination=network.vertices()[0], riders=1, max_waiting=6.0,
            service_constraint=0.5, request_id="bad",
        )
        for request in (_request(network, 1), bad, _request(network, 2)):
            assert batcher.submit(request, now=0.0)
        outcomes = batcher.drain(now=0.5)
        # Q1 was answered by the flush that raised, so only the callback saw
        # it; the retry flush returns Q2
        assert [o.request.request_id for o in answered] == ["Q1", "Q2"]
        assert [o.request.request_id for o in outcomes] == ["Q2"]
        assert batcher.pending == 0
        stats = batcher.statistics
        assert (stats.admitted, stats.answered, stats.errored) == (3, 2, 1)

    def test_drain_survives_a_fault_at_every_flush_but_the_last(self):
        from repro.service.faults import FaultPlan, FaultSpec

        dispatcher, network = _make_dispatcher()
        batcher = _batcher(dispatcher, batch_window=100.0)
        batcher.submit(_request(network, 1), now=0.0)
        # budget is pending + 1 = 2 attempts: the first faults, the second answers
        with FaultPlan([FaultSpec(point="ingest.flush", action="error", at=(0,))]) as plan:
            outcomes = batcher.drain(now=0.5)
        assert plan.fired == {"ingest.flush:error": 1}
        assert [o.request.request_id for o in outcomes] == ["Q1"]
        assert batcher.pending == 0
