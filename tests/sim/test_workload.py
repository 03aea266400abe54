"""Unit tests for request workloads."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.roadnet.generators import grid_network
from repro.sim.trips import ShanghaiLikeTripGenerator
from repro.model.request import Request
from repro.sim.workload import RequestWorkload, random_requests, requests_from_trips


@pytest.fixture
def network():
    return grid_network(8, 8, seed=1)


class TestRequestsFromTrips:
    def test_conversion_preserves_fields(self, network):
        trips = ShanghaiLikeTripGenerator(network, seed=3).generate(20)
        requests = requests_from_trips(trips, max_waiting=5.0, service_constraint=0.3)
        assert len(requests) == 20
        for trip, request in zip(trips, requests):
            assert request.start == trip.origin
            assert request.destination == trip.destination
            assert request.riders == trip.riders
            assert request.submit_time == trip.departure_time
            assert request.max_waiting == 5.0
            assert request.service_constraint == 0.3


class TestRandomRequests:
    def test_count_and_determinism(self, network):
        a = random_requests(network, 15, 5.0, 0.2, seed=4)
        b = random_requests(network, 15, 5.0, 0.2, seed=4)
        assert len(a) == 15
        assert [(r.start, r.destination) for r in a] == [(r.start, r.destination) for r in b]

    def test_burst_when_duration_zero(self, network):
        requests = random_requests(network, 5, 5.0, 0.2, duration=0.0, seed=4)
        assert all(request.submit_time == 0.0 for request in requests)

    def test_spread_when_duration_positive(self, network):
        requests = random_requests(network, 30, 5.0, 0.2, duration=100.0, seed=4)
        times = [request.submit_time for request in requests]
        assert times == sorted(times)
        assert max(times) > 0.0

    def test_rider_range(self, network):
        requests = random_requests(network, 30, 5.0, 0.2, riders_range=(2, 3), seed=4)
        assert all(2 <= request.riders <= 3 for request in requests)

    def test_invalid_parameters(self, network):
        with pytest.raises(ConfigurationError):
            random_requests(network, -1, 5.0, 0.2)
        with pytest.raises(ConfigurationError):
            random_requests(network, 5, 5.0, 0.2, riders_range=(0, 2))


class TestRequestWorkload:
    def test_sorted_on_construction(self, network):
        requests = random_requests(network, 10, 5.0, 0.2, duration=50.0, seed=5)
        shuffled = list(reversed(requests))
        workload = RequestWorkload(shuffled)
        times = [request.submit_time for request in workload]
        assert times == sorted(times)
        assert len(workload) == 10

    def test_due_releases_in_order(self, network):
        requests = random_requests(network, 10, 5.0, 0.2, duration=100.0, seed=6)
        workload = RequestWorkload(requests)
        first_half = workload.due(50.0)
        assert all(request.submit_time <= 50.0 for request in first_half)
        rest = workload.due(1_000.0)
        assert len(first_half) + len(rest) == 10
        assert workload.remaining == 0

    def test_due_is_monotone(self, network):
        workload = RequestWorkload(random_requests(network, 10, 5.0, 0.2, duration=100.0, seed=7))
        workload.due(40.0)
        again = workload.due(40.0)
        assert again == []

    def test_reset(self, network):
        workload = RequestWorkload(random_requests(network, 5, 5.0, 0.2, duration=10.0, seed=8))
        workload.due(1_000.0)
        workload.reset()
        assert workload.remaining == 5

    def test_duration(self, network):
        workload = RequestWorkload(random_requests(network, 5, 5.0, 0.2, duration=80.0, seed=9))
        assert workload.duration == max(request.submit_time for request in workload)
        assert RequestWorkload([]).duration == 0.0

    def test_from_trips(self, network):
        trips = ShanghaiLikeTripGenerator(network, seed=1).generate(12)
        workload = RequestWorkload.from_trips(trips, max_waiting=4.0, service_constraint=0.25)
        assert len(workload) == 12
        assert all(request.max_waiting == 4.0 for request in workload)


def _request(request_id: str, submit_time: float) -> Request:
    return Request(
        start=0, destination=1, riders=1, max_waiting=5.0,
        service_constraint=0.2, request_id=request_id, submit_time=submit_time,
    )


class TestDueWindowing:
    """The windowing semantics the micro-batched ingest queue leans on."""

    def test_empty_window_between_arrivals(self):
        workload = RequestWorkload([_request("a", 1.0), _request("b", 5.0)])
        assert [r.request_id for r in workload.due(1.0)] == ["a"]
        # ticks with no arrivals release nothing, and release nothing again
        assert workload.due(2.0) == []
        assert workload.due(4.9) == []
        assert workload.remaining == 1
        assert [r.request_id for r in workload.due(5.0)] == ["b"]

    def test_empty_workload_due(self):
        workload = RequestWorkload([])
        assert workload.due(100.0) == []
        assert workload.remaining == 0

    def test_exact_boundary_release_is_inclusive(self):
        # a request submitted exactly at the tick boundary belongs to that
        # tick's window, not the next one -- `due` is <=, never <
        workload = RequestWorkload([_request("edge", 3.0), _request("later", 3.0 + 1e-9)])
        released = workload.due(3.0)
        assert [r.request_id for r in released] == ["edge"]
        assert workload.remaining == 1

    def test_ties_release_together_in_input_order(self):
        workload = RequestWorkload(
            [_request("t1", 2.0), _request("t2", 2.0), _request("t3", 2.0)]
        )
        assert [r.request_id for r in workload.due(2.0)] == ["t1", "t2", "t3"]

    def test_out_of_order_construction_is_sorted_for_release(self):
        workload = RequestWorkload(
            [_request("late", 9.0), _request("early", 1.0), _request("mid", 4.0)]
        )
        assert [r.request_id for r in workload.due(5.0)] == ["early", "mid"]
        assert [r.request_id for r in workload.due(10.0)] == ["late"]

    def test_reset_mid_replay_rewinds_to_the_start(self):
        workload = RequestWorkload(
            [_request("a", 1.0), _request("b", 2.0), _request("c", 3.0)]
        )
        assert len(workload.due(2.0)) == 2
        workload.reset()
        assert workload.remaining == 3
        # the replay after a mid-stream reset is identical to a fresh one
        assert [r.request_id for r in workload.due(2.0)] == ["a", "b"]
        assert [r.request_id for r in workload.due(3.0)] == ["c"]
        assert workload.remaining == 0


class TestDailyWorkload:
    def test_exact_count_and_horizon(self, network):
        workload = RequestWorkload.daily(
            network, total=500, duration=100.0, max_waiting=8.0,
            service_constraint=0.6, seed=7,
        )
        assert len(workload) == 500
        times = [r.submit_time for r in workload]
        assert times == sorted(times)
        assert all(0.0 <= t <= 100.0 for t in times)

    def test_deterministic_per_seed(self, network):
        build = lambda: RequestWorkload.daily(
            network, total=200, duration=50.0, max_waiting=8.0,
            service_constraint=0.6, hotspot_count=10, seed=8,
        )
        a, b = build(), build()
        assert [(r.start, r.destination, r.submit_time) for r in a] == [
            (r.start, r.destination, r.submit_time) for r in b
        ]

    def test_surge_and_lull_structure(self, network):
        # the default profile is bimodal over the day: the busiest decile of
        # the horizon must see several times the arrivals of the quietest
        workload = RequestWorkload.daily(
            network, total=5000, duration=100.0, max_waiting=8.0,
            service_constraint=0.6, seed=9,
        )
        buckets = [0] * 10
        for request in workload:
            buckets[min(9, int(request.submit_time / 10.0))] += 1
        assert max(buckets) > 3 * min(buckets)

    def test_hotspot_origins_come_from_the_pool(self, network):
        workload = RequestWorkload.daily(
            network, total=300, duration=60.0, max_waiting=8.0,
            service_constraint=0.6, hotspot_count=5, hotspot_bias=1.0, seed=10,
        )
        origins = {r.start for r in workload}
        assert len(origins) <= 5
        assert all(r.start != r.destination for r in workload)

    def test_invalid_parameters(self, network):
        with pytest.raises(ConfigurationError):
            RequestWorkload.daily(network, total=-1, duration=10.0,
                                  max_waiting=8.0, service_constraint=0.6)
        with pytest.raises(ConfigurationError):
            RequestWorkload.daily(network, total=10, duration=0.0,
                                  max_waiting=8.0, service_constraint=0.6)
        with pytest.raises(ConfigurationError):
            RequestWorkload.daily(network, total=10, duration=10.0,
                                  max_waiting=8.0, service_constraint=0.6,
                                  hotspot_bias=1.5)
        with pytest.raises(ConfigurationError):
            RequestWorkload.daily(network, total=10, duration=10.0,
                                  max_waiting=8.0, service_constraint=0.6,
                                  hotspot_count=-1)


class TestTooSmallNetworks:
    """Both generators refuse a network without two distinct vertices,
    and a bad group-size range, before drawing anything."""

    @pytest.mark.parametrize("riders_range", [(0, 2), (3, 2)])
    def test_daily_rejects_a_bad_riders_range(self, network, riders_range):
        with pytest.raises(ConfigurationError, match="riders_range"):
            RequestWorkload.daily(network, total=10, duration=10.0, max_waiting=8.0,
                                  service_constraint=0.6, riders_range=riders_range)

    def test_daily_needs_two_vertices(self):
        with pytest.raises(ConfigurationError, match="two vertices"):
            RequestWorkload.daily(grid_network(1, 1), total=1, duration=10.0,
                                  max_waiting=8.0, service_constraint=0.6)

    def test_random_requests_need_two_vertices(self):
        with pytest.raises(ConfigurationError, match="two vertices"):
            random_requests(grid_network(1, 1), 1, 5.0, 0.2)

    def test_two_vertices_are_enough(self):
        pair = grid_network(1, 2)
        requests = random_requests(pair, 4, 5.0, 0.2, seed=2)
        a, b = pair.vertices()
        assert {(r.start, r.destination) for r in requests} <= {(a, b), (b, a)}
        daily = RequestWorkload.daily(pair, total=4, duration=10.0, max_waiting=8.0,
                                      service_constraint=0.6, seed=2)
        assert len(daily) == 4
        assert all(r.start != r.destination for r in daily)
