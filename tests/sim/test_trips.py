"""Unit tests for the Shanghai-like trip generator."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.roadnet.generators import grid_network
from repro.sim.trips import (
    SECONDS_PER_DAY,
    DailyDemandProfile,
    ShanghaiLikeTripGenerator,
    TripRecord,
)


@pytest.fixture
def network():
    return grid_network(10, 10, weight_jitter=0.2, seed=1)


class TestTripRecord:
    def test_valid(self):
        trip = TripRecord("T1", origin=1, destination=2, riders=1, departure_time=0.0)
        assert trip.trip_id == "T1"

    def test_same_endpoints_rejected(self):
        with pytest.raises(ConfigurationError):
            TripRecord("T1", origin=1, destination=1, riders=1, departure_time=0.0)

    def test_invalid_riders(self):
        with pytest.raises(ConfigurationError):
            TripRecord("T1", origin=1, destination=2, riders=0, departure_time=0.0)

    def test_invalid_time(self):
        with pytest.raises(ConfigurationError):
            TripRecord("T1", origin=1, destination=2, riders=1, departure_time=-5.0)


class TestDemandProfile:
    def test_evening_peak_strongest(self):
        profile = DailyDemandProfile()
        evening = profile.intensity(18 * 3600)
        morning = profile.intensity(8 * 3600)
        night = profile.intensity(3 * 3600)
        assert evening >= morning > night

    def test_intensity_positive_all_day(self):
        profile = DailyDemandProfile()
        for hour in range(25):
            assert profile.intensity(hour * 3600) > 0

    def test_cumulative_weights_increasing(self):
        weights = DailyDemandProfile().cumulative_weights(buckets=48)
        assert len(weights) == 48
        assert all(b > a for a, b in zip(weights, weights[1:]))


class TestGenerator:
    def test_trip_count_and_sorting(self, network):
        generator = ShanghaiLikeTripGenerator(network, seed=3)
        trips = generator.generate(200)
        assert len(trips) == 200
        times = [trip.departure_time for trip in trips]
        assert times == sorted(times)
        assert all(0 <= t <= SECONDS_PER_DAY for t in times)

    def test_deterministic_per_seed(self, network):
        a = ShanghaiLikeTripGenerator(network, seed=5).generate(50)
        b = ShanghaiLikeTripGenerator(network, seed=5).generate(50)
        assert [(t.origin, t.destination, t.departure_time) for t in a] == [
            (t.origin, t.destination, t.departure_time) for t in b
        ]

    def test_different_seeds_differ(self, network):
        a = ShanghaiLikeTripGenerator(network, seed=5).generate(50)
        b = ShanghaiLikeTripGenerator(network, seed=6).generate(50)
        assert [(t.origin, t.destination) for t in a] != [(t.origin, t.destination) for t in b]

    def test_group_sizes_respect_max(self, network):
        trips = ShanghaiLikeTripGenerator(network, seed=2).generate(300, max_riders=3)
        assert all(1 <= trip.riders <= 3 for trip in trips)
        assert sum(1 for trip in trips if trip.riders == 1) > len(trips) / 3

    def test_rush_hours_have_more_trips_than_night(self, network):
        trips = ShanghaiLikeTripGenerator(network, seed=7).generate(3000)
        def count_between(lo_hour, hi_hour):
            return sum(1 for t in trips if lo_hour * 3600 <= t.departure_time < hi_hour * 3600)
        assert count_between(17, 20) > count_between(1, 4)
        assert count_between(7, 10) > count_between(1, 4)

    def test_hotspot_bias_concentrates_endpoints(self, network):
        generator = ShanghaiLikeTripGenerator(network, seed=9, hotspot_bias=0.9)
        trips = generator.generate(500)
        hot_vertices = set()
        for hotspot in generator.hotspots:
            hot_vertices.update(generator._hotspot_neighbourhoods[hotspot])  # noqa: SLF001
        touching = sum(
            1 for t in trips if t.origin in hot_vertices or t.destination in hot_vertices
        )
        assert touching / len(trips) > 0.5

    def test_invalid_parameters(self, network):
        with pytest.raises(ConfigurationError):
            ShanghaiLikeTripGenerator(network, hotspot_count=0)
        with pytest.raises(ConfigurationError):
            ShanghaiLikeTripGenerator(network, hotspot_bias=1.5)
        with pytest.raises(ConfigurationError):
            ShanghaiLikeTripGenerator(network, mean_group_size_decay=0.0)
        generator = ShanghaiLikeTripGenerator(network, seed=1)
        with pytest.raises(ConfigurationError):
            generator.generate(-1)
        with pytest.raises(ConfigurationError):
            generator.generate(10, max_riders=0)

    def test_tiny_network_rejected(self):
        tiny = grid_network(1, 1)
        with pytest.raises(ConfigurationError):
            ShanghaiLikeTripGenerator(tiny, seed=1)


class TestProfileShapes:
    """``intensity`` interpolates between control points, takes the later
    value at a step and holds the last value past the final point."""

    def test_control_points_are_hit_exactly(self):
        profile = DailyDemandProfile()
        for hour, value in profile.control_points[:-1]:
            assert profile.intensity(hour * 3600.0) == pytest.approx(value)

    def test_linear_between_control_points(self):
        profile = DailyDemandProfile(control_points=((0.0, 1.0), (10.0, 3.0), (24.0, 3.0)))
        assert profile.intensity(5 * 3600.0) == pytest.approx(2.0)

    def test_a_step_takes_the_later_value(self):
        profile = DailyDemandProfile(control_points=((0.0, 1.0), (12.0, 1.0), (12.0, 5.0), (24.0, 5.0)))
        assert profile.intensity(12 * 3600.0) == pytest.approx(1.0)
        step = DailyDemandProfile(control_points=((12.0, 1.0), (12.0, 5.0), (24.0, 5.0)))
        assert step.intensity(12 * 3600.0) == pytest.approx(5.0)

    def test_past_the_last_point_holds_its_value(self):
        profile = DailyDemandProfile(control_points=((0.0, 1.0), (6.0, 2.0)))
        assert profile.intensity(20 * 3600.0) == pytest.approx(2.0)

    def test_the_day_wraps(self):
        profile = DailyDemandProfile()
        assert profile.intensity(SECONDS_PER_DAY + 8 * 3600.0) == profile.intensity(8 * 3600.0)


def test_a_two_vertex_network_still_yields_valid_trips():
    pair = grid_network(1, 2)
    trips = ShanghaiLikeTripGenerator(pair, seed=5, hotspot_count=1, hotspot_bias=1.0).generate(20)
    assert len(trips) == 20
    assert all({trip.origin, trip.destination} == set(pair.vertices()) for trip in trips)
