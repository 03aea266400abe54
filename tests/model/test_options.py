"""Unit tests for ride options, dominance and skyline maintenance."""

from __future__ import annotations

import pytest

from repro.model.options import RideOption, Skyline, dominates, skyline_of


def option(vehicle: str, time: float, price: float) -> RideOption:
    return RideOption(vehicle_id=vehicle, pickup_distance=time, price=price)


def _skyline(*options: RideOption) -> Skyline:
    skyline = Skyline()
    skyline.extend(options)
    return skyline


class TestRideOption:
    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            option("c1", -1.0, 2.0)
        with pytest.raises(ValueError):
            option("c1", 1.0, -2.0)

    def test_str(self):
        assert "c1" in str(option("c1", 3.0, 4.0))


class TestDominance:
    """The dominance relation of Definition 4."""

    def test_better_in_both(self):
        assert dominates(option("a", 1, 1), option("b", 2, 2))

    def test_equal_time_lower_price(self):
        assert dominates(option("a", 2, 1), option("b", 2, 2))

    def test_lower_time_equal_price(self):
        assert dominates(option("a", 1, 2), option("b", 2, 2))

    def test_identical_points_do_not_dominate(self):
        assert not dominates(option("a", 2, 2), option("b", 2, 2))

    def test_incomparable_points(self):
        assert not dominates(option("a", 1, 5), option("b", 5, 1))
        assert not dominates(option("b", 5, 1), option("a", 1, 5))

    def test_not_symmetric(self):
        a, b = option("a", 1, 1), option("b", 2, 2)
        assert dominates(a, b)
        assert not dominates(b, a)

    def test_floating_point_ties_are_tolerated(self):
        a = option("a", 1.0, 1.0)
        b = option("b", 1.0 + 1e-12, 1.0 - 1e-12)
        assert not dominates(a, b)
        assert not dominates(b, a)

    def test_paper_example_results_do_not_dominate(self):
        r1 = option("c1", 14.0, 4.0)
        r2 = option("c2", 8.0, 8.8)
        assert not dominates(r1, r2)
        assert not dominates(r2, r1)


class TestSkylineOf:
    def test_removes_dominated(self):
        options = [option("a", 1, 5), option("b", 2, 3), option("c", 3, 4), option("d", 5, 1)]
        result = skyline_of(options)
        assert [o.vehicle_id for o in result] == ["a", "b", "d"]

    def test_empty_input(self):
        assert skyline_of([]) == []

    def test_collapses_duplicates(self):
        result = skyline_of([option("a", 1, 1), option("b", 1, 1)])
        assert len(result) == 1

    def test_sorted_by_pickup(self):
        result = skyline_of([option("a", 5, 1), option("b", 1, 5), option("c", 3, 3)])
        distances = [o.pickup_distance for o in result]
        assert distances == sorted(distances)

    def test_mutual_non_domination(self):
        options = [option(str(i), float(i), 10.0 - i) for i in range(10)]
        result = skyline_of(options)
        for first in result:
            for second in result:
                if first is not second:
                    assert not dominates(first, second)


class TestSkyline:
    def test_add_rejects_dominated(self):
        skyline = _skyline(option("a", 1, 1))
        assert not skyline.add(option("b", 2, 2))
        assert len(skyline) == 1

    def test_add_evicts_dominated(self):
        skyline = _skyline(option("a", 2, 2))
        assert skyline.add(option("b", 1, 1))
        assert [o.vehicle_id for o in skyline.options()] == ["b"]

    def test_add_rejects_duplicates(self):
        skyline = _skyline(option("a", 1, 1))
        assert not skyline.add(option("b", 1, 1))

    def test_extend_counts_insertions(self):
        skyline = Skyline()
        inserted = skyline.extend([option("a", 1, 5), option("b", 5, 1), option("c", 6, 6)])
        assert inserted == 2

    def test_would_be_dominated(self):
        skyline = _skyline(option("a", 2, 2))
        assert skyline.would_be_dominated(3, 3)
        assert not skyline.would_be_dominated(1, 3)
        assert not skyline.would_be_dominated(3, 1)

    def test_would_be_dominated_empty(self):
        assert not Skyline().would_be_dominated(0, 0)

    def test_would_be_dominated_needs_one_strict_coordinate(self):
        """A probe tying a member on both coordinates survives (the tie goes to
        the smaller vehicle id in ``add``); a tie on one needs the other strict."""
        skyline = _skyline(option("a", 2, 2))
        assert not skyline.would_be_dominated(2, 2)
        assert skyline.would_be_dominated(2, 2.5)
        assert skyline.would_be_dominated(2.5, 2)
        # negative bounds are clamped to the origin before comparing
        assert not _skyline(option("a", 0, 0)).would_be_dominated(-1, -1)

    def test_incremental_equals_batch(self):
        import random

        rng = random.Random(5)
        options = [option(f"v{i}", rng.uniform(0, 10), rng.uniform(0, 10)) for i in range(60)]
        incremental = Skyline()
        incremental.extend(options)
        batch = skyline_of(options)
        assert {(o.pickup_distance, o.price) for o in incremental.options()} == {
            (o.pickup_distance, o.price) for o in batch
        }
