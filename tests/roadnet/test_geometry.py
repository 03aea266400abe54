"""Unit tests for the planar geometry helpers."""

from __future__ import annotations

import pytest

from repro.roadnet.geometry import BoundingBox, Point, euclidean_distance


class TestPoint:
    def test_distance_to(self):
        assert Point(0, 0).distance_to(Point(3, 4)) == pytest.approx(5.0)

    def test_tuple_and_iter(self):
        point = Point(1.5, 2.5)
        assert tuple(point) == (1.5, 2.5)

    def test_points_are_immutable(self):
        with pytest.raises(AttributeError):
            Point(1, 2).x = 3  # type: ignore[misc]


class TestDistances:
    def test_euclidean(self):
        assert euclidean_distance((0, 0), (3, 4)) == pytest.approx(5.0)


class TestBoundingBox:
    def test_invalid_corners_rejected(self):
        with pytest.raises(ValueError):
            BoundingBox(1.0, 0.0, 0.0, 1.0)

    def test_dimensions(self):
        box = BoundingBox(0, 0, 2, 4)
        assert box.width == 2
        assert box.height == 4
