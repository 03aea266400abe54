"""Planar geometry helpers used by the road-network substrate.

The road networks handled by PTRider are embedded in the plane: every vertex
carries an ``(x, y)`` coordinate.  The embedding is used by

* the grid index, to assign vertices to grid cells;
* the synthetic network generators, to lay out vertices;
* the SHAREK-style baseline, which prunes with Euclidean distance.

Coordinates are unit-less.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Tuple

__all__ = ["Point", "BoundingBox", "euclidean_distance"]


@dataclass(frozen=True)
class Point:
    """A point in the plane.

    ``Point`` is an immutable value object.
    """

    x: float
    y: float

    def distance_to(self, other: "Point") -> float:
        """Return the Euclidean distance to ``other``."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def as_tuple(self) -> Tuple[float, float]:
        """Return the point as a plain ``(x, y)`` tuple."""
        return (self.x, self.y)

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y


def euclidean_distance(a: Tuple[float, float], b: Tuple[float, float]) -> float:
    """Return the Euclidean distance between two ``(x, y)`` tuples."""
    return math.hypot(a[0] - b[0], a[1] - b[1])


@dataclass(frozen=True)
class BoundingBox:
    """An axis-aligned bounding box ``[min_x, max_x] x [min_y, max_y]``."""

    min_x: float
    min_y: float
    max_x: float
    max_y: float

    def __post_init__(self) -> None:
        if self.min_x > self.max_x or self.min_y > self.max_y:
            raise ValueError(
                "bounding box minimum corner must not exceed its maximum corner: "
                f"({self.min_x}, {self.min_y}) vs ({self.max_x}, {self.max_y})"
            )

    @classmethod
    def from_points(cls, points: Iterable[Tuple[float, float]]) -> "BoundingBox":
        """Build the tightest box containing every point in ``points``.

        Raises:
            ValueError: if ``points`` is empty.
        """
        iterator = iter(points)
        try:
            first = next(iterator)
        except StopIteration:
            raise ValueError("cannot build a bounding box from an empty point set") from None
        min_x = max_x = float(first[0])
        min_y = max_y = float(first[1])
        for x, y in iterator:
            min_x = min(min_x, float(x))
            max_x = max(max_x, float(x))
            min_y = min(min_y, float(y))
            max_y = max(max_y, float(y))
        return cls(min_x, min_y, max_x, max_y)

    @property
    def width(self) -> float:
        """Extent of the box along the x axis."""
        return self.max_x - self.min_x

    @property
    def height(self) -> float:
        """Extent of the box along the y axis."""
        return self.max_y - self.min_y
