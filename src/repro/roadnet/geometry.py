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
from typing import Iterator, Tuple

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

    @property
    def width(self) -> float:
        """Extent of the box along the x axis."""
        return self.max_x - self.min_x

    @property
    def height(self) -> float:
        """Extent of the box along the y axis."""
        return self.max_y - self.min_y
