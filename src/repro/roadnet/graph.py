"""The weighted road graph at the bottom of every PTRider component.

Section 2.1 of the paper models the road network as ``G = (V, E, W)`` where
vertices are road intersections and every edge carries a travel cost (time or
distance; the demo assumes a constant vehicle speed so the two are
interchangeable).  :class:`RoadNetwork` implements exactly that model as an
undirected, positively weighted graph with a planar embedding.

The class is deliberately dependency free (plain dictionaries) so the
shortest-path routines and the grid index can iterate adjacency lists with no
abstraction overhead -- matching latency is the whole point of the system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.errors import (
    EdgeNotFoundError,
    InvalidNetworkError,
    VertexNotFoundError,
)
from repro.roadnet.geometry import BoundingBox, Point

__all__ = ["Edge", "RoadNetwork"]

VertexId = int


@dataclass(frozen=True)
class Edge:
    """An undirected road segment between two intersections.

    The pair ``(u, v)`` is stored in the orientation it was added with, but
    the edge itself is undirected: ``Edge(1, 2, 3.0)`` and ``Edge(2, 1, 3.0)``
    describe the same road segment.
    """

    u: VertexId
    v: VertexId
    weight: float

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise InvalidNetworkError(
                f"edge ({self.u}, {self.v}) must have a positive weight, got {self.weight}"
            )
        if self.u == self.v:
            raise InvalidNetworkError(f"self loops are not allowed (vertex {self.u})")


class RoadNetwork:
    """An undirected, positively weighted road network with planar embedding.

    Vertices are integers; each vertex may carry an ``(x, y)`` coordinate used
    by the grid index and the Euclidean baseline.  Edge weights are travel
    costs (distance units at constant speed, per the paper).

    The class supports incremental construction::

        net = RoadNetwork()
        net.add_vertex(1, x=0.0, y=0.0)
        net.add_vertex(2, x=1.0, y=0.0)
        net.add_edge(1, 2, 1.0)

    and bulk construction through :meth:`from_edges`.
    """

    def __init__(self) -> None:
        self._adjacency: Dict[VertexId, Dict[VertexId, float]] = {}
        self._coordinates: Dict[VertexId, Point] = {}
        self._edge_count = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[VertexId, VertexId, float]],
        coordinates: Optional[Mapping[VertexId, Tuple[float, float]]] = None,
    ) -> "RoadNetwork":
        """Build a network from ``(u, v, weight)`` triples.

        Args:
            edges: iterable of ``(u, v, weight)`` triples.
            coordinates: optional mapping from vertex id to ``(x, y)``.

        Returns:
            A new :class:`RoadNetwork` containing every listed vertex and edge.
        """
        network = cls()
        for u, v, weight in edges:
            if u not in network:
                network.add_vertex(u)
            if v not in network:
                network.add_vertex(v)
            network.add_edge(u, v, weight)
        if coordinates:
            for vertex, (x, y) in coordinates.items():
                if vertex not in network:
                    network.add_vertex(vertex)
                network.set_coordinate(vertex, x, y)
        return network

    def add_vertex(self, vertex: VertexId, x: Optional[float] = None, y: Optional[float] = None) -> None:
        """Add a vertex; optionally with an ``(x, y)`` coordinate.

        Adding an existing vertex is a no-op except that a provided coordinate
        overwrites the stored one.
        """
        if vertex not in self._adjacency:
            self._adjacency[vertex] = {}
        if x is not None and y is not None:
            self._coordinates[vertex] = Point(float(x), float(y))

    def set_coordinate(self, vertex: VertexId, x: float, y: float) -> None:
        """Attach or replace the planar coordinate of ``vertex``."""
        self._require_vertex(vertex)
        self._coordinates[vertex] = Point(float(x), float(y))

    def add_edge(self, u: VertexId, v: VertexId, weight: float) -> None:
        """Add an undirected edge with a positive ``weight``.

        Re-adding an existing edge overwrites its weight.

        Raises:
            VertexNotFoundError: if either endpoint is unknown.
            InvalidNetworkError: for non-positive weights or self loops.
        """
        self._require_vertex(u)
        self._require_vertex(v)
        if u == v:
            raise InvalidNetworkError(f"self loops are not allowed (vertex {u})")
        if weight <= 0:
            raise InvalidNetworkError(
                f"edge ({u}, {v}) must have a positive weight, got {weight}"
            )
        is_new = v not in self._adjacency[u]
        self._adjacency[u][v] = float(weight)
        self._adjacency[v][u] = float(weight)
        if is_new:
            self._edge_count += 1

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __contains__(self, vertex: object) -> bool:
        return vertex in self._adjacency

    def __iter__(self) -> Iterator[VertexId]:
        return iter(self._adjacency)

    @property
    def vertex_count(self) -> int:
        """Number of vertices."""
        return len(self._adjacency)

    @property
    def edge_count(self) -> int:
        """Number of undirected edges."""
        return self._edge_count

    def vertices(self) -> List[VertexId]:
        """Return all vertex identifiers (in insertion order)."""
        return list(self._adjacency)

    def edges(self) -> Iterator[Edge]:
        """Yield every undirected edge exactly once."""
        for u, neighbours in self._adjacency.items():
            for v, weight in neighbours.items():
                if u < v:
                    yield Edge(u, v, weight)

    def edge_weight(self, u: VertexId, v: VertexId) -> float:
        """Return the weight of edge ``(u, v)``.

        Raises:
            EdgeNotFoundError: if the edge does not exist.
        """
        try:
            return self._adjacency[u][v]
        except KeyError:
            raise EdgeNotFoundError(u, v) from None

    def neighbours_view(self, vertex: VertexId) -> Mapping[VertexId, float]:
        """Return the *internal* adjacency mapping of ``vertex``.

        The returned mapping must not be mutated; it exists so hot loops
        (Dijkstra, grid construction) can avoid a copy per expansion.
        """
        self._require_vertex(vertex)
        return self._adjacency[vertex]

    @property
    def adjacency(self) -> Mapping[VertexId, Mapping[VertexId, float]]:
        """The *internal* ``{vertex: {neighbour: weight}}`` mapping.

        Must not be mutated.  For loops that only ever index it with vertices
        they already hold (a checked endpoint, a neighbour read off it, a
        vertex on a planned route), so :meth:`neighbours_view`'s per-call
        vertex check would be pure overhead.
        """
        return self._adjacency

    @property
    def coordinates(self) -> Mapping[VertexId, Point]:
        """The *internal* ``{vertex: point}`` mapping (must not be mutated).

        Vertices without a coordinate are absent.  For whole-network passes
        (grid construction, the journal's network record) that would
        otherwise pay :meth:`coordinate`'s checks on every vertex.
        """
        return self._coordinates

    def coordinate(self, vertex: VertexId) -> Point:
        """Return the planar coordinate of ``vertex``.

        Raises:
            VertexNotFoundError: if the vertex is unknown.
            InvalidNetworkError: if the vertex has no coordinate.
        """
        self._require_vertex(vertex)
        try:
            return self._coordinates[vertex]
        except KeyError:
            raise InvalidNetworkError(f"vertex {vertex} has no coordinate") from None

    def has_coordinates(self) -> bool:
        """Return ``True`` when every vertex carries a coordinate."""
        return len(self._coordinates) == len(self._adjacency) and bool(self._adjacency)

    def bounding_box(self) -> BoundingBox:
        """Return the bounding box of all vertex coordinates.

        Raises:
            InvalidNetworkError: if no vertex has a coordinate.
        """
        points = self._coordinates.values()
        if not points:
            raise InvalidNetworkError("the network has no vertex coordinates")
        xs = [point.x for point in points]
        ys = [point.y for point in points]
        return BoundingBox(min(xs), min(ys), max(xs), max(ys))

    def euclidean_distance(self, u: VertexId, v: VertexId) -> float:
        """Return the straight-line distance between two vertices' coordinates."""
        return self.coordinate(u).distance_to(self.coordinate(v))

    # ------------------------------------------------------------------
    # structure checks
    # ------------------------------------------------------------------
    def validate(self, require_coordinates: bool = False) -> None:
        """Validate structural requirements, raising on the first violation.

        Args:
            require_coordinates: demand a coordinate on every vertex (the grid
                index needs this).

        Raises:
            InvalidNetworkError: when a requirement is violated.
        """
        if require_coordinates and not self.has_coordinates():
            missing = [v for v in self._adjacency if v not in self._coordinates]
            raise InvalidNetworkError(
                f"{len(missing)} vertices have no coordinate (e.g. {missing[:5]})"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"RoadNetwork(vertices={self.vertex_count}, edges={self.edge_count})"

    def _require_vertex(self, vertex: VertexId) -> None:
        if vertex not in self._adjacency:
            raise VertexNotFoundError(vertex)
