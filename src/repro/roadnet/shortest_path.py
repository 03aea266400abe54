"""The path walk every routing answer ends in.

Every price and every pick-up time in the system is derived from shortest-path
distances on the road network (Section 2.1 of the paper).  Distances come
from the routing engine's trees (:mod:`repro.roadnet.routing`); paths come
from :func:`shortest_path`, which every engine's ``path`` lands in -- and
through ``engine.path`` so do vehicle re-plans (``vehicles.movement.plan_route``).
The engine passes the source's distance tree and the path is read off it.

The independent searches the tests check these against (a full Dijkstra
tree, an early-terminated Dijkstra path search, A*, bidirectional and
radius-bounded Dijkstra) live in ``tests/routing_reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Tuple

from repro.errors import DisconnectedError, VertexNotFoundError
from repro.roadnet.graph import RoadNetwork, VertexId

__all__ = [
    "PathResult",
    "shortest_path",
]

INFINITY = float("inf")


@dataclass(frozen=True)
class PathResult:
    """The result of a point-to-point shortest-path query."""

    source: VertexId
    target: VertexId
    distance: float
    path: Tuple[VertexId, ...]


def _require_vertices(network: RoadNetwork, vertices: Iterable[VertexId]) -> None:
    for vertex in vertices:
        if vertex not in network:
            raise VertexNotFoundError(vertex)


def shortest_path(
    network: RoadNetwork,
    source: VertexId,
    target: VertexId,
    tree: Optional[Mapping[VertexId, float]],
) -> PathResult:
    """Return the shortest path (distance and vertex sequence) between two vertices.

    ``tree`` is the distance tree rooted at ``source`` (any mapping
    ``vertex -> dist(source, vertex)`` that omits unreachable vertices; it
    is not read when ``source == target``, so it may be ``None`` there).
    The path is read off it: walking back from ``target``, each vertex ``v``
    is preceded by the neighbour ``u`` that minimises
    ``(tree[u] + w(u, v), tree[u], u)``.  That is the parent a Dijkstra
    search sets -- the first-settled neighbour attaining ``v``'s final
    label, the search settling in ``(distance, vertex id)`` order -- so the
    walk returns the vertex sequence and the float such a search would,
    exact ties included.

    Raises:
        VertexNotFoundError: if either endpoint is unknown.
        DisconnectedError: if ``tree`` omits ``target`` or does not lead
            back to ``source``.
    """
    _require_vertices(network, (source, target))
    if source == target:
        return PathResult(source, target, 0.0, (source,))
    distance = tree.get(target)
    if distance is None:
        raise DisconnectedError(source, target)
    label_of = tree.get
    # The endpoints were checked on entry and every later vertex is read off
    # the adjacency itself, so the walk indexes it directly.
    adjacency = network.adjacency
    # No simple path has more vertices than the network: a walk that long is
    # circling in a tree that was not rooted at ``source``.
    longest = len(network)
    path = [target]
    current = target
    while current != source:
        best = None
        for u, weight in adjacency[current].items():
            label = label_of(u)
            if label is not None:
                key = (label + weight, label, u)
                if best is None or key < best:
                    best = key
        if best is None or len(path) == longest:
            raise DisconnectedError(source, target)
        current = best[2]
        path.append(current)
    path.reverse()
    return PathResult(source, target, float(distance), tuple(path))
