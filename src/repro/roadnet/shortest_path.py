"""The path search every routing answer ends in.

Every price and every pick-up time in the system is derived from shortest-path
distances on the road network (Section 2.1 of the paper).  Distances come
from the routing engine's trees (:mod:`repro.roadnet.routing`); paths come
from :func:`shortest_path`, which every engine's ``path`` lands in -- and
through ``engine.path`` so do vehicle re-plans (``vehicles.movement.plan_route``)
and the fleet's full-path cell registration.  The engine passes the source's
distance tree and the path is read off it; without a tree the function runs
an early-terminated Dijkstra search.

The independent searches the tests check these against (a full Dijkstra
tree, an early-terminated distance query, A*, bidirectional and
radius-bounded Dijkstra) live in ``tests/routing_reference.py``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.errors import DisconnectedError, VertexNotFoundError
from repro.roadnet.graph import RoadNetwork, VertexId

__all__ = [
    "PathResult",
    "shortest_path",
    "reconstruct_path",
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
    tree: Optional[Mapping[VertexId, float]] = None,
) -> PathResult:
    """Return the shortest path (distance and vertex sequence) between two vertices.

    Without ``tree`` this is a Dijkstra search from ``source`` that stops as
    soon as ``target`` is settled.  A caller that already holds the distance
    tree rooted at ``source`` (any mapping ``vertex -> dist(source, vertex)``
    that omits unreachable vertices) passes it as ``tree`` and the path is
    read off it instead: walking back from ``target``, each vertex ``v`` is
    preceded by the neighbour ``u`` that minimises
    ``(tree[u] + w(u, v), tree[u], u)``.  That is the parent the search sets
    -- the first-settled neighbour attaining ``v``'s final label, the search
    settling in ``(distance, vertex id)`` order -- so both arms return the
    same vertex sequence and the same float, exact ties included.

    Raises:
        VertexNotFoundError: if either endpoint is unknown.
        DisconnectedError: if no path connects the endpoints, or ``tree``
            omits ``target`` or does not lead back to ``source``.
    """
    _require_vertices(network, (source, target))
    if source == target:
        return PathResult(source, target, 0.0, (source,))
    if tree is not None:
        return _walk_tree(network, source, target, tree)
    dist: Dict[VertexId, float] = {source: 0.0}
    parent: Dict[VertexId, VertexId] = {}
    heap: List[Tuple[float, VertexId]] = [(0.0, source)]
    settled: set = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in settled:
            continue
        if u == target:
            return PathResult(source, target, d, tuple(reconstruct_path(parent, source, target)))
        settled.add(u)
        for v, weight in network.neighbours_view(u).items():
            nd = d + weight
            if nd < dist.get(v, INFINITY):
                dist[v] = nd
                parent[v] = u
                heapq.heappush(heap, (nd, v))
    raise DisconnectedError(source, target)


def _walk_tree(
    network: RoadNetwork,
    source: VertexId,
    target: VertexId,
    tree: Mapping[VertexId, float],
) -> PathResult:
    """The ``tree=`` arm of :func:`shortest_path` (``source != target``)."""
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


def reconstruct_path(
    parent: Dict[VertexId, VertexId], source: VertexId, target: VertexId
) -> List[VertexId]:
    """Rebuild the vertex sequence from a parent map produced by Dijkstra."""
    path = [target]
    current = target
    while current != source:
        current = parent[current]
        path.append(current)
    path.reverse()
    return path
