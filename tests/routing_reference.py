"""Independent point-to-point searches the routing tests check engines against.

Nothing in ``src/`` calls these: every distance and path the system uses
comes from a routing engine (:mod:`repro.roadnet.routing`) or from
:func:`repro.roadnet.shortest_path.shortest_path`.  They are kept here as
references with their own search loops -- an early-terminated Dijkstra, A*,
a meet-in-the-middle Dijkstra and a radius-bounded expansion -- plus
:func:`path_length`, the weight of a vertex walk.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import DisconnectedError
from repro.roadnet.graph import RoadNetwork, VertexId
from repro.roadnet.shortest_path import (
    INFINITY,
    PathResult,
    _require_vertices,
    reconstruct_path,
)


def shortest_path_distance(network: RoadNetwork, source: VertexId, target: VertexId) -> float:
    """Return ``dist(source, target)`` on the road network.

    Runs a Dijkstra search from ``source`` that stops as soon as ``target``
    is settled.

    Raises:
        VertexNotFoundError: if either endpoint is unknown.
        DisconnectedError: if no path connects the endpoints.
    """
    _require_vertices(network, (source, target))
    if source == target:
        return 0.0
    dist: Dict[VertexId, float] = {source: 0.0}
    heap: List[Tuple[float, VertexId]] = [(0.0, source)]
    settled: set = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in settled:
            continue
        if u == target:
            return d
        settled.add(u)
        for v, weight in network.neighbours_view(u).items():
            nd = d + weight
            if nd < dist.get(v, INFINITY):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    raise DisconnectedError(source, target)


def astar_path(
    network: RoadNetwork,
    source: VertexId,
    target: VertexId,
    heuristic: Optional[Dict[VertexId, float]] = None,
) -> PathResult:
    """A* search from ``source`` to ``target``.

    Without an explicit ``heuristic`` the Euclidean distance to ``target`` is
    used, which is admissible whenever every edge weight is at least the
    Euclidean length of the edge -- true for all networks produced by
    :mod:`repro.roadnet.generators` (and verified by their tests).  Ties may
    break differently from :func:`repro.roadnet.shortest_path.shortest_path`.

    Args:
        network: the road network (must carry coordinates unless a heuristic
            mapping is given).
        source: start vertex.
        target: goal vertex.
        heuristic: optional pre-computed admissible lower bounds
            ``{vertex: h(vertex)}``; missing vertices default to 0.

    Raises:
        VertexNotFoundError: if either endpoint is unknown.
        DisconnectedError: if no path connects the endpoints.
    """
    _require_vertices(network, (source, target))
    if source == target:
        return PathResult(source, target, 0.0, (source,))

    if heuristic is None:
        target_point = network.coordinate(target)

        def estimate(vertex: VertexId) -> float:
            return network.coordinate(vertex).distance_to(target_point)

    else:

        def estimate(vertex: VertexId) -> float:
            return heuristic.get(vertex, 0.0)

    dist: Dict[VertexId, float] = {source: 0.0}
    parent: Dict[VertexId, VertexId] = {}
    heap: List[Tuple[float, float, VertexId]] = [(estimate(source), 0.0, source)]
    settled: set = set()
    while heap:
        _, d, u = heapq.heappop(heap)
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
                heapq.heappush(heap, (nd + estimate(v), nd, v))
    raise DisconnectedError(source, target)


def bidirectional_dijkstra(network: RoadNetwork, source: VertexId, target: VertexId) -> PathResult:
    """Meet-in-the-middle Dijkstra between ``source`` and ``target``.

    Produces the same distance as :func:`shortest_path_distance` while
    settling far fewer vertices on large networks.

    Raises:
        VertexNotFoundError: if either endpoint is unknown.
        DisconnectedError: if no path connects the endpoints.
    """
    _require_vertices(network, (source, target))
    if source == target:
        return PathResult(source, target, 0.0, (source,))

    dist_f: Dict[VertexId, float] = {source: 0.0}
    dist_b: Dict[VertexId, float] = {target: 0.0}
    parent_f: Dict[VertexId, VertexId] = {}
    parent_b: Dict[VertexId, VertexId] = {}
    heap_f: List[Tuple[float, VertexId]] = [(0.0, source)]
    heap_b: List[Tuple[float, VertexId]] = [(0.0, target)]
    settled_f: set = set()
    settled_b: set = set()
    best = INFINITY
    meeting: Optional[VertexId] = None

    def relax(
        heap: List[Tuple[float, VertexId]],
        dist: Dict[VertexId, float],
        parent: Dict[VertexId, VertexId],
        settled: set,
        other_dist: Dict[VertexId, float],
    ) -> None:
        nonlocal best, meeting
        d, u = heapq.heappop(heap)
        if u in settled:
            return
        settled.add(u)
        for v, weight in network.neighbours_view(u).items():
            nd = d + weight
            if nd < dist.get(v, INFINITY):
                dist[v] = nd
                parent[v] = u
                heapq.heappush(heap, (nd, v))
            if v in other_dist and nd + other_dist[v] < best:
                best = nd + other_dist[v]
                meeting = v
        if u in other_dist and d + other_dist[u] < best:
            best = d + other_dist[u]
            meeting = u

    while heap_f and heap_b:
        if heap_f[0][0] + heap_b[0][0] >= best:
            break
        if heap_f[0][0] <= heap_b[0][0]:
            relax(heap_f, dist_f, parent_f, settled_f, dist_b)
        else:
            relax(heap_b, dist_b, parent_b, settled_b, dist_f)

    if meeting is None:
        raise DisconnectedError(source, target)

    forward = reconstruct_path(parent_f, source, meeting)
    backward = reconstruct_path(parent_b, target, meeting)
    full_path = forward + list(reversed(backward[:-1]))
    return PathResult(source, target, best, tuple(full_path))


def bounded_dijkstra(
    network: RoadNetwork, source: VertexId, radius: float
) -> Dict[VertexId, float]:
    """Return distances from ``source`` to every vertex within ``radius``.

    Vertices whose shortest-path distance exceeds ``radius`` are omitted.

    Raises:
        VertexNotFoundError: if ``source`` is unknown.
        ValueError: if ``radius`` is negative.
    """
    if radius < 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    _require_vertices(network, (source,))
    dist: Dict[VertexId, float] = {source: 0.0}
    result: Dict[VertexId, float] = {}
    heap: List[Tuple[float, VertexId]] = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if u in result:
            continue
        if d > radius:
            break
        result[u] = d
        for v, weight in network.neighbours_view(u).items():
            nd = d + weight
            if nd <= radius and nd < dist.get(v, INFINITY):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return result


def path_length(network: RoadNetwork, path: Iterable[VertexId]) -> float:
    """Return the total weight of a vertex sequence interpreted as a walk.

    Raises:
        EdgeNotFoundError: if two consecutive vertices are not adjacent.
    """
    total = 0.0
    previous: Optional[VertexId] = None
    for vertex in path:
        if previous is not None:
            total += network.edge_weight(previous, vertex)
        previous = vertex
    return total
