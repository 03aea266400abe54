"""Independent searches the routing tests check the engine against, and the
network shapes only tests draw from.

Nothing in ``src/`` calls these: every distance and path the system uses
comes from a routing engine (:mod:`repro.roadnet.routing`) and the walks of
:mod:`repro.roadnet.shortest_path`.  They are kept here as references with
their own loops -- a full Dijkstra tree over the dict-of-dicts adjacency,
the tree walk over a vertex-keyed ``Mapping`` (:func:`tree_walk_path`, the
oracle the engine's index-space walks are held to), an early-terminated
Dijkstra (for a distance, :func:`shortest_path_distance`, and for a path,
:func:`search_path`), A*, a meet-in-the-middle Dijkstra and a
radius-bounded expansion -- plus :func:`path_length`, the weight of a
vertex walk, and :func:`connected_components`.

:func:`random_geometric_network` and :func:`ring_radial_network` build the
two network shapes beside ``repro.roadnet.generators``' grids that the
routing, grid and A* property tests draw from.
"""

from __future__ import annotations

import heapq
import math
import random
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.errors import ConfigurationError, DisconnectedError, VertexNotFoundError
from repro.roadnet.graph import RoadNetwork, VertexId
from repro.roadnet.shortest_path import INFINITY, PathResult


def _require_vertices(network: RoadNetwork, vertices: Iterable[VertexId]) -> None:
    for vertex in vertices:
        if vertex not in network:
            raise VertexNotFoundError(vertex)


def dijkstra_all(network: RoadNetwork, source: VertexId) -> Dict[VertexId, float]:
    """Return shortest-path distances from ``source`` to every reachable vertex.

    The reference tree: a heap Dijkstra over the network's own adjacency,
    sharing nothing with the CSR engine's arrays.

    Raises:
        VertexNotFoundError: if ``source`` is unknown.
    """
    _require_vertices(network, (source,))
    dist: Dict[VertexId, float] = {source: 0.0}
    result: Dict[VertexId, float] = {}
    heap: List[Tuple[float, VertexId]] = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if u in result:
            continue
        result[u] = d
        for v, weight in network.neighbours_view(u).items():
            nd = d + weight
            if nd < dist.get(v, INFINITY):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return result


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


def search_path(network: RoadNetwork, source: VertexId, target: VertexId) -> PathResult:
    """Return the shortest path from ``source`` to ``target`` by a Dijkstra
    search that stops as soon as ``target`` is settled.

    The search the tree walks (:func:`tree_walk_path`,
    :func:`repro.roadnet.shortest_path.shortest_path`) mirror: it settles in ``(distance, vertex id)`` order and keeps the
    first parent that attains a vertex's final label, so both return the
    same vertex sequence and the same float, exact ties included.

    Raises:
        VertexNotFoundError: if either endpoint is unknown.
        DisconnectedError: if no path connects the endpoints.
    """
    _require_vertices(network, (source, target))
    if source == target:
        return PathResult(source, target, 0.0, (source,))
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


def tree_walk_path(
    network: RoadNetwork,
    source: VertexId,
    target: VertexId,
    tree: Optional[Mapping[VertexId, float]],
) -> PathResult:
    """Return the shortest path read off ``tree``, the distance tree rooted
    at ``source`` (any mapping ``vertex -> dist(source, vertex)`` that omits
    unreachable vertices; not read when ``source == target``).

    Walking back from ``target``, each vertex ``v`` is preceded by the
    neighbour ``u`` that minimises ``(tree[u] + w(u, v), tree[u], u)``: the
    parent a Dijkstra search sets.  This is the vertex-keyed form of
    :func:`repro.roadnet.shortest_path.shortest_path`'s index-space walk,
    kept as its oracle.

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
    adjacency = network.adjacency
    # No simple path has more vertices than the network: a walk that long is
    # circling in a tree that was not rooted at ``source``.
    longest = network.vertex_count
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


def connected_components(network: RoadNetwork) -> List[List[VertexId]]:
    """Return the sorted vertex list of every connected component."""
    adjacency = network.adjacency
    remaining = set(adjacency)
    components: List[List[VertexId]] = []
    while remaining:
        start = next(iter(remaining))
        seen = {start}
        stack = [start]
        while stack:
            current = stack.pop()
            for neighbour in adjacency[current]:
                if neighbour not in seen:
                    seen.add(neighbour)
                    stack.append(neighbour)
        components.append(sorted(seen))
        remaining -= seen
    return components


def is_connected(network: RoadNetwork) -> bool:
    """``True`` when the network has at most one connected component."""
    return len(connected_components(network)) <= 1


def random_geometric_network(
    vertex_count: int,
    radius: float = 0.2,
    extent: float = 1.0,
    seed: Optional[int] = None,
) -> RoadNetwork:
    """Build a random geometric graph, patched to be connected.

    ``vertex_count`` points are placed uniformly at random in a square of side
    ``extent``; every pair closer than ``radius`` is connected with an edge
    weighted by its Euclidean length.  Components are then stitched together
    through their closest vertex pairs so that the result is always connected
    (a requirement of the simulation engine).

    Args:
        vertex_count: number of vertices (>= 1).
        radius: connection radius.
        extent: side length of the square the points are drawn from.
        seed: RNG seed for reproducibility.
    """
    if vertex_count < 1:
        raise ConfigurationError(f"vertex_count must be >= 1, got {vertex_count}")
    if radius <= 0 or extent <= 0:
        raise ConfigurationError("radius and extent must be positive")

    rng = random.Random(seed)
    network = RoadNetwork()
    positions: Dict[int, Tuple[float, float]] = {}
    for vertex in range(1, vertex_count + 1):
        x, y = rng.uniform(0.0, extent), rng.uniform(0.0, extent)
        positions[vertex] = (x, y)
        network.add_vertex(vertex, x=x, y=y)

    vertices = list(positions)
    for i, u in enumerate(vertices):
        ux, uy = positions[u]
        for v in vertices[i + 1:]:
            vx, vy = positions[v]
            distance = math.hypot(ux - vx, uy - vy)
            if 0 < distance <= radius:
                network.add_edge(u, v, distance)

    components = connected_components(network)
    while len(components) > 1:
        base = components[0]
        other = components[1]
        best: Tuple[float, int, int] = (math.inf, -1, -1)
        for u in base:
            for v in other:
                distance = math.hypot(
                    positions[u][0] - positions[v][0], positions[u][1] - positions[v][1]
                )
                if 0 < distance < best[0]:
                    best = (distance, u, v)
        if best[1] == -1:
            # Two vertices share a coordinate; connect them with a tiny edge.
            network.add_edge(base[0], other[0], 1e-9)
        else:
            network.add_edge(best[1], best[2], best[0])
        components = connected_components(network)
    return network


def ring_radial_network(
    rings: int,
    spokes: int,
    ring_spacing: float = 1.0,
    seed: Optional[int] = None,
    weight_jitter: float = 0.0,
) -> RoadNetwork:
    """Build a ring-and-radial network resembling a city with a centre.

    A central vertex is surrounded by ``rings`` concentric rings, each with
    ``spokes`` vertices.  Consecutive vertices on a ring are connected, and
    each vertex is connected radially to the matching vertex of the next ring
    inwards (the innermost ring connects to the centre).

    Args:
        rings: number of rings (>= 1).
        spokes: vertices per ring (>= 3).
        ring_spacing: radial distance between consecutive rings.
        seed: RNG seed for the optional weight jitter.
        weight_jitter: relative upper bound of random weight inflation.
    """
    if rings < 1:
        raise ConfigurationError(f"rings must be >= 1, got {rings}")
    if spokes < 3:
        raise ConfigurationError(f"spokes must be >= 3, got {spokes}")
    if ring_spacing <= 0:
        raise ConfigurationError("ring_spacing must be positive")
    if weight_jitter < 0:
        raise ConfigurationError("weight_jitter must be non-negative")

    rng = random.Random(seed)

    def jitter(value: float) -> float:
        if weight_jitter == 0:
            return value
        return value * (1.0 + rng.uniform(0.0, weight_jitter))

    network = RoadNetwork()
    centre = 1
    network.add_vertex(centre, x=0.0, y=0.0)

    # Vertex id scheme: centre is 1, ring r (1-based) spoke k (0-based) is
    # 1 + (r - 1) * spokes + k + 1.
    def vid(ring: int, spoke: int) -> int:
        return 1 + (ring - 1) * spokes + spoke + 1

    for ring in range(1, rings + 1):
        radius = ring * ring_spacing
        for spoke in range(spokes):
            angle = 2.0 * math.pi * spoke / spokes
            network.add_vertex(vid(ring, spoke), x=radius * math.cos(angle), y=radius * math.sin(angle))

    for ring in range(1, rings + 1):
        radius = ring * ring_spacing
        chord = 2.0 * radius * math.sin(math.pi / spokes)
        for spoke in range(spokes):
            current = vid(ring, spoke)
            nxt = vid(ring, (spoke + 1) % spokes)
            network.add_edge(current, nxt, jitter(chord))
            if ring == 1:
                network.add_edge(centre, current, jitter(ring_spacing))
            else:
                network.add_edge(vid(ring - 1, spoke), current, jitter(ring_spacing))
    return network
