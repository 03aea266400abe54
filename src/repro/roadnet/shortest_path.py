"""Shortest-path machinery for PTRider.

Every price and every pick-up time in the system is derived from shortest-path
distances on the road network (Section 2.1 of the paper).  The module holds:

* :func:`shortest_path` -- the one path mechanism.  Every routing engine's
  ``path`` lands here (:mod:`repro.roadnet.routing`), and through
  ``engine.path`` so do vehicle re-plans (``vehicles.movement.plan_route``)
  and the fleet's full-path cell registration.  The csr, table and ch
  engines pass the source's distance tree and the path is read off it; the
  dict engine runs the early-terminated Dijkstra search;
* :func:`dijkstra_all` -- the full expansion: the dict backend's tree
  builder;
* :class:`DistanceOracle` -- a memoising facade that caches single-source
  trees; it backs the "dict" backend of :mod:`repro.roadnet.routing`, which
  is what the matchers and the simulator hold on to.

The independent point-to-point searches the tests check these against (an
early-terminated distance query, A*, bidirectional and radius-bounded
Dijkstra) live in ``tests/routing_reference.py``.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.errors import DisconnectedError, VertexNotFoundError
from repro.roadnet.graph import RoadNetwork, VertexId

__all__ = [
    "PathResult",
    "shortest_path",
    "dijkstra_all",
    "reconstruct_path",
    "DistanceOracle",
]

INFINITY = float("inf")


@dataclass(frozen=True)
class PathResult:
    """The result of a point-to-point shortest-path query."""

    source: VertexId
    target: VertexId
    distance: float
    path: Tuple[VertexId, ...]

    @property
    def hop_count(self) -> int:
        """Number of edges on the path."""
        return max(0, len(self.path) - 1)


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


def dijkstra_all(network: RoadNetwork, source: VertexId) -> Dict[VertexId, float]:
    """Return shortest-path distances from ``source`` to every reachable vertex.

    This is the dict backend's tree builder (every :class:`DistanceOracle`
    miss lands here), so the inner loop hoists the heap operations and the
    neighbour accessor into locals -- the same treatment the CSR fallback's
    ``_tree_python`` gets.
    """
    _require_vertices(network, (source,))
    dist: Dict[VertexId, float] = {source: 0.0}
    result: Dict[VertexId, float] = {}
    heap: List[Tuple[float, VertexId]] = [(0.0, source)]
    push, pop = heapq.heappush, heapq.heappop
    neighbours_view = network.neighbours_view
    dist_get = dist.get
    while heap:
        d, u = pop(heap)
        if u in result:
            continue
        result[u] = d
        for v, weight in neighbours_view(u).items():
            nd = d + weight
            if nd < dist_get(v, INFINITY):
                dist[v] = nd
                push(heap, (nd, v))
    return result


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


@dataclass
class _OracleStats:
    """Bookkeeping counters exposed by :class:`DistanceOracle`."""

    queries: int = 0
    cache_hits: int = 0
    dijkstra_runs: int = 0


class DistanceOracle:
    """A memoising shortest-path distance oracle.

    The matchers issue many distance queries that share their source vertex
    (for example the request start location ``s`` against many candidate
    pick-up points), so the oracle caches complete single-source shortest-path
    trees keyed by source.  A ``max_cached_sources`` bound keeps memory in
    check for day-long simulations; the eviction policy is FIFO, which is
    adequate because sources are short-lived (one request, one vehicle step).
    """

    def __init__(self, network: RoadNetwork, max_cached_sources: int = 1024) -> None:
        if max_cached_sources <= 0:
            raise ValueError("max_cached_sources must be positive")
        self._network = network
        self._max_cached_sources = max_cached_sources
        # OrderedDict doubles as the FIFO eviction queue: popitem(last=False)
        # evicts the oldest source in O(1) instead of list.pop(0)'s O(n).
        self._trees: "OrderedDict[VertexId, Dict[VertexId, float]]" = OrderedDict()
        self.stats = _OracleStats()

    @property
    def network(self) -> RoadNetwork:
        """The road network the oracle answers queries on."""
        return self._network

    def distance(self, source: VertexId, target: VertexId) -> float:
        """Return ``dist(source, target)``, computing and caching as needed.

        The tree the answer is read from is always rooted at the *smaller*
        endpoint (the graph is symmetric, so either root is correct).  Fixing
        the root canonically -- rather than preferring whichever tree happens
        to be cached -- makes every point-to-point answer bit-for-bit
        independent of cache state, which the batched dispatch pipeline
        relies on to reproduce the sequential loop's floats exactly.

        Raises:
            DisconnectedError: if ``target`` is unreachable from ``source``.
        """
        self.stats.queries += 1
        if source == target:
            return 0.0
        root, leaf = (source, target) if source <= target else (target, source)
        tree = self._trees.get(root)
        if tree is None:
            tree = self._grow_tree(root)
        else:
            self.stats.cache_hits += 1
        try:
            return tree[leaf]
        except KeyError:
            raise DisconnectedError(source, target) from None

    def distances_from(self, source: VertexId) -> Dict[VertexId, float]:
        """Return (a reference to) the full distance tree rooted at ``source``."""
        self.stats.queries += 1
        tree = self._trees.get(source)
        if tree is None:
            tree = self._grow_tree(source)
        else:
            self.stats.cache_hits += 1
        return tree

    def path(self, source: VertexId, target: VertexId) -> PathResult:
        """Return the full path; not cached (paths are only needed for movement)."""
        return shortest_path(self._network, source, target)

    def invalidate(self) -> None:
        """Drop every cached tree (call after the network is mutated)."""
        self._trees.clear()

    def _grow_tree(self, source: VertexId) -> Dict[VertexId, float]:
        tree = dijkstra_all(self._network, source)
        self.stats.dijkstra_runs += 1
        self._trees[source] = tree
        if len(self._trees) > self._max_cached_sources:
            self._trees.popitem(last=False)
        return tree
