"""The routing engine behind every distance and path query.

Every price and pick-up time in PTRider derives from exact shortest-path
distances (Section 2.1 of the paper), so the matcher's latency is dominated
by how fast those queries are answered.  One engine answers them:

* :class:`CSREngine` -- compiles the :class:`~repro.roadnet.graph.RoadNetwork`
  into flat CSR adjacency arrays (``indptr`` / ``indices`` / ``weights``) and
  answers every query from a single-source distance tree over integer vertex
  indices, rooted at one end of the query or the other: a point query reads
  the tree rooted at the smaller endpoint, a path walks back through the
  source's tree (:func:`~repro.roadnet.shortest_path.shortest_path`).  When
  that tree is not cached but the one rooted at the query's other end is,
  and the network has more vertices than the cache has slots, the query is
  answered by a certified walk over the other end's tree
  (:func:`~repro.roadnet.shortest_path.certified_walk`), which returns the
  same floats and vertices bit for bit or refuses, and only a refusal roots
  the tree.  When SciPy is
  importable the trees are computed in C by
  :func:`scipy.sparse.csgraph.dijkstra` -- a whole batch of sources as one
  2-D plane (:meth:`CSREngine.prefetch_trees`, what the batch dispatch
  pipeline amortises a tick's requests with); otherwise a pure-Python
  int-indexed heap Dijkstra over the same arrays is used.  On both arms a
  row is an ``array('d')`` -- 8 bytes per vertex, and a read is a built-in
  ``float`` -- cached FIFO and read through :class:`_TreeView`, or straight
  by index (``row[index_of[v]]``) on the matchers' hottest reads.  Rows
  the dispatcher retains (:meth:`CSREngine.retain`: the trees rooted at its
  fleet's live stops and its last window's starts) are read after the cache
  and outlive its evictions.
* :class:`ALTIndex` -- an optional landmark (ALT) lower-bound index
  ("csr+alt"): for a set of landmarks ``L`` the triangle inequality gives
  the admissible bound ``dist(u, v) >= |dist(L, u) - dist(L, v)|``.  The
  matchers combine it with the grid-index cell bounds, taking the maximum
  of the two.  It prunes; it never computes a distance.

Backends are selected by name ("csr", "csr+alt") through :func:`make_engine`;
:class:`~repro.core.config.SystemConfig` carries the chosen name so the
service, the CLI and the benchmark harness agree on it.  Both answer every
query the same way; "csr+alt" only adds the landmark bounds.
"""

from __future__ import annotations

import heapq
import time
from array import array
from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import accumulate, chain, compress
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, DisconnectedError, VertexNotFoundError
from repro.roadnet.graph import RoadNetwork, VertexId
from repro.roadnet.shortest_path import INFINITY, PathResult, certified_walk, shortest_path

# Neither is required for correctness: SciPy computes the trees in C, NumPy
# vectorises the ALT bounds.
try:
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via the fallback tests
    _np = None
try:
    from scipy.sparse import csr_array as _csr_array
    from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra
except ImportError:  # pragma: no cover - exercised via the fallback tests
    _csr_array = None
    _csgraph_dijkstra = None

__all__ = [
    "ROUTING_BACKENDS",
    "EngineStats",
    "RoutingEngine",
    "CSRGraph",
    "ALTIndex",
    "CSREngine",
    "make_engine",
]

#: Backend names accepted by :func:`make_engine` and ``SystemConfig``.
ROUTING_BACKENDS = ("csr", "csr+alt")

#: Default number of ALT landmarks (a handful is enough on city-sized nets).
DEFAULT_LANDMARKS = 8


@dataclass
class EngineStats:
    """Work counters every routing engine accumulates.

    ``build_seconds`` is the time the engine's one-time preprocessing (the
    CSR compile and, on "csr+alt", the landmark trees) took.
    ``queries`` counts every ``distance``, ``distances_from`` and (two
    distinct endpoints) ``path`` call.  ``cache_hits`` counts the queries
    read off a cached tree rooted where the query reads it;
    ``dijkstra_runs`` counts full distance trees computed, on demand or
    prefetched.  ``walks`` counts answers given by a certified walk over
    the tree of the query's other end instead (engine queries and the
    batch pool's leg walks alike), and ``walks_refused`` the walks the
    certificate refused, each of which then rooted its tree.
    ``pinned_hits`` counts the reads a pinned row (:attr:`CSREngine.pinned`)
    answered after the cache missed: a tree read by a query and a row
    ``prefetch_trees`` handed out, so ``cache_hits`` keeps counting the
    cache alone.  ``phast_sweeps`` always reads 0; it stays, off the panels
    (``"panel": False``), because ``perfbench/harness.py`` still reads it.
    """

    queries: int = 0
    cache_hits: int = 0
    pinned_hits: int = 0
    dijkstra_runs: int = 0
    walks: int = 0
    walks_refused: int = 0
    phast_sweeps: int = field(default=0, metadata={"panel": False})
    build_seconds: float = 0.0


class CSRGraph:
    """Flat CSR (compressed sparse row) adjacency of a road network.

    Vertices are mapped to dense integer indices; the neighbours of index
    ``i`` are ``indices[indptr[i]:indptr[i+1]]`` with edge weights at the same
    positions of ``weights``.  Both directions of every undirected edge are
    stored, so the arrays describe a symmetric directed graph.
    """

    __slots__ = ("vertex_ids", "index_of", "indptr", "indices", "weights", "matrix")

    def __init__(self, network: RoadNetwork) -> None:
        # Straight off the adjacency dicts, in their order: vertex order for
        # the rows, each vertex's neighbour order within its row.
        neighbourhoods = network.adjacency.values()
        self.vertex_ids: List[VertexId] = list(network.adjacency)
        self.index_of: Dict[VertexId, int] = dict(
            zip(self.vertex_ids, range(len(self.vertex_ids)))
        )
        self.indptr: List[int] = [0, *accumulate(map(len, neighbourhoods))]
        self.indices: List[int] = list(
            map(self.index_of.__getitem__, chain.from_iterable(neighbourhoods))
        )
        self.weights: List[float] = list(chain.from_iterable(map(dict.values, neighbourhoods)))
        self._finalise_matrix()

    def _finalise_matrix(self) -> None:
        """Build the SciPy csr_array over the flat lists (None without SciPy)."""
        if _csr_array is not None:
            n = len(self.vertex_ids)
            self.matrix = _csr_array(
                (
                    _np.asarray(self.weights, dtype=_np.float64),
                    _np.asarray(self.indices, dtype=_np.int64),
                    _np.asarray(self.indptr, dtype=_np.int64),
                ),
                shape=(n, n),
            )
        else:
            self.matrix = None

    def subgraph(self, keep: Sequence[bool]) -> "CSRGraph":
        """The graph over the same vertices with only the edges ``keep`` flags.

        ``keep`` holds one flag per CSR position (``indices`` order).  The
        vertex ids and index map are shared, not copied.  The grid index
        computes ``v.min`` on its cell-interior graph this way.
        """
        graph = CSRGraph.__new__(CSRGraph)
        graph.vertex_ids = self.vertex_ids
        graph.index_of = self.index_of
        kept_before = list(accumulate(keep, initial=0))
        graph.indptr = list(map(kept_before.__getitem__, self.indptr))
        graph.indices = list(compress(self.indices, keep))
        graph.weights = list(compress(self.weights, keep))
        graph._finalise_matrix()
        return graph

    def __len__(self) -> int:
        return len(self.vertex_ids)

    def index(self, vertex: VertexId) -> int:
        """Map a vertex id to its dense index.

        Raises:
            VertexNotFoundError: if the vertex is unknown.
        """
        try:
            return self.index_of[vertex]
        except KeyError:
            raise VertexNotFoundError(vertex) from None

    # ------------------------------------------------------------------
    # single-source trees
    # ------------------------------------------------------------------
    def tree(self, source_index: int) -> array:
        """Distances from ``source_index`` to every index (inf = unreachable).

        The row is an ``array('d')`` on both arms.  With SciPy it is the
        ``float64`` row of :func:`scipy.sparse.csgraph.dijkstra`, copied in
        one buffer copy; the pure-Python Dijkstra writes into one
        directly.  A read returns a built-in ``float``.  Callers must treat
        the row as immutable.
        """
        if self.matrix is not None:
            return _row(_csgraph_dijkstra(self.matrix, directed=True, indices=source_index))
        return self._tree_python([source_index])

    def trees(self, source_indices: Sequence[int]) -> List[array]:
        """Distance rows for many sources, one ``array('d')`` per source.

        With SciPy the whole batch is **one**
        ``scipy.sparse.csgraph.dijkstra(indices=[...])`` call; each row of
        its ``(len(sources), n)`` plane is copied out as its own array,
        bit-identical to what :meth:`tree` computes for that source alone,
        so no row keeps the plane alive.  The pure-Python fallback runs one
        search per source.
        """
        source_list = list(source_indices)
        if self.matrix is not None:
            if not source_list:
                return []
            plane = _csgraph_dijkstra(self.matrix, directed=True, indices=source_list)
            return [_row(row) for row in plane]
        return [self._tree_python([index]) for index in source_list]

    def nearest(self, source_indices: Sequence[int]) -> Sequence[float]:
        """Distance from every index to its *closest* source (inf = unreachable).

        The multi-source sibling of :meth:`tree`: one search seeded with every
        source at distance zero, so the row is the element-wise minimum of
        ``trees(source_indices)`` -- the same left-to-right float sums -- at
        the cost of one tree.  With SciPy that is one
        ``scipy.sparse.csgraph.dijkstra(indices=[...], min_only=True)`` call
        returning a ``float64`` ndarray, which the grid index gathers from
        with NumPy; the pure-Python fallback returns an ``array('d')``.  This
        is what the grid index computes ``v.min`` and its
        cell-pair lower-bound rows with.

        Raises:
            ValueError: if ``source_indices`` is empty.
        """
        source_list = list(source_indices)
        if not source_list:
            raise ValueError("nearest requires at least one source")
        if self.matrix is not None:
            return _csgraph_dijkstra(
                self.matrix, directed=True, indices=source_list, min_only=True
            )
        return self._tree_python(source_list)

    def _tree_python(self, source_indices: Sequence[int]) -> array:
        """Array-backed Dijkstra over the CSR arrays with an int-indexed heap.

        Seeded with every index of ``source_indices`` at distance zero: one
        source gives a tree row, several give the :meth:`nearest` row.  The
        distances are written straight into the ``array('d')`` returned.
        """
        indptr, indices, weights = self.indptr, self.indices, self.weights
        dist = array("d", [INFINITY]) * len(self.vertex_ids)
        for source_index in source_indices:
            dist[source_index] = 0.0
        heap: List[Tuple[float, int]] = [(0.0, index) for index in source_indices]
        heapq.heapify(heap)
        push, pop = heapq.heappush, heapq.heappop
        while heap:
            d, u = pop(heap)
            if d > dist[u]:
                continue
            for k in range(indptr[u], indptr[u + 1]):
                v = indices[k]
                nd = d + weights[k]
                if nd < dist[v]:
                    dist[v] = nd
                    push(heap, (nd, v))
        return dist


def _row(distances) -> array:
    """A SciPy ``float64`` row as the engine's row type: one exact-size copy.

    ``array('d', distances.tobytes())`` copies as fast but leaves ~6% spare
    capacity in every row, which the tree cache would hold for its lifetime.
    """
    row = array("d", [0.0]) * len(distances)
    memoryview(row)[:] = distances
    return row


class _TreeView(Mapping):
    """Dict-like view of a tree row, keyed by vertex id.

    Lookups of unreachable (or unknown) vertices raise ``KeyError``,
    iteration yields only reachable vertices.  The backing ``row`` is the
    engine's ``array('d')``, so a lookup returns a built-in ``float`` as
    stored.  ``row`` and ``index_of`` are public for readers that skip the
    mapping: ``row[index_of[v]]`` is ``dist(root, v)``, ``inf`` when ``v`` is
    unreachable, and ``KeyError`` when ``v`` is unknown.
    """

    __slots__ = ("_vertex_ids", "index_of", "row")

    def __init__(self, graph: CSRGraph, row: array) -> None:
        self._vertex_ids = graph.vertex_ids
        self.index_of = graph.index_of
        self.row = row

    def __getitem__(self, vertex: VertexId) -> float:
        value = self.row[self.index_of[vertex]]
        if value == INFINITY:
            raise KeyError(vertex)
        return value

    def get(self, vertex: VertexId, default=None):
        index = self.index_of.get(vertex)
        if index is None:
            return default
        value = self.row[index]
        return default if value == INFINITY else value

    def __contains__(self, vertex: object) -> bool:
        index = self.index_of.get(vertex)
        return index is not None and self.row[index] != INFINITY

    def __iter__(self) -> Iterator[VertexId]:
        row = self.row
        for index, vertex in enumerate(self._vertex_ids):
            if row[index] != INFINITY:
                yield vertex

    def __len__(self) -> int:
        return sum(1 for value in self.row if value != INFINITY)


class ALTIndex:
    """A landmark (ALT) lower-bound index over a CSR graph.

    Landmarks are chosen by farthest-point sampling so they spread over the
    network; each landmark stores its full distance array.  For any vertices
    ``u, v`` and landmark ``L`` the triangle inequality gives the admissible
    bound ``dist(u, v) >= |dist(L, u) - dist(L, v)|`` (the network is
    undirected); the index returns the maximum over all landmarks.
    """

    def __init__(self, graph: CSRGraph, landmarks: int = DEFAULT_LANDMARKS) -> None:
        if landmarks <= 0:
            raise ValueError(f"landmarks must be positive, got {landmarks}")
        self._graph = graph
        self.landmark_indices: List[int] = []
        tables: List[List[float]] = []
        n = len(graph)
        if n:
            # Seed with the vertex farthest from index 0, then repeatedly take
            # the vertex farthest from the already-chosen landmark set.
            seed_tree = graph.tree(0)
            first = self._farthest(seed_tree, exclude=set())
            self.landmark_indices.append(first)
            tables.append(graph.tree(first))
            closest = list(tables[0])
            while len(self.landmark_indices) < min(landmarks, n):
                candidate = self._farthest(closest, exclude=set(self.landmark_indices))
                if candidate is None:
                    break
                self.landmark_indices.append(candidate)
                tree = graph.tree(candidate)
                tables.append(tree)
                closest = [min(a, b) for a, b in zip(closest, tree)]
        self._tables = tables
        if _np is not None and tables:
            self._matrix = _np.asarray(tables, dtype=_np.float64)
        else:
            self._matrix = None

    @staticmethod
    def _farthest(dist: Sequence[float], exclude: set) -> Optional[int]:
        best_index, best_value = None, -1.0
        for index, value in enumerate(dist):
            if value != INFINITY and value > best_value and index not in exclude:
                best_index, best_value = index, value
        return best_index

    def lower_bound_indexed(self, source_index: int, target_index: int) -> float:
        """Admissible lower bound on the distance between two dense indices."""
        if source_index == target_index:
            return 0.0
        if self._matrix is not None:
            # inf - inf (a landmark that sees neither vertex) is NaN, which
            # fmax skips; inf (a landmark that sees exactly one) proves the
            # pair disconnected and wins the reduction.
            with _np.errstate(invalid="ignore"):
                diff = _np.abs(self._matrix[:, source_index] - self._matrix[:, target_index])
            return float(_np.fmax.reduce(diff, initial=0.0))
        best = 0.0
        for table in self._tables:
            a, b = table[source_index], table[target_index]
            if a == INFINITY and b == INFINITY:
                continue  # landmark sees neither vertex: no information
            if a == INFINITY or b == INFINITY:
                # The network is undirected, so a landmark reaching exactly one
                # of the two vertices proves they are disconnected.
                return INFINITY
            bound = a - b if a >= b else b - a
            if bound > best:
                best = bound
        return best


class CSREngine:
    """Array-backed routing over flat CSR adjacency, with optional ALT bounds.

    Single-source trees are computed over the CSR arrays (in C via SciPy when
    available, otherwise with the pure-Python int-indexed heap Dijkstra) and
    cached FIFO, keyed by source index; a point query reads the tree rooted
    at its smaller endpoint, or -- on a network larger than the cache --
    walks the other endpoint's cached tree when that walk is certified to
    give the same float, so every answer is independent of cache state.

    :attr:`pinned` holds rows outside the FIFO, by source index: every read
    of a root or leaf row looks there after the cache.  :meth:`retain` fills
    it with this engine's own rows for the current graph only, so a pinned
    read is the float the cache would have held; :meth:`invalidate` empties
    it.  Pinned rows are extra to the ``max_cached_sources`` budget: the
    engine may hold that many cached rows *plus* one pinned row per root its
    dispatcher names (the distinct live stop vertices and one window's
    distinct starts), each ``8 * V`` bytes.

    It answers every distance / path query the rest of the system issues;
    the matchers, the batch pipeline and the fleet type against it (as
    :data:`RoutingEngine`).  Callers must treat returned trees as immutable.
    """

    #: backend name as selected through ``SystemConfig.routing_backend``
    backend = "csr"

    def __init__(
        self,
        network: RoadNetwork,
        max_cached_sources: int = 1024,
        landmarks: int = 0,
    ) -> None:
        if max_cached_sources <= 0:
            raise ValueError("max_cached_sources must be positive")
        self._network = network
        self._max_cached_sources = max_cached_sources
        self._landmarks = landmarks
        self.stats = EngineStats()
        #: per-source tree cache, FIFO (``popitem(last=False)``, a hit never
        #: reorders); rows are ``array('d')`` on both tree arms
        self._trees: "OrderedDict[int, array]" = OrderedDict()
        self._compile()
        if landmarks > 0:
            self.backend = "csr+alt"

    def _compile(self) -> None:
        """Compile the CSR arrays (and landmark tables), timing both; a new
        graph starts with nothing pinned."""
        started = time.perf_counter()
        self._graph = CSRGraph(self._network)
        #: rows of this graph read after the cache and never evicted by it,
        #: by source index
        self.pinned: Dict[int, array] = {}
        self._alt = ALTIndex(self._graph, self._landmarks) if self._landmarks > 0 else None
        # A cache that holds a tree for every vertex never evicts one: each
        # root costs one tree for the engine's life, and a walk would only
        # put it off, walk after walk (perfbench ``dense_pool``, 400 vertices
        # in 1 024 slots: 2 216 walks saved 15 of 397 trees).  Only a network
        # larger than its cache walks cold roots (``commute_book``: 2.8 walks
        # per walked root, 1 106 trees down to 709).
        self._evicts_trees = len(self._graph) > self._max_cached_sources
        self.stats.build_seconds += time.perf_counter() - started

    @property
    def network(self) -> RoadNetwork:
        """The road network queries are answered on."""
        return self._network

    @property
    def max_cached_sources(self) -> int:
        """The tree-cache capacity the engine was built with.

        It bounds the FIFO cache only: :attr:`pinned` rows are held on top
        of it (at most one per root :meth:`retain` was last given, ``8 * V``
        bytes each), so a caller sizing the cache for memory adds those.
        """
        return self._max_cached_sources

    def retain(
        self,
        roots: Iterable[VertexId],
        pool: Mapping[VertexId, Optional[_TreeView]],
    ) -> None:
        """Replace :attr:`pinned` with the rows of ``roots``: each root's row
        in ``pool`` (a batch's trees) when it was built on this engine's
        current graph, else the row pinned before; every other row goes.

        No tree is rooted to retain it.  On a cache with a slot for every
        vertex nothing is evicted, so nothing is retained (see
        :meth:`_compile`).
        """
        retained: Dict[int, array] = {}
        if self._evicts_trees:
            index_of, previous = self._graph.index_of, self.pinned
            for vertex in roots:
                view = pool.get(vertex)
                if view is not None and view.index_of is index_of:
                    retained[index_of[vertex]] = view.row
                else:
                    index = index_of.get(vertex)  # ``None`` for an unknown root
                    if index in previous:
                        retained[index] = previous[index]
        self.pinned = retained

    def with_backend(self, backend: str) -> "CSREngine":
        """A fresh ``backend`` engine on the same network, with the same
        tree-cache capacity (the admin form's backend switch)."""
        return make_engine(self._network, backend, max_cached_sources=self._max_cached_sources)

    @property
    def graph(self) -> CSRGraph:
        """The compiled CSR adjacency (rebuilt by :meth:`invalidate`)."""
        return self._graph

    # ------------------------------------------------------------------
    def distance(self, source: VertexId, target: VertexId) -> float:
        """Return ``dist(source, target)``.

        Raises:
            VertexNotFoundError: if either endpoint is unknown.
            DisconnectedError: if no path connects the endpoints.
        """
        self.stats.queries += 1
        # Root the answering tree at the smaller vertex id (the network is
        # undirected, so either root is correct).  The canonical root makes
        # every answer bit-for-bit independent of which trees happen to be
        # cached -- the batched dispatch pipeline relies on this to reproduce
        # the sequential loop's floats exactly.
        root, leaf = (source, target) if source <= target else (target, source)
        index_of = self._graph.index_of
        try:
            root_index = index_of[root]
            leaf_index = index_of[leaf]
        except KeyError as error:
            raise VertexNotFoundError(error.args[0]) from None
        if root_index == leaf_index:
            return 0.0
        walked = self._cold_walk(root_index, leaf_index)
        if walked is not None:
            return walked[0]
        value = self._tree(root_index)[leaf_index]
        if value == INFINITY:
            raise DisconnectedError(source, target)
        return value

    def walk_distance(
        self, root: VertexId, leaf: VertexId, leaf_row: Optional[array] = None
    ) -> Optional[float]:
        """``dist(root, leaf)`` by a certified walk over ``leaf``'s tree, or
        ``None``.

        ``leaf_row`` is the tree row rooted at ``leaf`` the caller holds
        (the batch pool's rows); without one the engine's cached or pinned
        row is walked.  A walk that is certified returns the float
        ``distance(root, leaf)`` reads off ``root``'s tree, bit for bit, so
        a caller that roots trees at the smaller endpoint may take it in
        place of that tree.  ``None`` means: take ``root``'s tree -- it is
        cached already, the cache holds a tree for every vertex, there is no
        tree at ``leaf``, an endpoint is unknown or unreachable, or the walk
        was refused.  This is not a query: it bills only ``walks`` /
        ``walks_refused``.
        """
        index_of = self._graph.index_of
        root_index = index_of.get(root)
        leaf_index = index_of.get(leaf)
        if root_index is None or leaf_index is None or root_index == leaf_index:
            return None
        walked = self._cold_walk(root_index, leaf_index, leaf_row)
        return None if walked is None else walked[0]

    def distances_from(self, source: VertexId) -> Mapping[VertexId, float]:
        """Return the full single-source distance tree rooted at ``source``.

        The mapping contains every *reachable* vertex; unreachable vertices
        are absent (lookups raise ``KeyError``).
        """
        self.stats.queries += 1
        return _TreeView(self._graph, self._tree(self._graph.index(source)))

    def prefetch_trees(
        self, sources: Sequence[VertexId]
    ) -> Mapping[VertexId, Mapping[VertexId, float]]:
        """Bulk-compute the missing trees of ``sources`` in one vectorised call.

        Returns a mapping from each *known* source vertex to its full distance
        tree, in the order of ``sources``; unknown vertices are skipped
        (callers that care raise per-request, exactly where the sequential
        path would).  A source whose tree is cached is returned from the
        cache without touching any counter; one that is not cached but
        :attr:`pinned` is returned from the pin and billed one
        ``pinned_hits``.  All other sources go through **one**
        :meth:`CSRGraph.trees` call (one SciPy C call); each computed
        ``array('d')`` row is stored in the tree cache and billed as exactly
        one ``dijkstra_runs``.  The returned views hold their rows by
        reference, so cache eviction -- including churn caused by a prefetch
        larger than the cache -- can never invalidate a caller's tree
        mid-batch.
        """
        graph = self._graph
        index_of = graph.index_of
        cached = self._trees
        pinned = self.pinned
        views: Dict[VertexId, Mapping[VertexId, float]] = {}
        missing: Dict[VertexId, int] = {}
        for vertex in sources:
            if vertex in views:
                continue
            index = index_of.get(vertex)
            if index is None:
                continue
            row = cached.get(index)
            if row is None:
                row = pinned.get(index)
                if row is None:
                    missing[vertex] = index
                    views[vertex] = None  # keeps the caller's order; filled below
                    continue
                self.stats.pinned_hits += 1
            views[vertex] = _TreeView(graph, row)
        if missing:
            rows = self._graph.trees(list(missing.values()))
            self.stats.dijkstra_runs += len(missing)
            for (vertex, index), row in zip(missing.items(), rows):
                views[vertex] = _TreeView(graph, row)
                cached[index] = row
                if len(cached) > self._max_cached_sources:
                    cached.popitem(last=False)
        return views

    def path(self, source: VertexId, target: VertexId) -> PathResult:
        """Return the full shortest path between two vertices.

        Read off the source's distance tree by
        :func:`~repro.roadnet.shortest_path.shortest_path`, so the vertex
        sequence and the distance agree with every tree the engine hands
        out, exact ties included.  When the source's tree is not cached but
        the target's is -- a taxi re-planning towards a stop whose tree the
        matcher rooted -- and the network outgrows the cache, a certified
        walk over the target's tree gives the same vertices and float, and
        only a refused walk roots the source's tree.

        Raises:
            VertexNotFoundError: if either endpoint is unknown.
            DisconnectedError: if no path connects the endpoints.
        """
        graph = self._graph
        source_index = graph.index(source)
        target_index = graph.index(target)
        # ``path(v, v)`` -- a vehicle standing at its next stop -- needs no
        # tree, so it roots none and is not billed as a query.
        if source_index == target_index:
            return PathResult(source, target, 0.0, (source,))
        self.stats.queries += 1
        walked = self._cold_walk(source_index, target_index)
        if walked is not None:
            total, indices = walked
            vertices = tuple(map(graph.vertex_ids.__getitem__, indices))
            return PathResult(source, target, total, vertices)
        return shortest_path(graph, source, target, self._tree(source_index))

    def distance_lower_bound(self, source: VertexId, target: VertexId) -> float:
        """An admissible lower bound on ``dist(source, target)``.

        0.0 without an ALT index; with one, the best landmark difference.
        Matchers take the maximum of this bound and the grid-index cell
        bound.
        """
        if self._alt is None:
            return 0.0
        return self._alt.lower_bound_indexed(
            self._graph.index(source), self._graph.index(target)
        )

    def invalidate(self) -> None:
        """Recompile the CSR arrays and landmark tables, drop cached and
        pinned trees."""
        self._trees.clear()
        self._compile()

    # ------------------------------------------------------------------
    def _cold_walk(
        self, start: int, goal: int, row: Optional[array] = None
    ) -> Optional[Tuple[float, List[int]]]:
        """:func:`certified_walk` from ``start`` over ``goal``'s row (``row``,
        else the cached or pinned one), billed as a walk or a refusal.

        ``None`` without a walk when the cache holds a tree for every vertex
        (see :meth:`_compile`), when ``start``'s tree is cached or pinned
        (reading it is cheaper), when there is no row at ``goal`` and when
        ``start`` is unreachable (rooting its tree raises where the caller
        expects).
        """
        trees, pinned = self._trees, self.pinned
        if not self._evicts_trees or start in trees or start in pinned:
            return None
        if row is None:
            row = trees.get(goal)
            if row is None:
                row = pinned.get(goal)
                if row is None:
                    return None
        if row[start] == INFINITY:
            return None
        walked = certified_walk(self._graph, row, start, goal)
        if walked is None:
            self.stats.walks_refused += 1
        else:
            self.stats.walks += 1
        return walked

    def _tree(self, source_index: int) -> array:
        tree = self._trees.get(source_index)
        if tree is not None:
            self.stats.cache_hits += 1
            return tree
        tree = self.pinned.get(source_index)
        if tree is not None:
            self.stats.pinned_hits += 1
            return tree
        tree = self._graph.tree(source_index)
        self.stats.dijkstra_runs += 1
        self._trees[source_index] = tree
        if len(self._trees) > self._max_cached_sources:
            self._trees.popitem(last=False)
        return tree


#: The name the rest of the system types engines against.
RoutingEngine = CSREngine


def make_engine(
    network: RoadNetwork,
    backend: str = "csr",
    max_cached_sources: int = 1024,
    landmarks: int = DEFAULT_LANDMARKS,
) -> RoutingEngine:
    """Build a routing engine by backend name.

    Args:
        backend: one of "csr", "csr+alt".
        max_cached_sources: tree-cache capacity (pinned rows are extra to
            it; see :attr:`CSREngine.max_cached_sources`).
        landmarks: landmark count of the "csr+alt" backend.

    Raises:
        ConfigurationError: for an unknown backend name.
    """
    if backend not in ROUTING_BACKENDS:
        raise ConfigurationError(
            f"unknown routing backend {backend!r}; choose one of {ROUTING_BACKENDS}"
        )
    return CSREngine(
        network,
        max_cached_sources=max_cached_sources,
        landmarks=landmarks if backend == "csr+alt" else 0,
    )
