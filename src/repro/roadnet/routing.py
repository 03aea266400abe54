"""The routing engine behind every distance and path query.

Every price and pick-up time in PTRider derives from exact shortest-path
distances (Section 2.1 of the paper), so the matcher's latency is dominated
by how fast those queries are answered.  One engine answers them:

* :class:`CSREngine` -- compiles the :class:`~repro.roadnet.graph.RoadNetwork`
  into flat CSR adjacency arrays (``indptr`` / ``indices`` / ``weights``) and
  answers every query from a single-source distance tree over integer vertex
  indices: a point query is a read of the tree rooted at the smaller
  endpoint, a path is a walk back through the source's tree
  (:func:`~repro.roadnet.shortest_path.shortest_path`).  When SciPy is
  importable the trees are computed in C by
  :func:`scipy.sparse.csgraph.dijkstra` -- a whole batch of sources as one
  2-D plane (:meth:`CSREngine.prefetch_trees`, what the batch dispatch
  pipeline amortises a tick's requests with); otherwise a pure-Python
  int-indexed heap Dijkstra over the same arrays is used.  Rows are dense
  ``float64`` arrays (plain lists without NumPy), cached FIFO and read
  zero-copy through :class:`_TreeView`.
* :class:`ALTIndex` -- an optional landmark (ALT) lower-bound index
  ("csr+alt"): for a set of landmarks ``L`` the triangle inequality gives
  the admissible bound ``dist(u, v) >= |dist(L, u) - dist(L, v)|``.  The
  matchers combine it with the grid-index cell bounds, taking the maximum
  of the two.  It prunes; it never computes a distance.
* :class:`CHEngine` -- the same engine with a contraction hierarchy as its
  point-query accelerator ("ch").  A one-time preprocessing pass contracts
  vertices in edge-difference order, inserting shortcut edges whenever a
  local witness search cannot certify a bypass; an uncached pair then runs a
  bidirectional Dijkstra that only climbs upward, settling a few hundred
  vertices where a tree settles the network.  The answer is *refolded* from
  the unpacked original-edge path, so it is bit-identical to what the tree
  would report.  Full trees still come from the CSR arrays.

Preprocessing artifacts (CSR compiles, ALT landmark tables, CH hierarchies)
can be persisted through an :class:`~repro.roadnet.artifacts.ArtifactCache`
keyed by a content hash of the network, so a service restart or a repeated
benchmark run skips the build; :class:`EngineStats` records the
build-vs-load seconds.

Backends are selected by name ("csr", "csr+alt", "ch") through
:func:`make_engine`; :class:`~repro.core.config.SystemConfig` carries the
chosen name so the service, the CLI and the benchmark harness agree on it.
"""

from __future__ import annotations

import heapq
import time
from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, DisconnectedError, VertexNotFoundError
from repro.roadnet.artifacts import ArtifactCache, network_fingerprint
from repro.roadnet.graph import RoadNetwork, VertexId
from repro.roadnet.shortest_path import INFINITY, PathResult, shortest_path

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
    "ContractionHierarchy",
    "CSREngine",
    "CHEngine",
    "make_engine",
]

#: Backend names accepted by :func:`make_engine` and ``SystemConfig``.
ROUTING_BACKENDS = ("csr", "csr+alt", "ch")

#: Default number of ALT landmarks (a handful is enough on city-sized nets).
DEFAULT_LANDMARKS = 8

#: Settled-vertex budget of each CH witness search.  Witness searches only
#: *avoid* shortcuts; cutting one short merely inserts a shortcut that a
#: longer search might have proven unnecessary, so correctness never depends
#: on this number -- it trades preprocessing time against a slightly denser
#: hierarchy.
CH_WITNESS_SETTLE_CAP = 128

#: Degree above which contraction stops running Dijkstra witness searches and
#: falls back to direct-edge / shared-neighbour checks.  The late core of a
#: *uniform* grid approaches a clique of size O(sqrt(n)); Dijkstras there
#: settle mostly each other's neighbours at quadratic cost, while the direct
#: edge -- itself the min over every previously considered route -- plus a
#: one-hop scan already catch the overwhelming majority of witnesses.
#: Networks with arterial structure (any real road network) rarely reach
#: this degree before the very top of the hierarchy.  Purely a
#: preprocessing-speed trade; extra shortcuts never affect correctness.
CH_DENSE_DEGREE = 32


def _as_int_list(values: Sequence[int]) -> List[int]:
    """Materialise a (possibly NumPy) integer sequence as plain Python ints."""
    if hasattr(values, "tolist"):
        return values.tolist()
    return [int(value) for value in values]


def _as_float_list(values: Sequence[float]) -> List[float]:
    """Materialise a (possibly NumPy) float sequence as plain Python floats."""
    if hasattr(values, "tolist"):
        return values.tolist()
    return [float(value) for value in values]


@dataclass
class EngineStats:
    """Work counters every routing engine accumulates.

    ``build_seconds`` / ``load_seconds`` record where the engine's one-time
    preprocessing came from: computed this session, or deserialised from the
    artifact cache (at most one of the two is non-zero per compile).
    ``dijkstra_runs`` counts full distance trees computed;
    ``bidirectional_runs`` counts CH point-to-point searches, which settle a
    few hundred vertices where a tree settles the network.
    ``phast_sweeps`` always reads 0; it stays because
    ``perfbench/harness.py`` still reads it.
    """

    queries: int = 0
    cache_hits: int = 0
    dijkstra_runs: int = 0
    bidirectional_runs: int = 0
    phast_sweeps: int = 0
    build_seconds: float = 0.0
    load_seconds: float = 0.0

    def snapshot(self) -> "EngineStats":
        """An independent copy (pair it with :meth:`delta_since`)."""
        return EngineStats(
            queries=self.queries,
            cache_hits=self.cache_hits,
            dijkstra_runs=self.dijkstra_runs,
            bidirectional_runs=self.bidirectional_runs,
            phast_sweeps=self.phast_sweeps,
            build_seconds=self.build_seconds,
            load_seconds=self.load_seconds,
        )

    def delta_since(self, earlier: "EngineStats") -> "EngineStats":
        """The work recorded after ``earlier`` was snapshotted."""
        return EngineStats(
            queries=self.queries - earlier.queries,
            cache_hits=self.cache_hits - earlier.cache_hits,
            dijkstra_runs=self.dijkstra_runs - earlier.dijkstra_runs,
            bidirectional_runs=self.bidirectional_runs - earlier.bidirectional_runs,
            phast_sweeps=self.phast_sweeps - earlier.phast_sweeps,
            build_seconds=self.build_seconds - earlier.build_seconds,
            load_seconds=self.load_seconds - earlier.load_seconds,
        )


class CSRGraph:
    """Flat CSR (compressed sparse row) adjacency of a road network.

    Vertices are mapped to dense integer indices; the neighbours of index
    ``i`` are ``indices[indptr[i]:indptr[i+1]]`` with edge weights at the same
    positions of ``weights``.  Both directions of every undirected edge are
    stored, so the arrays describe a symmetric directed graph.
    """

    __slots__ = ("vertex_ids", "index_of", "indptr", "indices", "weights", "matrix")

    def __init__(self, network: RoadNetwork) -> None:
        self.vertex_ids: List[VertexId] = network.vertices()
        self.index_of: Dict[VertexId, int] = {
            vertex: index for index, vertex in enumerate(self.vertex_ids)
        }
        indptr: List[int] = [0]
        indices: List[int] = []
        weights: List[float] = []
        index_of = self.index_of
        for vertex in self.vertex_ids:
            for neighbour, weight in network.neighbours_view(vertex).items():
                indices.append(index_of[neighbour])
                weights.append(weight)
            indptr.append(len(indices))
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
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

    @classmethod
    def from_arrays(
        cls,
        vertex_ids: Sequence[int],
        indptr: Sequence[int],
        indices: Sequence[int],
        weights: Sequence[float],
    ) -> "CSRGraph":
        """Rehydrate a compiled graph from (cached) flat arrays.

        The arrays must be exactly what :meth:`to_arrays` produced for the
        same network: the artifact cache's fingerprint covers adjacency in
        compile order, so a loaded graph is array-for-array identical to a
        fresh compile (including Dijkstra tie-breaking behaviour).
        """
        graph = cls.__new__(cls)
        graph.vertex_ids = _as_int_list(vertex_ids)
        graph.index_of = {
            vertex: index for index, vertex in enumerate(graph.vertex_ids)
        }
        graph.indptr = _as_int_list(indptr)
        graph.indices = _as_int_list(indices)
        graph.weights = _as_float_list(weights)
        graph._finalise_matrix()
        return graph

    def to_arrays(self) -> Dict[str, Sequence[float]]:
        """The graph's flat arrays, named for the artifact cache."""
        return {
            "vertex_ids": self.vertex_ids,
            "indptr": self.indptr,
            "indices": self.indices,
            "weights": self.weights,
        }

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
    def tree(self, source_index: int) -> Sequence[float]:
        """Distances from ``source_index`` to every index (inf = unreachable).

        With SciPy the row is a dense ``float64`` ndarray straight out of
        :func:`scipy.sparse.csgraph.dijkstra` -- no ``.tolist()`` copy on the
        hot path; the pure-Python fallback returns a plain list.  Either way
        callers must treat the row as immutable.
        """
        if self.matrix is not None:
            return _csgraph_dijkstra(self.matrix, directed=True, indices=source_index)
        return self._tree_python([source_index])

    def trees(self, source_indices: Sequence[int]) -> Sequence[Sequence[float]]:
        """Distance rows for many sources as one 2-D plane.

        With SciPy the whole batch is **one**
        ``scipy.sparse.csgraph.dijkstra(indices=[...])`` call returning a
        ``(len(sources), n)`` float64 ndarray; ``plane[i]`` is a zero-copy
        view of source ``source_indices[i]``'s row, bit-identical to what
        :meth:`tree` computes for that source alone.  The pure-Python
        fallback returns the same shape as a list of per-source rows.
        """
        source_list = list(source_indices)
        if self.matrix is not None:
            if not source_list:
                return _np.empty((0, len(self.vertex_ids)), dtype=_np.float64)
            return _csgraph_dijkstra(self.matrix, directed=True, indices=source_list)
        return [self._tree_python([index]) for index in source_list]

    def nearest(self, source_indices: Sequence[int]) -> Sequence[float]:
        """Distance from every index to its *closest* source (inf = unreachable).

        The multi-source sibling of :meth:`tree`: one search seeded with every
        source at distance zero, so the row is the element-wise minimum of
        ``trees(source_indices)`` -- the same left-to-right float sums -- at
        the cost of one tree.  With SciPy that is one
        ``scipy.sparse.csgraph.dijkstra(indices=[...], min_only=True)`` call
        returning a ``float64`` ndarray; the pure-Python fallback returns a
        plain list.  This is what the grid index computes ``v.min`` and its
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

    def _tree_python(self, source_indices: Sequence[int]) -> List[float]:
        """Array-backed Dijkstra over the CSR arrays with an int-indexed heap.

        Seeded with every index of ``source_indices`` at distance zero: one
        source gives a tree row, several give the :meth:`nearest` row.
        """
        indptr, indices, weights = self.indptr, self.indices, self.weights
        dist = [INFINITY] * len(self.vertex_ids)
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


class _TreeView(Mapping):
    """Dict-like view of a dense distance array, keyed by vertex id.

    Lookups of unreachable (or unknown) vertices raise ``KeyError``,
    iteration yields only reachable vertices.  The backing row may be a NumPy ``float64``
    ndarray (zero-copy view into a tree plane) or a plain list; lookups
    coerce to built-in ``float`` so NumPy scalar types never leak into the
    matchers' arithmetic or the service's payloads (the coercion is
    value-exact).
    """

    __slots__ = ("_graph", "_dist")

    def __init__(self, graph: CSRGraph, dist: Sequence[float]) -> None:
        self._graph = graph
        self._dist = dist

    def __getitem__(self, vertex: VertexId) -> float:
        value = self._dist[self._graph.index_of[vertex]]
        if value == INFINITY:
            raise KeyError(vertex)
        return float(value)

    def get(self, vertex: VertexId, default=None):
        index = self._graph.index_of.get(vertex)
        if index is None:
            return default
        value = self._dist[index]
        return default if value == INFINITY else float(value)

    def __contains__(self, vertex: object) -> bool:
        index = self._graph.index_of.get(vertex)
        return index is not None and self._dist[index] != INFINITY

    def __iter__(self) -> Iterator[VertexId]:
        dist = self._dist
        for index, vertex in enumerate(self._graph.vertex_ids):
            if dist[index] != INFINITY:
                yield vertex

    def __len__(self) -> int:
        return sum(1 for value in self._dist if value != INFINITY)


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

    @classmethod
    def from_arrays(
        cls,
        graph: CSRGraph,
        landmark_indices: Sequence[int],
        tables: Sequence[Sequence[float]],
    ) -> "ALTIndex":
        """Rehydrate a landmark index from (cached) distance tables."""
        index = cls.__new__(cls)
        index._graph = graph
        index.landmark_indices = _as_int_list(landmark_indices)
        if _np is not None and len(index.landmark_indices):
            index._matrix = _np.asarray(tables, dtype=_np.float64)
            index._tables = list(index._matrix)
        else:
            index._matrix = None
            index._tables = [_as_float_list(table) for table in tables]
        return index

    def to_arrays(self) -> Dict[str, object]:
        """The index's landmark rows, named for the artifact cache."""
        return {
            "landmark_indices": self.landmark_indices,
            "tables": self._matrix if self._matrix is not None else self._tables,
        }

    @property
    def landmark_count(self) -> int:
        """Number of landmarks in the index."""
        return len(self.landmark_indices)

    def lower_bound_indexed(self, source_index: int, target_index: int) -> float:
        """Admissible lower bound on the distance between two dense indices."""
        if source_index == target_index:
            return 0.0
        if self._matrix is not None:
            with _np.errstate(invalid="ignore"):
                diff = _np.abs(self._matrix[:, source_index] - self._matrix[:, target_index])
            best = _np.nanmax(diff) if diff.size else _np.nan
            return 0.0 if _np.isnan(best) else float(best)
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


class ContractionHierarchy:
    """A contraction hierarchy over a CSR graph (the classic CH of Geisberger
    et al., adapted to the undirected network).

    **Preprocessing** contracts vertices one at a time in importance order.
    Importance is the standard lazy-updated priority ``edge difference
    (shortcuts added - edges removed) + deleted neighbours``: cheap to
    compute, and good enough that grid/road networks contract with near-linear
    shortcut counts.  Contracting ``v`` runs a *witness search* per neighbour
    pair ``(u, w)``: a bounded Dijkstra in the remaining core that avoids
    ``v``; only when no witness path of length <= ``w(u,v) + w(v,w)`` is found
    is the shortcut ``u-w`` (weight ``w(u,v)+w(v,w)``, middle vertex ``v``)
    inserted.  Every edge incident to ``v`` at contraction time points to a
    higher-ranked endpoint, so the surviving edges form the *upward graph*,
    stored in the same flat CSR layout :class:`CSRGraph` uses (``up_indptr`` /
    ``up_indices`` / ``up_weights`` plus ``up_mids``, the shortcut middle
    vertices, ``-1`` for original edges).  The network is undirected, so the
    downward graph is exactly the transpose of the upward one and is never
    stored separately.

    **Queries** run a bidirectional Dijkstra from both endpoints that relaxes
    only upward edges; any shortest path has an up-then-down representation
    in the hierarchy, so the two cones must meet on it.  Each search settles
    O(hierarchy height) vertices -- a few hundred on a 20k-vertex grid where
    a plain Dijkstra settles all 20k.

    **Bit-identity.**  The meeting-vertex labels are sums over shortcut
    weights, whose floating-point association differs from a plain Dijkstra's
    left-to-right accumulation by ulps.  The engines promise byte-identical
    answers across backends, so the query never returns those labels:
    it unpacks the winning up-down path to original edges (recursively
    replacing each shortcut by its two halves, found among the middle
    vertex's own upward edges) and refolds the original weights
    left-to-right from the source.  That reproduces the exact addition
    order of the CSR backend's distance tree, so on networks with unique
    shortest paths -- any jittered or real network; unit-weight grids are
    exact anyway -- the returned float is bit-identical to the tree value
    (property-tested in ``tests/property/test_ch_equivalence.py``).
    """

    __slots__ = (
        "rank",
        "order",
        "up_indptr",
        "up_indices",
        "up_weights",
        "up_mids",
        "shortcut_count",
        "_dist",
        "_version",
        "_parent",
        "_query_id",
    )

    def __init__(
        self,
        rank: List[int],
        order: List[int],
        up_indptr: List[int],
        up_indices: List[int],
        up_weights: List[float],
        up_mids: List[int],
        shortcut_count: int,
    ) -> None:
        self.rank = rank
        self.order = order
        self.up_indptr = up_indptr
        self.up_indices = up_indices
        self.up_weights = up_weights
        self.up_mids = up_mids
        self.shortcut_count = shortcut_count
        # Reusable per-query scratch (forward, backward): label arrays with a
        # version stamp instead of per-query dicts -- list indexing is the
        # query loop's hottest operation.  Makes queries non-reentrant, which
        # matches every other engine structure here (single-threaded use).
        n = len(rank)
        self._dist = ([INFINITY] * n, [INFINITY] * n)
        self._version = ([0] * n, [0] * n)
        self._parent = ([-1] * n, [-1] * n)
        self._query_id = 0

    # ------------------------------------------------------------------
    # preprocessing
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls, graph: CSRGraph, settle_cap: int = CH_WITNESS_SETTLE_CAP
    ) -> "ContractionHierarchy":
        """Contract the whole graph and return the flattened hierarchy."""
        n = len(graph.vertex_ids)
        indptr, indices, weights = graph.indptr, graph.indices, graph.weights
        # The shrinking core: neighbour -> (weight, middle vertex | -1),
        # holding only uncontracted vertices.  Parallel edges collapse to
        # their minimum at compile time.
        adj: List[Dict[int, Tuple[float, int]]] = [{} for _ in range(n)]
        for u in range(n):
            row = adj[u]
            for k in range(indptr[u], indptr[u + 1]):
                v = indices[k]
                w = weights[k]
                current = row.get(v)
                if current is None or w < current[0]:
                    row[v] = (w, -1)
        rank = [-1] * n
        order: List[int] = []
        deleted = [0] * n
        level = [0] * n
        up_adj: List[List[Tuple[int, float, int]]] = [[] for _ in range(n)]
        shortcut_count = 0
        heappush, heappop = heapq.heappush, heapq.heappop

        def witness_distances(
            source: int, excluded: int, targets: List[int], limit: float
        ) -> Dict[int, float]:
            """Distances from ``source`` in the core minus ``excluded``,
            restricted to ``targets`` within ``limit`` (bounded search)."""
            dist = {source: 0.0}
            heap = [(0.0, source)]
            remaining = set(targets)
            found: Dict[int, float] = {}
            settled = 0
            while heap and remaining and settled < settle_cap:
                d, x = heappop(heap)
                if d > dist[x]:
                    continue
                if d > limit:
                    break
                settled += 1
                if x in remaining:
                    remaining.discard(x)
                    found[x] = d
                for y, (w, _mid) in adj[x].items():
                    if y == excluded:
                        continue
                    nd = d + w
                    if nd <= limit and nd < dist.get(y, INFINITY):
                        dist[y] = nd
                        heappush(heap, (nd, y))
            return found

        def plan(v: int) -> Tuple[List[Tuple[int, int, float]], int]:
            """The shortcuts contracting ``v`` now would insert, plus degree.

            Below :data:`CH_DENSE_DEGREE` each neighbour pair is cleared by a
            bounded Dijkstra witness search; above it only the direct edge
            between the pair is consulted (see the constant's rationale).
            """
            neighbours = sorted(adj[v].items())
            degree = len(neighbours)
            shortcuts: List[Tuple[int, int, float]] = []
            if degree > CH_DENSE_DEGREE:
                for i, (u, (wu, _mu)) in enumerate(neighbours[:-1]):
                    adj_u = adj[u]
                    for t, (wt, _mt) in neighbours[i + 1 :]:
                        via = wu + wt
                        direct = adj_u.get(t)
                        if direct is not None and direct[0] <= via:
                            continue
                        # One-hop witness: any shared neighbour x (!= v) with
                        # w(u,x) + w(x,t) <= via bypasses the shortcut.  Scan
                        # the smaller adjacency of the pair.
                        adj_t = adj[t]
                        first, second = (
                            (adj_u, adj_t) if len(adj_u) <= len(adj_t) else (adj_t, adj_u)
                        )
                        for x, (wx, _mx) in first.items():
                            if x == v:
                                continue
                            other = second.get(x)
                            if other is not None and wx + other[0] <= via:
                                break
                        else:
                            shortcuts.append((u, t, via))
                return shortcuts, degree
            for i, (u, (wu, _mu)) in enumerate(neighbours[:-1]):
                rest = neighbours[i + 1 :]
                limit = wu + max(wt for _t, (wt, _m) in rest)
                found = witness_distances(u, v, [t for t, _e in rest], limit)
                for t, (wt, _mt) in rest:
                    via = wu + wt
                    witness = found.get(t)
                    if witness is None or witness > via:
                        shortcuts.append((u, t, via))
            return shortcuts, degree

        heap: List[Tuple[int, int]] = []
        for v in range(n):
            shortcuts, degree = plan(v)
            heappush(heap, (len(shortcuts) - degree, v))
        while heap:
            _priority, v = heappop(heap)
            if rank[v] >= 0:
                continue
            # Lazy update: re-evaluate against the current core; requeue
            # unless v still beats the best remaining candidate.  The level
            # term (depth of the contracted neighbourhood under v) spreads
            # contraction evenly over the network, which keeps the core
            # sparse far longer on grid-like topologies.
            shortcuts, degree = plan(v)
            priority = len(shortcuts) - degree + deleted[v] + level[v]
            if heap and priority > heap[0][0]:
                heappush(heap, (priority, v))
                continue
            neighbours = sorted(adj[v].items())
            up_adj[v] = [(u, w, mid) for u, (w, mid) in neighbours]
            for u, t, via in shortcuts:
                current = adj[u].get(t)
                if current is None:
                    shortcut_count += 1
                    adj[u][t] = (via, v)
                    adj[t][u] = (via, v)
                elif via < current[0]:
                    adj[u][t] = (via, v)
                    adj[t][u] = (via, v)
            next_level = level[v] + 1
            for u, _edge in neighbours:
                del adj[u][v]
                deleted[u] += 1
                if next_level > level[u]:
                    level[u] = next_level
            adj[v].clear()
            rank[v] = len(order)
            order.append(v)
        up_indptr = [0]
        up_indices: List[int] = []
        up_weights: List[float] = []
        up_mids: List[int] = []
        for v in range(n):
            for u, w, mid in up_adj[v]:
                up_indices.append(u)
                up_weights.append(w)
                up_mids.append(mid)
            up_indptr.append(len(up_indices))
        return cls(rank, order, up_indptr, up_indices, up_weights, up_mids, shortcut_count)

    # ------------------------------------------------------------------
    # serialisation
    # ------------------------------------------------------------------
    @classmethod
    def from_arrays(
        cls,
        rank: Sequence[int],
        up_indptr: Sequence[int],
        up_indices: Sequence[int],
        up_weights: Sequence[float],
        up_mids: Sequence[int],
        shortcut_count: Sequence[int],
    ) -> "ContractionHierarchy":
        """Rehydrate a hierarchy from (cached) flat arrays.

        Raises:
            ValueError: when ``rank`` is not a permutation of the vertex
                indices -- a corrupted artifact payload.  The cache's decode
                guard turns this into a miss (rebuild), and the check also
                stops a negative rank from silently wrapping into a
                mis-ordered hierarchy via Python's negative indexing.
        """
        rank_list = _as_int_list(rank)
        if sorted(rank_list) != list(range(len(rank_list))):
            raise ValueError("rank array is not a permutation of the vertex indices")
        order = [0] * len(rank_list)
        for vertex, position in enumerate(rank_list):
            order[position] = vertex
        return cls(
            rank_list,
            order,
            _as_int_list(up_indptr),
            _as_int_list(up_indices),
            _as_float_list(up_weights),
            _as_int_list(up_mids),
            int(shortcut_count[0]),
        )

    def to_arrays(self) -> Dict[str, Sequence[float]]:
        """The hierarchy's flat arrays, named for the artifact cache."""
        return {
            "rank": self.rank,
            "up_indptr": self.up_indptr,
            "up_indices": self.up_indices,
            "up_weights": self.up_weights,
            "up_mids": self.up_mids,
            "shortcut_count": [self.shortcut_count],
        }

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def distance(self, source_index: int, target_index: int) -> Optional[float]:
        """Exact distance between two dense indices, ``None`` if disconnected.

        Bidirectional upward Dijkstra; the returned float is refolded from
        the unpacked original-edge path, left-to-right from ``source_index``
        (see the class docstring for why that matters).
        """
        if source_index == target_index:
            return 0.0
        up_indptr, up_indices = self.up_indptr, self.up_indices
        up_weights = self.up_weights
        heappush, heappop = heapq.heappush, heapq.heappop
        self._query_id += 1
        query_id = self._query_id
        dists, versions, parents = self._dist, self._version, self._parent
        heaps = ([(0.0, source_index)], [(0.0, target_index)])
        for side, start in ((0, source_index), (1, target_index)):
            dists[side][start] = 0.0
            versions[side][start] = query_id
            parents[side][start] = -1
        best = INFINITY
        meeting = -1
        while heaps[0] or heaps[1]:
            forward_top = heaps[0][0][0] if heaps[0] else INFINITY
            backward_top = heaps[1][0][0] if heaps[1] else INFINITY
            # Safe stop: both cones' frontiers are already past the best
            # meeting candidate, so no future settle can improve it.
            if (forward_top if forward_top <= backward_top else backward_top) >= best:
                break
            side = 0 if forward_top <= backward_top else 1
            heap = heaps[side]
            dist, version, parent = dists[side], versions[side], parents[side]
            other_dist, other_version = dists[1 - side], versions[1 - side]
            d, x = heappop(heap)
            if d > dist[x]:
                continue
            if other_version[x] == query_id:
                candidate = d + other_dist[x]
                if candidate < best:
                    best = candidate
                    meeting = x
            # Stall-on-demand: if an upward neighbour proves x's label is not
            # an optimal up-path label, x cannot lie on the winning up-down
            # path -- skip relaxing its (possibly large) edge row.
            stalled = False
            updates: List[Tuple[int, float, int]] = []
            for k in range(up_indptr[x], up_indptr[x + 1]):
                y = up_indices[k]
                w = up_weights[k]
                if version[y] == query_id:
                    dy = dist[y]
                    if dy + w < d:
                        stalled = True
                        break
                    nd = d + w
                    if nd < dy:
                        updates.append((y, nd, k))
                else:
                    updates.append((y, d + w, k))
            if stalled:
                continue
            for y, nd, k in updates:
                dist[y] = nd
                version[y] = query_id
                parent[y] = k
                heappush(heap, (nd, y))
        if meeting < 0:
            return None
        return self._refold(source_index, target_index, meeting)

    def _refold(self, source_index: int, target_index: int, meeting: int) -> float:
        """Unpack the winning up-down path and refold the original weights.

        Parent entries hold the *edge id* of the relaxed upward edge; the
        edge's tail vertex is recovered from ``up_indptr`` by bisection
        (a handful of lookups along the final path only).
        """
        up_indptr, up_weights, up_mids = self.up_indptr, self.up_weights, self.up_mids
        edges: List[Tuple[int, int, float, int]] = []
        x = meeting
        forward_parent = self._parent[0]
        while x != source_index:
            k = forward_parent[x]
            tail = bisect_right(up_indptr, k) - 1
            edges.append((tail, x, up_weights[k], up_mids[k]))
            x = tail
        edges.reverse()
        x = meeting
        backward_parent = self._parent[1]
        while x != target_index:
            k = backward_parent[x]
            tail = bisect_right(up_indptr, k) - 1
            edges.append((x, tail, up_weights[k], up_mids[k]))
            x = tail
        total = 0.0
        for weight in self._unpack_weights(edges):
            total += weight
        # Callers are promised plain floats.
        return float(total)

    def _unpack_weights(
        self, edges: List[Tuple[int, int, float, int]]
    ) -> Iterator[float]:
        """Original edge weights of an up-down path, in path order.

        Each shortcut ``(a, b)`` with middle vertex ``m`` splits into the two
        edges ``(a, m)`` and ``(m, b)`` recorded among ``m``'s upward edges
        (``m`` was contracted before either endpoint, so both halves were
        frozen there).  Iterative stack so hierarchy depth never hits the
        recursion limit.
        """
        stack = list(reversed(edges))
        while stack:
            a, b, weight, mid = stack.pop()
            if mid < 0:
                yield weight
                continue
            first_weight, first_mid = self._upward_edge(mid, a)
            second_weight, second_mid = self._upward_edge(mid, b)
            stack.append((mid, b, second_weight, second_mid))
            stack.append((a, mid, first_weight, first_mid))

    def _upward_edge(self, vertex: int, neighbour: int) -> Tuple[float, int]:
        """The upward edge ``vertex -> neighbour`` (exists by construction)."""
        for k in range(self.up_indptr[vertex], self.up_indptr[vertex + 1]):
            if self.up_indices[k] == neighbour:
                return self.up_weights[k], self.up_mids[k]
        raise RuntimeError(
            f"contraction hierarchy is inconsistent: no upward edge "
            f"{vertex} -> {neighbour}"
        )  # pragma: no cover - structurally impossible


def _fingerprint_for(network: RoadNetwork, cache: Optional[ArtifactCache]) -> Optional[str]:
    """The network's content hash when a usable cache is attached, else None."""
    if cache is None or not cache.available:
        return None
    return network_fingerprint(network)


def _load_or_build_artifact(
    stats: EngineStats,
    cache: Optional[ArtifactCache],
    fingerprint: Optional[str],
    kind: str,
    decode,
    build,
    encode,
    params: str = "",
):
    """The one load-or-build-and-persist pattern every engine compile uses.

    ``decode(arrays)`` rehydrates a cached artifact (returning ``None`` --
    or raising ``KeyError``/``ValueError``/``TypeError`` on a malformed
    payload -- demotes the hit to a miss), ``build()`` computes it from
    scratch, ``encode(value)`` names its arrays for persistence.  Elapsed
    time lands in ``stats.load_seconds`` (cache hit) or
    ``stats.build_seconds`` (fresh build), never both.
    """
    started = time.perf_counter()
    if fingerprint is not None:
        arrays = cache.load(kind, fingerprint, params)
        if arrays is not None:
            try:
                value = decode(arrays)
            except (KeyError, IndexError, ValueError, TypeError):
                value = None
            if value is not None:
                stats.load_seconds += time.perf_counter() - started
                return value
    value = build()
    if fingerprint is not None:
        cache.save(kind, fingerprint, encode(value), params)
    stats.build_seconds += time.perf_counter() - started
    return value


def _compile_csr_graph(
    network: RoadNetwork,
    cache: Optional[ArtifactCache],
    fingerprint: Optional[str],
    stats: EngineStats,
) -> CSRGraph:
    """Load the network's CSR arrays from the cache, or compile and persist."""
    return _load_or_build_artifact(
        stats,
        cache,
        fingerprint,
        "csr",
        decode=lambda arrays: CSRGraph.from_arrays(
            arrays["vertex_ids"], arrays["indptr"], arrays["indices"], arrays["weights"]
        ),
        build=lambda: CSRGraph(network),
        encode=lambda graph: graph.to_arrays(),
    )


class CSREngine:
    """Array-backed routing over flat CSR adjacency, with optional ALT bounds.

    Single-source trees are computed over the CSR arrays (in C via SciPy when
    available, otherwise with the pure-Python int-indexed heap Dijkstra) and
    cached FIFO, keyed by source index; a point query reads the tree rooted
    at its smaller endpoint, so every answer is independent of cache state.

    With an :class:`~repro.roadnet.artifacts.ArtifactCache` attached, the CSR
    compile and the ALT landmark tables round-trip through ``.npz`` artifacts
    keyed by the network's content hash (see :mod:`repro.roadnet.artifacts`).

    It answers every distance / path query the rest of the system issues;
    the matchers, the batch pipeline and the fleet type against it (as
    :data:`RoutingEngine`).  Callers must treat returned trees as immutable.
    """

    #: backend name as selected through ``SystemConfig.routing_backend``
    backend = "csr"

    #: ``True`` when :meth:`distance` answers an uncached pair by computing
    #: (and caching) the full tree rooted at the smaller endpoint, so a batch
    #: that pins that tree through :meth:`prefetch_trees` buys nothing
    #: ``distance`` would not have bought.  ``False`` when a point query is
    #: cheaper than a tree (the ch backend's bidirectional search): a batch
    #: then leaves unpooled legs to :meth:`distance`.
    point_queries_root_trees = True

    def __init__(
        self,
        network: RoadNetwork,
        max_cached_sources: int = 1024,
        landmarks: int = 0,
        cache: Optional[ArtifactCache] = None,
    ) -> None:
        if max_cached_sources <= 0:
            raise ValueError("max_cached_sources must be positive")
        self._network = network
        self._max_cached_sources = max_cached_sources
        self._landmarks = landmarks
        self._cache = cache
        self._fingerprint = _fingerprint_for(network, cache)
        self.stats = EngineStats()
        self._graph = _compile_csr_graph(network, cache, self._fingerprint, self.stats)
        #: per-source tree cache, FIFO (``popitem(last=False)``, a hit never
        #: reorders); rows are ndarray views (or lists without SciPy)
        self._trees: "OrderedDict[int, Sequence[float]]" = OrderedDict()
        self._alt = self._compile_alt() if landmarks > 0 else None
        if landmarks > 0:
            self.backend = "csr+alt"

    def _compile_alt(self) -> ALTIndex:
        """Load the landmark tables from the cache, or build and persist."""
        return _load_or_build_artifact(
            self.stats,
            self._cache,
            self._fingerprint,
            "alt",
            decode=lambda arrays: ALTIndex.from_arrays(
                self._graph, arrays["landmark_indices"], arrays["tables"]
            ),
            build=lambda: ALTIndex(self._graph, self._landmarks),
            encode=lambda index: index.to_arrays(),
            params=f"l{self._landmarks}",
        )

    @property
    def network(self) -> RoadNetwork:
        """The road network queries are answered on."""
        return self._network

    @property
    def graph(self) -> CSRGraph:
        """The compiled CSR adjacency (rebuilt by :meth:`invalidate`)."""
        return self._graph

    @property
    def alt(self) -> Optional[ALTIndex]:
        """The landmark index, when the engine was built with one."""
        return self._alt

    # ------------------------------------------------------------------
    def distance(self, source: VertexId, target: VertexId) -> float:
        """Return ``dist(source, target)``.

        Raises:
            VertexNotFoundError: if either endpoint is unknown.
            DisconnectedError: if no path connects the endpoints.
        """
        self.stats.queries += 1
        if source == target:
            return 0.0
        # Root the answering tree at the smaller vertex id (the network is
        # undirected, so either root is correct).  The canonical root makes
        # every answer bit-for-bit independent of which trees happen to be
        # cached -- the batched dispatch pipeline relies on this to reproduce
        # the sequential loop's floats exactly.
        root, leaf = (source, target) if source <= target else (target, source)
        root_index = self._graph.index(root)
        leaf_index = self._graph.index(leaf)
        value = self._tree(root_index)[leaf_index]
        if value == INFINITY:
            raise DisconnectedError(source, target)
        return float(value)

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
        tree; unknown vertices are skipped (callers that care raise
        per-request, exactly where the sequential path would).  All missing
        sources go through **one** :meth:`CSRGraph.trees` plane
        (one SciPy C call); each computed row is detached from the plane,
        stored in the tree cache and billed as exactly one
        ``dijkstra_runs``.  Sources whose tree is already cached are returned
        from the cache without touching any counter; unknown vertices are
        skipped.  The returned views pin their rows by reference, so cache
        eviction -- including churn caused by a prefetch larger than the cache
        -- can never invalidate a caller's pinned tree mid-batch.
        """
        graph = self._graph
        index_of = graph.index_of
        cached = self._trees
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
                missing[vertex] = index
                views[vertex] = None  # keeps the caller's order; filled below
            else:
                views[vertex] = _TreeView(graph, row)
        if missing:
            plane = self._graph.trees(list(missing.values()))
            self.stats.dijkstra_runs += len(missing)
            for position, (vertex, index) in enumerate(missing.items()):
                row = plane[position]
                if _np is not None and isinstance(row, _np.ndarray):
                    # Detach the row from the plane: a view would keep the
                    # whole (k x n) plane alive for as long as any single row
                    # survives in the cache, long after the batch released its
                    # pins.  The copy is value-exact, so bit-identity holds.
                    row = row.copy()
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
        out, exact ties included.
        """
        # Read off the source's tree: a vehicle re-plans from where it stands,
        # and the matcher has usually just rooted (and cached) a tree there.
        # ``path(v, v)`` -- a vehicle standing at its next stop -- needs no
        # tree, so it roots none and is not billed as a query.
        tree = self.distances_from(source) if source != target else None
        return shortest_path(self._network, source, target, tree=tree)

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
        """Recompile the CSR arrays and landmark tables, drop cached trees.

        The network mutated, so its content hash is recomputed; the artifact
        cache can never serve arrays compiled from the previous state.
        """
        self._fingerprint = _fingerprint_for(self._network, self._cache)
        self._graph = _compile_csr_graph(
            self._network, self._cache, self._fingerprint, self.stats
        )
        self._trees.clear()
        self._alt = self._compile_alt() if self._landmarks > 0 else None

    # ------------------------------------------------------------------
    def _tree(self, source_index: int) -> Sequence[float]:
        tree = self._trees.get(source_index)
        if tree is not None:
            self.stats.cache_hits += 1
            return tree
        tree = self._graph.tree(source_index)
        self.stats.dijkstra_runs += 1
        self._trees[source_index] = tree
        if len(self._trees) > self._max_cached_sources:
            self._trees.popitem(last=False)
        return tree


#: The name the rest of the system types engines against.
RoutingEngine = CSREngine


class CHEngine(CSREngine):
    """Contraction-hierarchy routing: the CSR engine with fast point queries.

    The engine keeps the whole :class:`CSREngine` machinery -- the compiled
    CSR arrays, the tree cache, the vectorised prefetch -- and adds one
    accelerator: an uncached ``distance(s, t)`` runs a bidirectional upward
    search over the :class:`ContractionHierarchy`, settling a few hundred
    vertices regardless of network size, instead of computing the whole
    tree rooted at the smaller endpoint.  Full distance trees
    (``distances_from`` / ``prefetch_trees``) come from the CSR arrays
    exactly as on the csr backend.

    Answers stay byte-identical to the CSR backend's: a cached tree row is
    still consulted first (same canonical smaller-endpoint rooting), and the
    CH point search refolds its answer from the unpacked original-edge path
    in the exact addition order the tree computation uses.

    The hierarchy build is the expensive part (seconds of witness searches
    on a 20k-vertex network), which is exactly what the artifact cache
    amortises: with a cache attached the hierarchy round-trips through one
    ``.npz`` read keyed by the network's content hash.
    """

    backend = "ch"
    #: an uncached pair settles a few hundred vertices, not a whole tree
    point_queries_root_trees = False

    def __init__(
        self,
        network: RoadNetwork,
        max_cached_sources: int = 1024,
        cache: Optional[ArtifactCache] = None,
    ) -> None:
        super().__init__(network, max_cached_sources=max_cached_sources, cache=cache)
        self._hierarchy = self._compile_hierarchy()

    @property
    def hierarchy(self) -> ContractionHierarchy:
        """The compiled hierarchy (rebuilt by :meth:`invalidate`)."""
        return self._hierarchy

    def _compile_hierarchy(self) -> ContractionHierarchy:
        """Load the hierarchy from the cache, or contract and persist.

        Arrays a cached payload holds beyond the upward graph (older builds
        persisted a downward sweep order) are ignored.
        """
        return _load_or_build_artifact(
            self.stats,
            self._cache,
            self._fingerprint,
            "ch",
            decode=lambda arrays: ContractionHierarchy.from_arrays(
                arrays["rank"],
                arrays["up_indptr"],
                arrays["up_indices"],
                arrays["up_weights"],
                arrays["up_mids"],
                arrays["shortcut_count"],
            ),
            build=lambda: ContractionHierarchy.build(self._graph),
            encode=lambda hierarchy: hierarchy.to_arrays(),
        )

    def distance(self, source: VertexId, target: VertexId) -> float:
        self.stats.queries += 1
        if source == target:
            return 0.0
        # Same canonical rooting as the csr backend; a tree already in the
        # cache answers in O(1) exactly as the CSR engine would.
        root, leaf = (source, target) if source <= target else (target, source)
        root_index = self._graph.index(root)
        leaf_index = self._graph.index(leaf)
        cached = self._trees.get(root_index)
        if cached is not None:
            self.stats.cache_hits += 1
            value = cached[leaf_index]
            if value == INFINITY:
                raise DisconnectedError(source, target)
            return float(value)
        self.stats.bidirectional_runs += 1
        value = self._hierarchy.distance(root_index, leaf_index)
        if value is None:
            raise DisconnectedError(source, target)
        return value

    def invalidate(self) -> None:
        """Recompile the CSR arrays and re-contract the hierarchy."""
        super().invalidate()
        self._hierarchy = self._compile_hierarchy()


def make_engine(
    network: RoadNetwork,
    backend: str = "csr",
    max_cached_sources: int = 1024,
    landmarks: int = DEFAULT_LANDMARKS,
    cache_dir: Optional[str] = None,
) -> RoutingEngine:
    """Build a routing engine by backend name.

    Args:
        backend: one of "csr", "csr+alt", "ch".
        max_cached_sources: tree-cache capacity.
        landmarks: landmark count of the "csr+alt" backend.
        cache_dir: directory for persisted compiled artifacts; ``None``
            disables persistence (every engine builds from scratch).

    Raises:
        ConfigurationError: for an unknown backend name.
    """
    cache = ArtifactCache(cache_dir) if cache_dir is not None else None
    if backend == "csr":
        return CSREngine(network, max_cached_sources=max_cached_sources, cache=cache)
    if backend == "csr+alt":
        return CSREngine(
            network, max_cached_sources=max_cached_sources, landmarks=landmarks, cache=cache
        )
    if backend == "ch":
        return CHEngine(network, max_cached_sources=max_cached_sources, cache=cache)
    raise ConfigurationError(
        f"unknown routing backend {backend!r}; choose one of {ROUTING_BACKENDS}"
    )
