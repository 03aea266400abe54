"""The pluggable routing engine behind every distance and path query.

Every price and pick-up time in PTRider derives from shortest-path distances
(Section 2.1 of the paper), so the matcher's latency is dominated by how fast
those queries are answered.  This module introduces a seam between *what* the
matchers ask (point-to-point distances, request-rooted distance trees, full
paths) and *how* the answer is computed:

* :class:`DictDijkstraEngine` -- the reference backend; a thin wrapper around
  the memoising :class:`~repro.roadnet.shortest_path.DistanceOracle`, which
  runs Dijkstra over the road network's dict-of-dicts adjacency.
* :class:`CSREngine` -- compiles the :class:`~repro.roadnet.graph.RoadNetwork`
  into flat CSR adjacency arrays (``indptr`` / ``indices`` / ``weights``) and
  answers single-source queries with an array-backed Dijkstra over integer
  vertex indices.  When SciPy is importable the tree computation runs in C
  via :func:`scipy.sparse.csgraph.dijkstra`; otherwise a pure-Python
  int-indexed heap Dijkstra over the same arrays is used.
* :class:`ALTIndex` -- an optional landmark (ALT) lower-bound index: for a set
  of landmarks ``L`` the triangle inequality gives the admissible bound
  ``dist(u, v) >= |dist(L, u) - dist(L, v)|``.  The matchers combine it with
  the grid-index cell bounds, taking the maximum of the two.
* :class:`TableEngine` -- precomputes the full all-pairs distance matrix at
  build time (blocked multi-source Dijkstra over the CSR arrays) and answers
  every ``distance`` / ``distances_from`` by O(1) array lookup.  The right
  trade for networks up to a few thousand vertices, where the whole table
  fits comfortably in memory (n^2 x 8 bytes).
* :class:`CHEngine` -- a contraction hierarchy over the same CSR arrays, for
  the networks the table refuses.  A one-time preprocessing pass orders
  vertices by edge difference + deleted neighbours and contracts them in
  that order, inserting shortcut edges whenever a local witness search
  cannot certify a bypass; point-to-point queries then run a bidirectional
  Dijkstra that only ever climbs upward in the hierarchy, touching a few
  hundred vertices where a plain Dijkstra settles the whole network.  The
  answer is *refolded* from the unpacked original-edge path (left-to-right
  from the canonical smaller endpoint), so it is bit-identical to what the
  CSR backend's tree would report.  Full distance trees are hierarchy-native
  too: a :class:`PHASTTreeProvider` downward sweep (upward Dijkstra, then a
  rank-descending relaxation pass over the transpose of the upward graph)
  computes whole batches of trees as one NumPy plane, refolded to
  bit-identity with the CSR rows -- so the ch backend's tree path needs no
  SciPy at all.

Tree *production* is a seam of its own: every full distance tree flows
through a :class:`TreeProvider` (:class:`PlaneTreeProvider` for the CSR
plane path, :class:`PHASTTreeProvider` for the hierarchy sweep), while the
engines keep ownership of caching, pinning and statistics -- so
``MatchContext`` / ``BatchContext`` reuse, the tree cache and
``prefetch_trees`` behave identically no matter which provider computes
the rows.  The ``tree_provider`` knob ("auto" / "plane" / "phast",
``SystemConfig.tree_provider``) ablates the seam from the CLI and the
service without touching the matchers.

Preprocessing artifacts (CSR compiles, ALT landmark tables, all-pairs
tables, CH hierarchies) can be persisted through an
:class:`~repro.roadnet.artifacts.ArtifactCache` keyed by a content hash of
the network, so a service restart or a repeated benchmark run skips the
build entirely; :class:`EngineStats` records the build-vs-load seconds.

Distance trees are NumPy-native end to end: :meth:`CSRGraph.tree` and
:meth:`CSRGraph.trees` return dense ``float64`` rows / 2-D planes (plain
Python lists only when NumPy/SciPy are unavailable), the per-tree FIFO caches
hold those rows by reference and :class:`_TreeView` reads them zero-copy.
:meth:`CSRGraph.trees` computes a whole batch of start-rooted trees with
**one** ``scipy.sparse.csgraph.dijkstra(indices=[...])`` call, which is what
:meth:`RoutingEngine.prefetch_trees` -- and through it the batch dispatch
pipeline (:class:`~repro.core.batch.BatchContext`) -- uses to amortise the
per-call overhead across a tick's worth of simultaneous requests.

Backends are selected by name ("dict", "csr", "csr+alt", "table", "ch")
through
:func:`make_engine`; :class:`~repro.core.config.SystemConfig` carries the
chosen name so the service, the CLI, the simulation engine and the benchmark
harness can ablate the routing layer without touching the matchers.

Every engine exposes the same interface the matchers used to expect from the
distance oracle (``distance`` / ``distances_from`` / ``path`` /
``invalidate`` / ``stats``), so engines and oracles are interchangeable at
every call site.
"""

from __future__ import annotations

import heapq
import os
import time
from abc import ABC, abstractmethod
from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, DisconnectedError, VertexNotFoundError
from repro.roadnet.artifacts import ArtifactCache, network_fingerprint
from repro.roadnet.graph import RoadNetwork, VertexId
from repro.roadnet.shortest_path import (
    INFINITY,
    DistanceOracle,
    PathResult,
    shortest_path,
)

# NumPy and SciPy are imported separately on purpose: neither is required
# for correctness, but they gate *different* fast paths.  SciPy owns the C
# Dijkstra planes; NumPy alone is enough for the vectorised PHAST sweep (and
# the artifact cache), so a NumPy-only environment -- far more common than a
# SciPy one -- must not lose its accelerators because SciPy is missing.
try:
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via the fallback tests
    _np = None
try:  # SciPy accelerates the CSR backend but is not required for correctness.
    from scipy.sparse import csr_array as _csr_array
    from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra
except ImportError:  # pragma: no cover - exercised via the fallback tests
    _csr_array = None
    _csgraph_dijkstra = None

__all__ = [
    "ROUTING_BACKENDS",
    "TREE_PROVIDERS",
    "EngineStats",
    "RoutingEngine",
    "DictDijkstraEngine",
    "CSRGraph",
    "ALTIndex",
    "ContractionHierarchy",
    "TreeProvider",
    "PlaneTreeProvider",
    "PHASTTreeProvider",
    "CSREngine",
    "TableEngine",
    "CHEngine",
    "make_engine",
    "ensure_engine",
]

#: Backend names accepted by :func:`make_engine` and ``SystemConfig``.
ROUTING_BACKENDS = ("dict", "csr", "csr+alt", "table", "ch")

#: Tree-provider names accepted by :func:`make_engine` and ``SystemConfig``.
#: "auto" lets the engine choose ("phast" on the ch backend past
#: :data:`PHAST_AUTO_MIN_VERTICES` vertices, "plane" everywhere else);
#: "plane" forces the CSR plane path; "phast" forces the hierarchy-native
#: downward sweep (ch backend only).
TREE_PROVIDERS = ("auto", "plane", "phast")

#: Network size above which the ch backend's "auto" tree provider considers
#: PHAST.  The decision is measured, not aspirational (E15 records the
#: ratios on the 19.6k-vertex arterial city): SciPy's C Dijkstra plane is
#: the fastest tree path wherever it exists (~3x over the NumPy sweep), so
#: "auto" only goes hierarchy-native where the plane path would otherwise
#: degrade to per-source pure-Python Dijkstras -- NumPy present, SciPy
#: absent -- which the vectorised sweep beats ~3.4x at city scale.  Below
#: this vertex count the per-level dispatch overhead swallows the win and
#: planes stay the right answer everywhere.
PHAST_AUTO_MIN_VERTICES = 4096

#: Sources per NumPy PHAST sweep chunk: bounds the (chunk x edges) scratch
#: arrays of the refold at a few tens of MB on city-sized networks while
#: keeping enough rows per sweep to amortise the per-level dispatch cost.
PHAST_SOURCE_CHUNK = 32

#: Opt-in flag for the reduceat-free PHAST refold: when this environment
#: variable is set to anything but ""/"0", each refold generation folds by
#: scatter-min (``np.minimum.at`` into the destination cells) instead of the
#: segmented ``np.minimum.reduceat``.  Both folds gather the same
#: already-folded labels before writing, so they are bit-identical; the flag
#: exists to measure the alternative's cost on real planes (see E15's
#: refold microbench) without forking the provider.
PHAST_SCATTER_REFOLD_ENV = "PTRIDER_PHAST_SCATTER_REFOLD"


def _scatter_refold_enabled() -> bool:
    return os.environ.get(PHAST_SCATTER_REFOLD_ENV, "") not in ("", "0")


#: Default number of ALT landmarks (a handful is enough on city-sized nets).
DEFAULT_LANDMARKS = 8

#: Sources per multi-source Dijkstra call while building the all-pairs table.
#: Large enough to amortise per-call overhead, small enough that one block's
#: plane stays cache-friendly.
DEFAULT_TABLE_BLOCK = 64

#: Refuse to build an all-pairs table beyond this vertex count: the table is
#: O(n^2) memory (4096^2 doubles = 128 MiB), the wrong trade past city scale.
#: The default of ``SystemConfig.table_max_vertices``.
DEFAULT_TABLE_MAX_VERTICES = 4096

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

    The query-side field names match ``DistanceOracle.stats`` so reports and
    tests can treat oracles and engines uniformly.  ``build_seconds`` /
    ``load_seconds`` record where the engine's one-time preprocessing came
    from: computed this session, or deserialised from the artifact cache
    (at most one of the two is non-zero per compile).
    ``bidirectional_runs`` counts CH point-to-point searches, which settle a
    few hundred vertices where a ``dijkstra_runs`` unit settles the network.
    ``phast_sweeps`` counts full distance trees produced by the
    hierarchy-native downward sweep instead of a Dijkstra -- the two tree
    counters are disjoint, so ``dijkstra_runs + phast_sweeps`` is the total
    number of trees an engine ever computed and the split shows which
    provider the work was billed to.
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


class RoutingEngine(ABC):
    """Answers every distance / path query the rest of the system issues.

    Subclasses own whatever representation of the road network they need and
    are free to cache aggressively; callers must treat returned trees as
    immutable.
    """

    #: backend name as selected through ``SystemConfig.routing_backend``
    backend: str = "abstract"

    #: name of the mechanism that computes this engine's full distance trees
    #: ("dijkstra" for the per-source reference path, "plane" for the CSR
    #: family's vectorised planes, "phast" for the hierarchy-native sweep,
    #: "table" for precomputed rows) -- what batch statistics and the admin
    #: panel report, and what tree work is billed against in
    #: :class:`EngineStats`.
    tree_provider_name: str = "dijkstra"

    #: ``True`` when :meth:`distance_lower_bound` returns the *exact*
    #: distance (the all-pairs table backend): by definition no other
    #: admissible bound can beat it, so callers skip combining it with the
    #: grid-index cell bounds.
    exact_lower_bounds: bool = False

    #: ``True`` when :meth:`distance` answers an uncached pair by computing
    #: (and caching) the full tree rooted at the smaller endpoint, so a batch
    #: that pins that tree through :meth:`prefetch_trees` buys nothing
    #: ``distance`` would not have bought.  ``False`` when a point query is
    #: cheaper than a tree (the ch backend's bidirectional search): a batch
    #: then leaves unpooled legs to :meth:`distance`.
    point_queries_root_trees: bool = True

    @property
    @abstractmethod
    def network(self) -> RoadNetwork:
        """The road network queries are answered on."""

    @abstractmethod
    def distance(self, source: VertexId, target: VertexId) -> float:
        """Return ``dist(source, target)``.

        Raises:
            VertexNotFoundError: if either endpoint is unknown.
            DisconnectedError: if no path connects the endpoints.
        """

    @abstractmethod
    def distances_from(self, source: VertexId) -> Mapping[VertexId, float]:
        """Return the full single-source distance tree rooted at ``source``.

        The mapping contains every *reachable* vertex; unreachable vertices
        are absent (lookups raise ``KeyError``).
        """

    @abstractmethod
    def path(self, source: VertexId, target: VertexId) -> PathResult:
        """Return the full shortest path between two vertices.

        Every backend answers through
        :func:`~repro.roadnet.shortest_path.shortest_path` -- read off the
        source's distance tree (csr, table, ch) or searched (dict) -- so the
        vertex sequence and the distance are the same on all of them, exact
        ties included.
        """

    @abstractmethod
    def invalidate(self) -> None:
        """Drop every cached structure (call after the network is mutated)."""

    def distance_lower_bound(self, source: VertexId, target: VertexId) -> float:
        """An admissible lower bound on ``dist(source, target)``.

        The default engine offers no bound (0.0); the ALT-equipped CSR engine
        overrides this with landmark differences, and the table engine returns
        the exact distance (trivially admissible).  Matchers take the maximum
        of this bound and the grid-index cell bound.
        """
        return 0.0

    def prefetch_trees(
        self, sources: Sequence[VertexId]
    ) -> Mapping[VertexId, Mapping[VertexId, float]]:
        """Compute the distance trees of many sources in one bulk operation.

        Returns a mapping from each *known* source vertex to its full distance
        tree; unknown vertices are silently skipped (callers that care raise
        per-request, exactly where the sequential path would).  Engines that
        can vectorise (the CSR backend's one-call
        ``scipy.csgraph.dijkstra(indices=[...])`` plane, the table backend's
        precomputed rows) amortise the whole batch; the default implementation
        is a no-op returning an empty mapping, so callers fall back to
        per-source :meth:`distances_from` -- the dict backend has no cheaper
        bulk path than that.

        Statistics contract: each tree *computed* by the bulk call counts as
        exactly one ``dijkstra_runs``, no matter how many requests later
        consume it; trees already cached are returned without touching any
        counter (pinning is not a query).
        """
        return {}


class DictDijkstraEngine(RoutingEngine):
    """The reference backend: dict-of-dicts Dijkstra with a memoising oracle.

    Wraps an existing :class:`DistanceOracle` (or builds one), preserving its
    caching and statistics semantics exactly.
    """

    backend = "dict"

    def __init__(
        self,
        network: Optional[RoadNetwork] = None,
        oracle: Optional[DistanceOracle] = None,
        max_cached_sources: int = 1024,
    ) -> None:
        if oracle is None:
            if network is None:
                raise ValueError("DictDijkstraEngine needs a network or an oracle")
            oracle = DistanceOracle(network, max_cached_sources=max_cached_sources)
        self._oracle = oracle

    @property
    def network(self) -> RoadNetwork:
        return self._oracle.network

    @property
    def oracle(self) -> DistanceOracle:
        """The wrapped memoising oracle."""
        return self._oracle

    @property
    def stats(self):
        """The wrapped oracle's counters (same shape as :class:`EngineStats`)."""
        return self._oracle.stats

    def distance(self, source: VertexId, target: VertexId) -> float:
        return self._oracle.distance(source, target)

    def distances_from(self, source: VertexId) -> Mapping[VertexId, float]:
        return self._oracle.distances_from(source)

    def path(self, source: VertexId, target: VertexId) -> PathResult:
        return self._oracle.path(source, target)

    def invalidate(self) -> None:
        self._oracle.invalidate()


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

    Mirrors the mapping ``DistanceOracle.distances_from`` returns: lookups of
    unreachable (or unknown) vertices raise ``KeyError``, iteration yields
    only reachable vertices.  The backing row may be a NumPy ``float64``
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


class TreeProvider(ABC):
    """The one seam every full distance tree is produced through.

    A provider answers exactly two questions -- one source's dense distance
    row, and a whole batch of sources as a 2-D plane -- over a compiled
    :class:`CSRGraph`'s index space.  Engines own *caching*, *pinning* and
    *statistics*; providers own *computation*, so swapping how trees are
    produced (SciPy C Dijkstra planes, pure-Python Dijkstra, a PHAST sweep
    over a contraction hierarchy) never touches the tree cache, the
    ``prefetch_trees`` contract, or the :class:`_TreeView` mappings that
    ``MatchContext`` / ``BatchContext`` pin.

    The hard contract, which the whole byte-identical-dispatch guarantee
    rests on: every row a provider returns is **bit-identical** to the row
    :meth:`CSRGraph.tree` computes for that source (``inf`` for unreachable
    vertices included), property-tested in
    ``tests/property/test_phast_trees.py``.
    """

    #: provider name, surfaced as ``RoutingEngine.tree_provider_name``
    name: str = "abstract"

    @abstractmethod
    def tree(self, source_index: int) -> Sequence[float]:
        """Dense distance row of one source index (inf = unreachable)."""

    @abstractmethod
    def trees(self, source_indices: Sequence[int]) -> Sequence[Sequence[float]]:
        """Distance rows of many sources as one ``(len(sources), n)`` plane."""


class PlaneTreeProvider(TreeProvider):
    """The CSR plane path: SciPy C Dijkstra when available, else pure Python.

    A thin adapter over :meth:`CSRGraph.tree` / :meth:`CSRGraph.trees` --
    the provider every engine used implicitly before the seam existed, and
    still the right choice below :data:`PHAST_AUTO_MIN_VERTICES` where one
    C Dijkstra beats any sweep's dispatch overhead.
    """

    name = "plane"

    def __init__(self, graph: CSRGraph) -> None:
        self._graph = graph

    def tree(self, source_index: int) -> Sequence[float]:
        return self._graph.tree(source_index)

    def trees(self, source_indices: Sequence[int]) -> Sequence[Sequence[float]]:
        return self._graph.trees(source_indices)


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
        "down_heads",
        "down_indptr",
        "down_tails",
        "down_weights",
        "down_level_ptr",
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
        down_heads: Optional[List[int]] = None,
        down_indptr: Optional[List[int]] = None,
        down_tails: Optional[List[int]] = None,
        down_weights: Optional[List[float]] = None,
        down_level_ptr: Optional[List[int]] = None,
    ) -> None:
        self.rank = rank
        self.order = order
        self.up_indptr = up_indptr
        self.up_indices = up_indices
        self.up_weights = up_weights
        self.up_mids = up_mids
        self.shortcut_count = shortcut_count
        downward = (down_heads, down_indptr, down_tails, down_weights, down_level_ptr)
        if any(part is None for part in downward):
            self._build_downward()  # derive the PHAST sweep order (one O(E) pass)
        else:
            self.down_heads = down_heads
            self.down_indptr = down_indptr
            self.down_tails = down_tails
            self.down_weights = down_weights
            self.down_level_ptr = down_level_ptr
        # Reusable per-query scratch (forward, backward): label arrays with a
        # version stamp instead of per-query dicts -- list indexing is the
        # query loop's hottest operation.  Makes queries non-reentrant, which
        # matches every other engine structure here (single-threaded use).
        n = len(rank)
        self._dist = ([INFINITY] * n, [INFINITY] * n)
        self._version = ([0] * n, [0] * n)
        self._parent = ([-1] * n, [-1] * n)
        self._query_id = 0

    def _build_downward(self) -> None:
        """Flatten the downward graph in PHAST sweep order (one O(E) pass).

        The network is undirected, so the downward graph is exactly the
        transpose of the upward one: vertex ``v`` receives one downward
        in-edge ``u -> v`` for each of its upward edges ``v -> u``.  The
        sweep arrays regroup those edges by *head* in dependency order:

        * ``level[v] = 1 + max(level of v's upward targets)`` (0 for the
          hierarchy tops, which have no upward edges and therefore nothing
          to receive) -- every downward in-edge's tail sits at a strictly
          smaller level, so a sweep that finalises levels in ascending
          order never reads an unfinished label, and all heads *within*
          one level are independent (min-combining is order-exact), which
          is what lets the NumPy sweep relax a whole level at once;
        * ``down_heads`` lists the receiving vertices sorted by
          ``(level, rank)`` -- the rank-permuted downward CSR the artifact
          cache persists -- with ``down_level_ptr`` marking the level
          boundaries and ``down_indptr`` / ``down_tails`` /
          ``down_weights`` holding each head's in-edges contiguously.
        """
        n = len(self.rank)
        up_indptr, up_indices, up_weights = (
            self.up_indptr,
            self.up_indices,
            self.up_weights,
        )
        level = [0] * n
        for v in reversed(self.order):  # rank-descending: targets are done
            best = 0
            for k in range(up_indptr[v], up_indptr[v + 1]):
                candidate = level[up_indices[k]] + 1
                if candidate > best:
                    best = candidate
            level[v] = best
        rank = self.rank
        heads = [v for v in range(n) if up_indptr[v + 1] > up_indptr[v]]
        heads.sort(key=lambda v: (level[v], rank[v]))
        down_indptr = [0]
        down_tails: List[int] = []
        down_weights: List[float] = []
        down_level_ptr = [0]
        previous_level: Optional[int] = None
        for v in heads:
            if level[v] != previous_level:
                if previous_level is not None:
                    down_level_ptr.append(len(down_indptr) - 1)
                previous_level = level[v]
            for k in range(up_indptr[v], up_indptr[v + 1]):
                down_tails.append(up_indices[k])
                down_weights.append(up_weights[k])
            down_indptr.append(len(down_tails))
        down_level_ptr.append(len(heads))
        self.down_heads = heads
        self.down_indptr = down_indptr
        self.down_tails = down_tails
        self.down_weights = down_weights
        self.down_level_ptr = down_level_ptr

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
        down_heads: Optional[Sequence[int]] = None,
        down_indptr: Optional[Sequence[int]] = None,
        down_tails: Optional[Sequence[int]] = None,
        down_weights: Optional[Sequence[float]] = None,
        down_level_ptr: Optional[Sequence[int]] = None,
    ) -> "ContractionHierarchy":
        """Rehydrate a hierarchy from (cached) flat arrays.

        The rank-permuted downward CSR (the PHAST sweep order) is loaded
        when the artifact carries it and recomputed from the upward arrays
        otherwise, so hierarchies persisted before the sweep arrays existed
        stay loadable.

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
            down_heads=None if down_heads is None else _as_int_list(down_heads),
            down_indptr=None if down_indptr is None else _as_int_list(down_indptr),
            down_tails=None if down_tails is None else _as_int_list(down_tails),
            down_weights=(
                None if down_weights is None else _as_float_list(down_weights)
            ),
            down_level_ptr=(
                None if down_level_ptr is None else _as_int_list(down_level_ptr)
            ),
        )

    def to_arrays(self) -> Dict[str, Sequence[float]]:
        """The hierarchy's flat arrays, named for the artifact cache.

        Includes the rank-permuted downward CSR, so a warm restart serves
        PHAST sweeps straight from the ``.npz`` without re-deriving the
        sweep order.
        """
        return {
            "rank": self.rank,
            "up_indptr": self.up_indptr,
            "up_indices": self.up_indices,
            "up_weights": self.up_weights,
            "up_mids": self.up_mids,
            "shortcut_count": [self.shortcut_count],
            "down_heads": self.down_heads,
            "down_indptr": self.down_indptr,
            "down_tails": self.down_tails,
            "down_weights": self.down_weights,
            "down_level_ptr": self.down_level_ptr,
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


class PHASTTreeProvider(TreeProvider):
    """Hierarchy-native full distance trees: a PHAST downward sweep.

    PHAST (Delling et al.'s "PHAST: hardware-accelerated shortest path
    trees") turns a contraction hierarchy into a one-to-all algorithm:

    1. **Upward phase** -- a plain Dijkstra from the source restricted to
       upward edges.  Its search space is the source's upward cone, a few
       hundred vertices on a city-sized network.
    2. **Downward sweep** -- every shortest path is up-then-down in the
       hierarchy, so one pass over the downward edges (the transpose of the
       upward graph) in rank-descending dependency order finalises every
       remaining vertex: ``d[v] = min(d[v], d[u] + w)`` over v's downward
       in-edges, whose tails are all finalised before v.  No queue, no
       priority -- just a fixed scan order, which is what vectorises: the
       NumPy path relaxes one whole *level* of independent vertices at a
       time (gather, add, ``minimum.reduceat``), for a batch of ``k``
       sources as one ``(k, n)`` plane.
    3. **Refold** -- sweep labels are sums over shortcut weights, whose
       floating-point association differs from a Dijkstra's left-to-right
       accumulation by ulps, and the engines promise rows **bit-identical**
       to :meth:`CSRGraph.tree`.  The sweep labels are therefore never
       returned; they only certify the *structure* of the shortest-path
       forest.  The refold re-derives every label over original edges in
       parents-first order: ``d[v] = min(d[u] + w(u, v))`` over v's
       original in-neighbours, taking exactly the already-refolded ones.
       A Dijkstra's settled labels satisfy the same fixpoint (a relaxation
       from a later-settled neighbour can never lower a label in monotone
       float arithmetic), so visiting each vertex after its Dijkstra
       parent reproduces the reference labels float for float.  The
       pure-Python path visits vertices in ascending sweep-label order; a
       parent lies one positive edge weight below its child -- a real,
       weight-scale margin, far beyond the sweep labels' ulp-scale error
       wherever shortest paths are unique, and value-irrelevant under
       exact-arithmetic ties (the same contract the CH point query's
       refolding documents).  The NumPy path exploits that same margin to
       fold *generations* at once: vertices are bucketed by
       ``floor(label / (min_edge_weight / 2))``, so a parent and child can
       never share a bucket and each bucket is one segmented
       gather-add-``minimum.reduceat`` over the whole batch.

    The provider never touches SciPy: the vectorised path needs NumPy only,
    and without NumPy a scalar sweep over the same arrays serves the
    fallback -- so the ch backend's tree path has no SciPy dependency left.
    """

    name = "phast"

    def __init__(self, graph: CSRGraph, hierarchy: ContractionHierarchy) -> None:
        self._graph = graph
        self._hierarchy = hierarchy
        self._use_numpy = _np is not None
        if self._use_numpy:
            self._np_down_heads = _np.asarray(hierarchy.down_heads, dtype=_np.int64)
            self._np_down_indptr = _np.asarray(hierarchy.down_indptr, dtype=_np.int64)
            self._np_down_tails = _np.asarray(hierarchy.down_tails, dtype=_np.int64)
            self._np_down_weights = _np.asarray(
                hierarchy.down_weights, dtype=_np.float64
            )
            # float32 copy of the downward weights: the sweep's per-level
            # gather-add is memory-bound, so halving the plane and weight
            # widths roughly halves its cost.  The sweep labels only ever
            # certify *structure* (bucket membership and visit order); the
            # refold re-derives every exact label in float64 over original
            # edges, and a runtime guard falls back to the float64 sweep
            # whenever float32 rounding could threaten the bucket
            # separation (see :meth:`_trees_numpy`).
            self._np_down_weights32 = self._np_down_weights.astype(_np.float32)
            self._level_count = max(len(hierarchy.down_level_ptr) - 1, 1)
            self._np_indptr = _np.asarray(graph.indptr, dtype=_np.int64)
            self._np_indices = _np.asarray(graph.indices, dtype=_np.int64)
            self._np_weights = _np.asarray(graph.weights, dtype=_np.float64)
            self._np_degrees = _np.diff(self._np_indptr)
            # Half the smallest edge weight: the refold's bucket width (a
            # parent and its child differ by a whole edge weight, so they
            # can never land in the same bucket).
            self._bucket_width = (
                float(self._np_weights.min()) / 2.0 if self._np_weights.size else 1.0
            )

    # ------------------------------------------------------------------
    def tree(self, source_index: int) -> Sequence[float]:
        if self._use_numpy:
            return self._trees_numpy([source_index])[0]
        return self._tree_python(source_index)

    def trees(self, source_indices: Sequence[int]) -> Sequence[Sequence[float]]:
        sources = list(source_indices)
        if self._use_numpy:
            return self._trees_numpy(sources)
        return [self._tree_python(index) for index in sources]

    # ------------------------------------------------------------------
    # shared upward phase
    # ------------------------------------------------------------------
    def _upward_labels(self, source_index: int) -> Dict[int, float]:
        """Dijkstra over upward edges only: the source's upward cone."""
        hierarchy = self._hierarchy
        up_indptr = hierarchy.up_indptr
        up_indices = hierarchy.up_indices
        up_weights = hierarchy.up_weights
        dist: Dict[int, float] = {source_index: 0.0}
        heap: List[Tuple[float, int]] = [(0.0, source_index)]
        push, pop = heapq.heappush, heapq.heappop
        while heap:
            d, x = pop(heap)
            if d > dist[x]:
                continue
            for k in range(up_indptr[x], up_indptr[x + 1]):
                y = up_indices[k]
                nd = d + up_weights[k]
                if nd < dist.get(y, INFINITY):
                    dist[y] = nd
                    push(heap, (nd, y))
        return dist

    # ------------------------------------------------------------------
    # pure-Python path
    # ------------------------------------------------------------------
    def _tree_python(self, source_index: int) -> List[float]:
        n = len(self._graph.vertex_ids)
        approx = [INFINITY] * n
        for vertex, label in self._upward_labels(source_index).items():
            approx[vertex] = label
        hierarchy = self._hierarchy
        heads, down_indptr = hierarchy.down_heads, hierarchy.down_indptr
        tails, weights = hierarchy.down_tails, hierarchy.down_weights
        for position, v in enumerate(heads):
            best = approx[v]
            for k in range(down_indptr[position], down_indptr[position + 1]):
                candidate = approx[tails[k]] + weights[k]
                if candidate < best:
                    best = candidate
            approx[v] = best
        return self._refold_python(source_index, approx)

    def _refold_python(self, source_index: int, approx: List[float]) -> List[float]:
        """Exact labels from sweep labels: fold original edges parents-first.

        Vertices are visited in ascending sweep-label order; a vertex's
        Dijkstra parent lies one positive edge weight below it, far beyond
        the sweep labels' ulp-scale error, so parents are always visited
        first and ``min`` over the already-folded in-neighbours reproduces
        the reference Dijkstra's final label exactly (its settled labels
        satisfy the same fixpoint: relaxations from later-settled
        neighbours can never lower a label in monotone float arithmetic).
        """
        graph = self._graph
        indptr, neighbours, weights = graph.indptr, graph.indices, graph.weights
        order = [v for v in range(len(approx)) if approx[v] != INFINITY]
        order.sort(key=approx.__getitem__)
        exact = [INFINITY] * len(approx)
        exact[source_index] = 0.0
        for v in order:
            if v == source_index:
                continue
            best = INFINITY
            for k in range(indptr[v], indptr[v + 1]):
                candidate = exact[neighbours[k]] + weights[k]
                if candidate < best:
                    best = candidate
            exact[v] = best
        return exact

    # ------------------------------------------------------------------
    # NumPy path
    # ------------------------------------------------------------------
    def _trees_numpy(self, sources: List[int]):
        n = len(self._graph.vertex_ids)
        if not sources:
            return _np.empty((0, n), dtype=_np.float64)
        if len(sources) > PHAST_SOURCE_CHUNK:
            return _np.vstack(
                [
                    self._trees_numpy(sources[start : start + PHAST_SOURCE_CHUNK])
                    for start in range(0, len(sources), PHAST_SOURCE_CHUNK)
                ]
            )
        dist = self._sweep(sources, _np.float32)
        # Guard the float32 labels before trusting them for bucketing: the
        # refold's correctness needs a parent and its child (a true gap of
        # at least ``min_edge_weight = 2 * bucket_width``) to land in
        # different buckets.  Each label is a sum of at most
        # ``level_count + O(1)`` float32 additions, so its error is bounded
        # by ``max_label * eps32 * (level_count + 4)``; as long as twice
        # that bound stays within one bucket width the approximate gap is
        # still >= bucket_width and floor-bucketing cannot merge the pair.
        # Pathological networks (tiny min weight under a huge diameter)
        # fail the check and re-sweep in float64, which restores the
        # weight-scale margin the original analysis relied on.
        finite = dist[_np.isfinite(dist)]
        max_label = float(finite.max()) if finite.size else 0.0
        err_bound = (
            max_label * float(_np.finfo(_np.float32).eps) * (self._level_count + 4)
        )
        if 2.0 * err_bound > self._bucket_width:
            dist = self._sweep(sources, _np.float64)
        return self._refold_numpy(sources, dist)

    def _sweep(self, sources: List[int], dtype):
        """The downward relaxation over one level at a time, in ``dtype``."""
        n = len(self._graph.vertex_ids)
        k = len(sources)
        dist = _np.full((k, n), INFINITY, dtype=dtype)
        for row, source in enumerate(sources):
            labels = self._upward_labels(source)
            dist[row, list(labels.keys())] = list(labels.values())
        heads, down_indptr = self._np_down_heads, self._np_down_indptr
        tails = self._np_down_tails
        down_weights = (
            self._np_down_weights32
            if dtype == _np.float32
            else self._np_down_weights
        )
        level_ptr = self._hierarchy.down_level_ptr
        minimum = _np.minimum
        for level in range(len(level_ptr) - 1):
            a, b = level_ptr[level], level_ptr[level + 1]
            if a == b:
                continue
            e0, e1 = int(down_indptr[a]), int(down_indptr[b])
            candidates = dist[:, tails[e0:e1]] + down_weights[e0:e1]
            mins = minimum.reduceat(candidates, down_indptr[a:b] - e0, axis=1)
            level_heads = heads[a:b]
            dist[:, level_heads] = minimum(dist[:, level_heads], mins)
        return dist

    #: Refuse the bucket fold past this many non-empty buckets (a pathological
    #: min-weight / diameter ratio) and refold per source in Python instead --
    #: the generation loop's per-bucket dispatch would otherwise dominate.
    REFOLD_BUCKET_CAP = 32768

    def _refold_numpy(self, sources: List[int], approx):
        """Vectorised exact refold of a whole sweep plane (see class docs).

        All reachable (source, vertex) cells of the batch are bucketed by
        ``floor(label / bucket_width)`` and folded one bucket generation at
        a time: each generation is a single segmented
        gather-add-``minimum.reduceat`` over the concatenated in-edge rows
        of its cells, reading only already-folded labels (unfolded
        neighbours read as inf and every cell's Dijkstra parent sits in an
        earlier bucket, so the segmented min *is* the reference Dijkstra's
        final label -- see the class docstring).
        """
        graph = self._graph
        n = len(graph.vertex_ids)
        k = len(sources)
        exact = _np.full((k, n), INFINITY, dtype=_np.float64)
        rows = _np.arange(k)
        source_columns = _np.asarray(sources, dtype=_np.int64)
        exact[rows, source_columns] = 0.0
        neighbours, weights = self._np_indices, self._np_weights
        if not neighbours.shape[0]:
            return exact
        flat_approx = approx.reshape(-1)
        folds = _np.isfinite(flat_approx)
        folds[rows * n + source_columns] = False  # sources are exact already
        positions = _np.flatnonzero(folds)  # flat (row * n + column) cells
        if not positions.size:
            return exact
        # Bucket keys are always computed in float64: the sweep plane may be
        # float32 (guarded upstream), and a float32 divide could round a
        # label across a bucket boundary the guard's analysis did not cover.
        labels = flat_approx[positions]
        if labels.dtype != _np.float64:
            labels = labels.astype(_np.float64)
        keys = _np.floor(labels / self._bucket_width).astype(_np.int64)
        order = _np.argsort(keys, kind="stable")
        positions, keys = positions[order], keys[order]
        starts = _np.concatenate(
            ([0], _np.flatnonzero(_np.diff(keys) != 0) + 1)
        )
        if starts.size > self.REFOLD_BUCKET_CAP:
            return _np.asarray(
                [
                    self._refold_python(source, approx[row].tolist())
                    for row, source in enumerate(sources)
                ],
                dtype=_np.float64,
            )
        ends = _np.append(starts[1:], positions.size)
        # Concatenate every cell's in-edge row (the graph is symmetric, so a
        # vertex's in-edges are its CSR out-row) once, aligned with the
        # bucket order, so each generation below is pure slicing.
        vertices = positions % n
        degrees = self._np_degrees[vertices]
        edge_ptr = _np.concatenate(([0], _np.cumsum(degrees)))
        total_edges = int(edge_ptr[-1])
        spans = _np.repeat(edge_ptr[:-1], degrees)
        edge_index = (
            _np.arange(total_edges, dtype=_np.int64)
            - spans
            + _np.repeat(self._np_indptr[vertices], degrees)
        )
        edge_weight = weights[edge_index]
        # flat index of each in-edge's tail cell, in the tail's own row
        tail_cells = _np.repeat((positions // n) * n, degrees) + neighbours[edge_index]
        flat_exact = exact.reshape(-1)
        if _scatter_refold_enabled():
            # The reduceat-free fold: scatter-min every in-edge contribution
            # straight into its destination cell.  Destinations start at inf
            # and the gather still happens before the scatter, so a
            # same-bucket neighbour reads as inf exactly as it does in the
            # segmented fold -- min is exact in floats, so the two folds are
            # bit-identical.
            dest_cells = _np.repeat(positions, degrees)
            scatter_min = _np.minimum.at
            for s, t in zip(starts.tolist(), ends.tolist()):
                e0, e1 = int(edge_ptr[s]), int(edge_ptr[t])
                contributions = flat_exact[tail_cells[e0:e1]] + edge_weight[e0:e1]
                scatter_min(flat_exact, dest_cells[e0:e1], contributions)
            return exact
        reduceat = _np.minimum.reduceat
        for s, t in zip(starts.tolist(), ends.tolist()):
            e0, e1 = int(edge_ptr[s]), int(edge_ptr[t])
            contributions = flat_exact[tail_cells[e0:e1]] + edge_weight[e0:e1]
            flat_exact[positions[s:t]] = reduceat(
                contributions, edge_ptr[s:t] - e0
            )
        return exact


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


class CSREngine(RoutingEngine):
    """Array-backed routing over flat CSR adjacency, with optional ALT bounds.

    Single-source trees are computed over the CSR arrays (in C via SciPy when
    available, otherwise with the pure-Python int-indexed heap Dijkstra) and
    cached with the same FIFO policy as :class:`DistanceOracle`, including the
    symmetric source/target reuse the matchers rely on.

    With an :class:`~repro.roadnet.artifacts.ArtifactCache` attached, the CSR
    compile and the ALT landmark tables round-trip through ``.npz`` artifacts
    keyed by the network's content hash (see :mod:`repro.roadnet.artifacts`).
    """

    backend = "csr"

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
        #: the one seam every full tree is produced through (overridden by
        #: the ch backend when it goes hierarchy-native)
        self._tree_provider: TreeProvider = PlaneTreeProvider(self._graph)
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
        return self._network

    @property
    def graph(self) -> CSRGraph:
        """The compiled CSR adjacency (rebuilt by :meth:`invalidate`)."""
        return self._graph

    @property
    def alt(self) -> Optional[ALTIndex]:
        """The landmark index, when the engine was built with one."""
        return self._alt

    @property
    def tree_provider(self) -> TreeProvider:
        """The provider every full distance tree is computed through."""
        return self._tree_provider

    @property
    def tree_provider_name(self) -> str:
        return self._tree_provider.name

    def _bill_trees(self, count: int) -> None:
        """Attribute freshly computed trees to the provider that made them."""
        if self._tree_provider.name == "phast":
            self.stats.phast_sweeps += count
        else:
            self.stats.dijkstra_runs += count

    # ------------------------------------------------------------------
    def distance(self, source: VertexId, target: VertexId) -> float:
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
        self.stats.queries += 1
        return _TreeView(self._graph, self._tree(self._graph.index(source)))

    def prefetch_trees(
        self, sources: Sequence[VertexId]
    ) -> Mapping[VertexId, Mapping[VertexId, float]]:
        """Bulk-compute the missing trees of ``sources`` in one vectorised call.

        All missing sources go through **one** :meth:`TreeProvider.trees`
        plane (one SciPy C call on the plane provider, one batched PHAST
        sweep on the hierarchy-native provider); each computed row is
        detached from the plane, stored in the tree cache and billed as
        exactly one ``dijkstra_runs`` / ``phast_sweeps`` depending on the
        provider.  Sources whose tree is already cached are returned
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
            plane = self._tree_provider.trees(list(missing.values()))
            self._bill_trees(len(missing))
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
        # Read off the source's tree: a vehicle re-plans from where it stands,
        # and the matcher has usually just rooted (and cached) a tree there.
        # ``path(v, v)`` -- a vehicle standing at its next stop -- needs no
        # tree, so it roots none and is not billed as a query.
        tree = self.distances_from(source) if source != target else None
        return shortest_path(self._network, source, target, tree=tree)

    def distance_lower_bound(self, source: VertexId, target: VertexId) -> float:
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
        self._tree_provider = PlaneTreeProvider(self._graph)
        self._trees.clear()
        self._alt = self._compile_alt() if self._landmarks > 0 else None

    # ------------------------------------------------------------------
    def _tree(self, source_index: int) -> Sequence[float]:
        tree = self._trees.get(source_index)
        if tree is not None:
            self.stats.cache_hits += 1
            return tree
        tree = self._tree_provider.tree(source_index)
        self._bill_trees(1)
        self._trees[source_index] = tree
        if len(self._trees) > self._max_cached_sources:
            self._trees.popitem(last=False)
        return tree


class TableEngine(RoutingEngine):
    """All-pairs distance-table routing for small (city-benchmark) networks.

    The full ``n x n`` distance matrix is precomputed at build time by blocked
    multi-source Dijkstra (:meth:`CSRGraph.trees`, one SciPy call per block of
    :data:`DEFAULT_TABLE_BLOCK` sources), after which every ``distance`` is an
    O(1) array lookup and every ``distances_from`` a zero-copy row view.
    Rows are bit-identical to what :class:`CSREngine` computes per source, and
    point queries read the row of the *smaller* endpoint like every other
    backend, so answers are float-for-float interchangeable with the CSR
    engine's.

    The table is O(n^2) memory and O(n) Dijkstra runs to build -- the right
    trade for the <= 2k-vertex grids the benchmarks use and exactly the wrong
    one beyond :data:`DEFAULT_TABLE_MAX_VERTICES`, where construction refuses
    rather than silently swallowing gigabytes.
    """

    backend = "table"
    exact_lower_bounds = True
    tree_provider_name = "table"

    def __init__(
        self,
        network: RoadNetwork,
        block_size: int = DEFAULT_TABLE_BLOCK,
        max_vertices: int = DEFAULT_TABLE_MAX_VERTICES,
        cache: Optional[ArtifactCache] = None,
    ) -> None:
        if block_size <= 0:
            raise ValueError(f"block_size must be positive, got {block_size}")
        if max_vertices < 1:
            raise ValueError(f"max_vertices must be >= 1, got {max_vertices}")
        self._network = network
        self._block_size = block_size
        self._max_vertices = max_vertices
        self._cache = cache
        self._fingerprint = _fingerprint_for(network, cache)
        self.stats = EngineStats()
        self._graph = _compile_csr_graph(network, cache, self._fingerprint, self.stats)
        self._table = self._build_table()

    def _build_table(self) -> Sequence[Sequence[float]]:
        n = len(self._graph)
        if n > self._max_vertices:
            raise ConfigurationError(
                f"table routing backend capped at {self._max_vertices} vertices "
                f"(network has {n}; raise SystemConfig.table_max_vertices to "
                f"override); use the ch backend -- contraction hierarchies "
                f"keep point queries fast without the O(n^2) table -- for "
                f"larger networks"
            )
        return _load_or_build_artifact(
            self.stats,
            self._cache,
            self._fingerprint,
            "table",
            decode=lambda arrays: (
                arrays["matrix"] if arrays["matrix"].shape == (n, n) else None
            ),
            build=self._compute_table,
            encode=lambda table: {"matrix": table},
        )

    def _compute_table(self) -> Sequence[Sequence[float]]:
        n = len(self._graph)
        blocks = [
            self._graph.trees(range(start, min(start + self._block_size, n)))
            for start in range(0, n, self._block_size)
        ]
        self.stats.dijkstra_runs += n  # the build's honest cost, counted once
        if _np is not None and self._graph.matrix is not None:
            return _np.vstack(blocks) if blocks else _np.empty((0, 0))
        return [row for block in blocks for row in block]

    @property
    def network(self) -> RoadNetwork:
        return self._network

    @property
    def graph(self) -> CSRGraph:
        """The compiled CSR adjacency (rebuilt by :meth:`invalidate`)."""
        return self._graph

    @property
    def table(self) -> Sequence[Sequence[float]]:
        """The all-pairs distance matrix (row i = distances from index i)."""
        return self._table

    # ------------------------------------------------------------------
    def distance(self, source: VertexId, target: VertexId) -> float:
        self.stats.queries += 1
        if source == target:
            return 0.0
        # Same canonical rooting as every other backend: read the smaller
        # endpoint's row, so the answer is bit-identical to the CSR engine's.
        root, leaf = (source, target) if source <= target else (target, source)
        value = self._table[self._graph.index(root)][self._graph.index(leaf)]
        self.stats.cache_hits += 1  # every answer is served from the table
        if value == INFINITY:
            raise DisconnectedError(source, target)
        return float(value)

    def distances_from(self, source: VertexId) -> Mapping[VertexId, float]:
        self.stats.queries += 1
        self.stats.cache_hits += 1
        return _TreeView(self._graph, self._table[self._graph.index(source)])

    def prefetch_trees(
        self, sources: Sequence[VertexId]
    ) -> Mapping[VertexId, Mapping[VertexId, float]]:
        """Hand out precomputed row views; no work, no counters (not a query)."""
        graph = self._graph
        views: Dict[VertexId, Mapping[VertexId, float]] = {}
        for vertex in sources:
            index = graph.index_of.get(vertex)
            if index is not None and vertex not in views:
                views[vertex] = _TreeView(graph, self._table[index])
        return views

    def path(self, source: VertexId, target: VertexId) -> PathResult:
        # as on the csr engine: ``path(v, v)`` reads no row and bills no query
        tree = self.distances_from(source) if source != target else None
        return shortest_path(self._network, source, target, tree=tree)

    def distance_lower_bound(self, source: VertexId, target: VertexId) -> float:
        """The exact distance -- the tightest admissible bound there is.

        Infinity for provably disconnected pairs, matching the ALT index's
        convention, so the matchers prune those vehicles outright.
        """
        if source == target:
            return 0.0
        root, leaf = (source, target) if source <= target else (target, source)
        return float(self._table[self._graph.index(root)][self._graph.index(leaf)])

    def invalidate(self) -> None:
        """Recompile the CSR arrays and rebuild the table (network mutated)."""
        self._fingerprint = _fingerprint_for(self._network, self._cache)
        self._graph = _compile_csr_graph(
            self._network, self._cache, self._fingerprint, self.stats
        )
        self._table = self._build_table()


class CHEngine(CSREngine):
    """Contraction-hierarchy routing: scalable point queries *and* trees.

    The engine keeps the whole :class:`CSREngine` machinery -- the compiled
    CSR arrays, the tree cache, the vectorised plane prefetch seam -- but
    both query shapes are hierarchy-native:

    * ``distance(s, t)`` runs a bidirectional upward search over the
      :class:`ContractionHierarchy`, settling a few hundred vertices
      regardless of network size -- the query the matchers issue per
      candidate schedule leg;
    * full distance trees (``distances_from`` / ``prefetch_trees``, what
      ``MatchContext`` and ``BatchContext`` pin) can come from a
      :class:`PHASTTreeProvider` downward sweep over the same hierarchy,
      so the tree path no longer *depends* on SciPy.  The
      ``tree_provider`` knob ("auto" / "plane" / "phast") selects the
      provider for ablation; "auto" keeps the SciPy C plane where SciPy
      exists (still the fastest tree path, E15 records the ratio) and
      goes hierarchy-native past :data:`PHAST_AUTO_MIN_VERTICES` vertices
      in NumPy-only environments, where the vectorised sweep beats
      per-source pure-Python Dijkstras severalfold.

    Answers stay byte-identical to the CSR backend's either way: a cached
    tree row is still consulted first (same canonical smaller-endpoint
    rooting), the CH point search refolds its answer from the unpacked
    original-edge path in the exact addition order the tree computation
    uses, and the PHAST provider refolds whole planes the same way.

    The hierarchy build is the expensive part (seconds of witness searches
    on a 20k-vertex network), which is exactly what the artifact cache
    amortises: with a cache attached the hierarchy -- including the
    rank-permuted downward CSR the sweep runs on -- round-trips through
    one ``.npz`` read keyed by the network's content hash.
    """

    backend = "ch"
    #: an uncached pair settles a few hundred vertices, not a whole tree
    point_queries_root_trees = False

    def __init__(
        self,
        network: RoadNetwork,
        max_cached_sources: int = 1024,
        cache: Optional[ArtifactCache] = None,
        tree_provider: str = "auto",
        phast_min_vertices: int = PHAST_AUTO_MIN_VERTICES,
    ) -> None:
        if tree_provider not in TREE_PROVIDERS:
            raise ConfigurationError(
                f"unknown tree provider {tree_provider!r}; "
                f"choose one of {TREE_PROVIDERS}"
            )
        self._tree_provider_request = tree_provider
        self._phast_min_vertices = phast_min_vertices
        super().__init__(network, max_cached_sources=max_cached_sources, cache=cache)
        self._hierarchy = self._compile_hierarchy()
        self._tree_provider = self._resolve_tree_provider()

    @property
    def hierarchy(self) -> ContractionHierarchy:
        """The compiled hierarchy (rebuilt by :meth:`invalidate`)."""
        return self._hierarchy

    def _resolve_tree_provider(self) -> TreeProvider:
        """Apply the ``tree_provider`` knob to the freshly compiled state.

        "auto" picks whichever path is measurably fastest for the runtime
        environment (see :data:`PHAST_AUTO_MIN_VERTICES`): the SciPy C plane
        when SciPy is importable, the NumPy PHAST sweep when only NumPy is
        (on networks large enough for the sweep to amortise), and the
        pure-Python plane otherwise -- pure-Python PHAST never wins on speed
        and is only ever *forced*, for ablation and fallback testing.
        """
        request = self._tree_provider_request
        if request == "phast" or (
            request == "auto"
            and _np is not None
            and _csgraph_dijkstra is None
            and len(self._graph) >= self._phast_min_vertices
        ):
            return PHASTTreeProvider(self._graph, self._hierarchy)
        return PlaneTreeProvider(self._graph)

    def _compile_hierarchy(self) -> ContractionHierarchy:
        """Load the hierarchy from the cache, or contract and persist.

        A cached payload without the downward sweep arrays (persisted by an
        older build) still decodes -- the sweep order is re-derived from the
        upward arrays in one O(E) pass.
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
                down_heads=arrays.get("down_heads"),
                down_indptr=arrays.get("down_indptr"),
                down_tails=arrays.get("down_tails"),
                down_weights=arrays.get("down_weights"),
                down_level_ptr=arrays.get("down_level_ptr"),
            ),
            build=lambda: ContractionHierarchy.build(self._graph),
            encode=lambda hierarchy: hierarchy.to_arrays(),
        )

    def distance(self, source: VertexId, target: VertexId) -> float:
        self.stats.queries += 1
        if source == target:
            return 0.0
        # Same canonical rooting as every other backend; a tree already in
        # the cache answers in O(1) exactly as the CSR engine would.
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
        """Recompile the CSR arrays, re-contract, re-resolve the provider."""
        super().invalidate()
        self._hierarchy = self._compile_hierarchy()
        self._tree_provider = self._resolve_tree_provider()


def make_engine(
    network: RoadNetwork,
    backend: str = "dict",
    max_cached_sources: int = 1024,
    landmarks: int = DEFAULT_LANDMARKS,
    table_max_vertices: int = DEFAULT_TABLE_MAX_VERTICES,
    cache_dir: Optional[str] = None,
    tree_provider: str = "auto",
) -> RoutingEngine:
    """Build a routing engine by backend name.

    Args:
        backend: one of "dict", "csr", "csr+alt", "table", "ch".
        max_cached_sources: tree-cache capacity of the dict/CSR-family engines.
        landmarks: landmark count of the "csr+alt" backend.
        table_max_vertices: vertex cap of the "table" backend
            (``SystemConfig.table_max_vertices``).
        cache_dir: directory for persisted compiled artifacts; ``None``
            disables persistence (every engine builds from scratch).
        tree_provider: how the ch backend computes full distance trees
            ("auto", "plane" or "phast"; ``SystemConfig.tree_provider``).
            Every other backend has exactly one tree path, so it accepts
            only "auto" -- plus "plane" on the csr family, whose one path
            that is.

    Raises:
        ConfigurationError: for an unknown backend or tree-provider name, a
            "table" request on a network too large for an all-pairs table,
            or a "phast" request on a backend without a hierarchy.
    """
    if tree_provider not in TREE_PROVIDERS:
        raise ConfigurationError(
            f"unknown tree provider {tree_provider!r}; choose one of {TREE_PROVIDERS}"
        )
    if tree_provider == "phast" and backend != "ch":
        raise ConfigurationError(
            f"tree provider 'phast' sweeps a contraction hierarchy, which only "
            f"the ch backend builds (got backend {backend!r}); choose "
            f"routing backend 'ch' or tree provider 'auto'"
        )
    if tree_provider == "plane" and backend in ("dict", "table"):
        # Refuse rather than silently measure the wrong thing: an ablation
        # that forces the CSR plane path must not get oracle Dijkstras or
        # table rows back without noticing.
        raise ConfigurationError(
            f"tree provider 'plane' names the CSR plane path, which the "
            f"{backend!r} backend does not use (its trees come from "
            f"{'the memoising oracle' if backend == 'dict' else 'precomputed table rows'}); "
            f"choose tree provider 'auto'"
        )
    cache = ArtifactCache(cache_dir) if cache_dir is not None else None
    if backend == "dict":
        return DictDijkstraEngine(network, max_cached_sources=max_cached_sources)
    if backend == "csr":
        return CSREngine(network, max_cached_sources=max_cached_sources, cache=cache)
    if backend == "csr+alt":
        return CSREngine(
            network, max_cached_sources=max_cached_sources, landmarks=landmarks, cache=cache
        )
    if backend == "table":
        return TableEngine(network, max_vertices=table_max_vertices, cache=cache)
    if backend == "ch":
        return CHEngine(
            network,
            max_cached_sources=max_cached_sources,
            cache=cache,
            tree_provider=tree_provider,
        )
    raise ConfigurationError(
        f"unknown routing backend {backend!r}; choose one of {ROUTING_BACKENDS}"
    )


def ensure_engine(value: object, network: RoadNetwork) -> RoutingEngine:
    """Coerce ``value`` (engine, bare oracle or ``None``) into a routing engine.

    Keeps call sites that still construct a :class:`DistanceOracle` working
    unchanged: a bare oracle is wrapped into a :class:`DictDijkstraEngine`
    that shares its caches and statistics.
    """
    if value is None:
        return DictDijkstraEngine(network)
    if isinstance(value, RoutingEngine):
        return value
    if isinstance(value, DistanceOracle):
        return DictDijkstraEngine(oracle=value)
    raise TypeError(f"expected a RoutingEngine or DistanceOracle, got {type(value)!r}")
