"""Shared routing contexts for a batch of simultaneous requests.

The greedy strategy of Section 2.5 processes simultaneous requests one after
the other, but nothing about the *routing* side of a request depends on the
order: a request's direct distance and its start-rooted distance tree are
functions of the road network only.  :class:`BatchContext` therefore pools
that work for a whole tick's worth of requests:

* start vertices are **deduplicated** -- requests sharing a start vertex
  share one distance tree, computed exactly once and pooled by reference for
  the lifetime of the batch (engine cache eviction can never force a
  recomputation mid-batch, no matter how many requests the tick carries);
* the distinct starts are **prefetched in one vectorised engine call**
  before matching begins
  (:meth:`~repro.roadnet.routing.RoutingEngine.prefetch_trees`; one
  ``scipy.csgraph.dijkstra(indices=[...])`` plane over the starts the
  engine holds no row for -- a start its dispatcher retained from the
  previous window is read from the engine's pinned rows);
* each request receives a regular
  :class:`~repro.core.context.MatchContext` built from the pooled tree, so
  the matchers are oblivious to whether a context was built per-request or
  per-batch;
* the start trees seed a **demand-driven leg-tree pool**: a schedule-leg
  query whose canonical root is not pooled yet is walked over its other
  end's pooled or cached tree when that walk is certified, and otherwise
  asks the engine for the root's one tree, which stays pooled for the rest
  of the batch (:class:`BatchMatchContext`) -- trees are rooted only where
  a verification really asked and no walk could answer, never at every taxi
  and stop of the fleet;
* endpoint errors (unknown vertex, unreachable destination) are *recorded*
  instead of raised, and surface when the pipeline reaches the failing
  request in submission order -- exactly when the sequential loop would have
  raised them, so earlier requests still commit.

:class:`BatchStatistics` reports the shared-tree hit rate the benchmark
harness records (``bench_e12_batch_dispatch.py``).
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.core.context import MatchContext
from repro.errors import DisconnectedError, VertexNotFoundError
from repro.model.request import Request
from repro.roadnet.graph import VertexId
from repro.roadnet.grid_index import GridIndex
from repro.roadnet.routing import RoutingEngine
from repro.roadnet.shortest_path import INFINITY

__all__ = ["BatchStatistics", "BatchMatchContext", "BatchContext"]


@dataclass
class BatchStatistics:
    """How much routing work the batch shared across its requests.

    For a batch whose endpoints all resolve,
    ``prefetched_trees + shared_tree_hits == requests``; requests with an
    unknown start vertex receive no tree and count in neither term.  A
    prefetched tree counts exactly once however many requests consume it:
    the first consumer is covered by ``prefetched_trees``, every later one
    by ``shared_tree_hits``.

    ``leg_sources_prefetched``, ``leg_tree_hits`` and ``leg_walks``
    describe the demand pool (the first two names predate it and are kept
    for the records that read them): the leg roots pooled on demand, the leg
    queries answered from a pooled tree, and the leg queries answered by a
    certified walk over the leaf's pooled or cached tree.  With pooling on,
    every leg query that misses the batch memo -- two distinct endpoints,
    neither the request start -- counts in exactly one of ``leg_tree_hits``,
    ``leg_walks`` or neither, the last only when the engine raises for it
    (an unknown or unreachable endpoint); on a connected network
    ``leg_tree_hits + leg_walks`` is the number of memo misses.
    ``prefetch_seconds`` covers the start trees only.  ``trees_computed``
    always reads 0: every start tree comes through the one prefetch.  It
    stays because ``perfbench/harness.py`` still reads it.
    """

    #: number of requests in the batch
    requests: int = 0
    #: always 0: every start tree comes through the one prefetch
    trees_computed: int = 0
    #: requests whose tree was already pooled by an earlier request
    shared_tree_hits: int = 0
    #: distinct start trees pooled before the first turn by the one-shot
    #: vectorised prefetch
    prefetched_trees: int = 0
    #: wall time of the single ``prefetch_trees`` engine call
    prefetch_seconds: float = 0.0
    #: leg roots (not request starts) pooled on demand
    leg_sources_prefetched: int = 0
    #: leg queries answered from the pool instead of going to the engine
    leg_tree_hits: int = 0
    #: leg queries of an unpooled root answered by a walk over the leaf's tree
    leg_walks: int = 0

    panel_derived = ("shared_tree_hit_rate",)

    @property
    def shared_tree_hit_rate(self) -> float:
        """Fraction of tree-resolved requests served by an already-pooled tree."""
        resolved = self.trees_computed + self.prefetched_trees + self.shared_tree_hits
        if not resolved:
            return 0.0
        return self.shared_tree_hits / resolved


#: pool lookup default: the root was never asked (``None`` = asked, no tree)
_UNPOOLED = object()


@dataclass
class BatchMatchContext(MatchContext):
    """A :class:`MatchContext` whose exact distances are memoised batch-wide.

    Verifying a candidate vehicle issues point-to-point queries for the legs
    of its *existing* schedules (replaced legs, prefix distances); those legs
    are properties of the fleet, not of the request, so every request of a
    batch re-asks the very same queries.  All contexts of one
    :class:`BatchContext` share one ``shared_distances`` memo keyed by the
    (order-normalised) endpoint pair: the first request pays the engine query,
    every later request of the batch hits the memo -- immune to engine cache
    eviction, and bounded by the batch's actual verification working set.

    The memo stores the engine's own answers verbatim (the engine roots every
    point query canonically), so batched verifications see bit-for-bit the
    floats a per-request context would.

    ``leg_trees`` is the batch's demand-driven tree pool: it starts out
    holding the batch's start trees.  A memo miss whose canonical root (the
    smaller vertex id, the root ``RoutingEngine.distance`` picks) is not
    pooled is first walked over the leaf's tree -- pooled, else the engine's
    cached one -- by :meth:`~repro.roadnet.routing.RoutingEngine.walk_distance`,
    which returns the root tree's float bit for bit.  When it does not
    answer (the root's tree is cached already, the engine's cache holds
    every vertex's tree, there is no leaf tree, or the certificate refused)
    the pool grows by the root's tree through
    :meth:`~repro.roadnet.routing.RoutingEngine.prefetch_trees`, which stays
    pooled for the rest of the batch, whatever the engine cache evicts; its
    row is the engine's own tree row, so the answers are the engine's own
    floats.  No tree is computed for a root nobody asked.
    Whatever the pool cannot answer (an unknown root, an unknown or
    unreachable leaf) goes to ``engine.distance`` verbatim, errors included.
    """

    #: batch-wide exact-distance memo shared by every context of the batch
    shared_distances: Dict[Tuple[VertexId, VertexId], float] = field(default_factory=dict)
    #: the batch's tree pool by root (``None`` value: the engine had no tree)
    leg_trees: Dict[VertexId, Optional[Mapping[VertexId, float]]] = field(default_factory=dict)
    #: statistics sink for the pool counters (shared by the whole batch)
    batch_statistics: BatchStatistics = field(default_factory=BatchStatistics)

    def distance(self, source: VertexId, target: VertexId) -> float:
        """Exact distance; start-rooted legs from the start tree, others memoised.

        A start-rooted leg is one read of the start row, inlined from
        :meth:`~repro.core.context.MatchContext.from_start`: this is the
        most-called read of a verification.
        """
        start = self.request.start
        if source == start or target == start:
            vertex = target if source == start else source
            try:
                value = self.start_row[self.index_of[vertex]]
            except KeyError:
                value = INFINITY
            if value == INFINITY:
                raise DisconnectedError(start, vertex)
            return value
        key = (source, target) if source <= target else (target, source)
        value = self.shared_distances.get(key)
        if value is None:
            pool = self.leg_trees
            if source != target:
                root, leaf = key  # key is already rooted at the smaller id
                tree = pool.get(root, _UNPOOLED)
                if tree is _UNPOOLED:
                    leaf_tree = pool.get(leaf)
                    value = self.engine.walk_distance(
                        root, leaf, None if leaf_tree is None else leaf_tree.row
                    )
                    if value is None:
                        tree = pool[root] = self.engine.prefetch_trees((root,)).get(root)
                        if tree is not None:
                            self.batch_statistics.leg_sources_prefetched += 1
                    else:
                        self.batch_statistics.leg_walks += 1
                if value is None and tree is not None:
                    value = tree.get(leaf)
                    if value is not None:
                        self.batch_statistics.leg_tree_hits += 1
            if value is None:
                value = self.engine.distance(source, target)
            self.shared_distances[key] = value
        return value


class BatchContext:
    """Pooled per-request :class:`MatchContext`\\ s for one dispatch batch.

    Build one with :meth:`create`; fetch a request's context (or its recorded
    endpoint error) with :meth:`context_for` when the pipeline reaches that
    request in submission order.

    Memory: every context holds the batch's one tree pool, so the pooled
    O(V) rows -- one per distinct start plus one per demanded leg root --
    grow with the roots the batch asks and are freed together when its last
    context goes, not request by request as the batch drains.  The
    dispatcher reads :attr:`pool` once the batch is matched and hands it to
    :meth:`~repro.roadnet.routing.CSREngine.retain`, which keeps the rows of
    the roots the dispatcher names beyond the batch.
    """

    def __init__(
        self,
        contexts: Dict[int, MatchContext],
        errors: Dict[int, Exception],
        statistics: BatchStatistics,
        seconds: Optional[Dict[int, float]] = None,
        pool: Optional[Dict[VertexId, Optional[Mapping[VertexId, float]]]] = None,
    ) -> None:
        self._contexts = contexts
        self._errors = errors
        self._seconds = seconds or {}
        self.statistics = statistics
        #: the batch's tree pool by root -- its start trees and every leg
        #: root a verification demanded, ``None`` where the engine had no
        #: tree -- as it stands (it grows while the batch is matched)
        self.pool = {} if pool is None else pool

    @classmethod
    def create(
        cls,
        requests: Sequence[Request],
        engine: RoutingEngine,
        grid: GridIndex,
    ) -> "BatchContext":
        """Pool trees and direct distances for ``requests`` (in order).

        Start vertices are deduplicated, and their trees are prefetched
        through **one** vectorised
        :meth:`~repro.roadnet.routing.RoutingEngine.prefetch_trees` call
        before any request is examined; requests sharing a start reuse the
        pooled reference.  Endpoint failures are recorded per request, not
        raised: ``prefetch_trees`` skips unknown start vertices, so a request
        starting at one records the ``VertexNotFoundError`` the sequential
        loop would have raised.

        The start trees also seed the batch's demand pool
        (:attr:`BatchMatchContext.leg_trees`).  ``prefetch_seconds`` and the
        share billed to each start's first consumer cover start trees only;
        a demanded leg tree's wall lands in the turn that demanded it.  The
        class docstring says when pooled trees are freed.
        """
        contexts: Dict[int, MatchContext] = {}
        errors: Dict[int, Exception] = {}
        seconds: Dict[int, float] = {}
        statistics = BatchStatistics(requests=len(requests))

        # the batch's demand pool, seeded with the start trees
        trees: Dict[VertexId, Optional[Mapping[VertexId, float]]] = {}
        # first consumer of each pooled start -> the wall billed to it
        unbilled: Dict[VertexId, float] = {}
        if requests:
            started = time.perf_counter()
            trees.update(
                engine.prefetch_trees(list(dict.fromkeys(request.start for request in requests)))
            )
            statistics.prefetch_seconds = time.perf_counter() - started
            statistics.prefetched_trees = len(trees)
            if trees:
                # Bill each tree's share of the one-shot call to its first
                # consumer below.
                unbilled = dict.fromkeys(trees, statistics.prefetch_seconds / len(trees))
        # The batch's contexts share one leg memo and one demand pool.
        build_context = functools.partial(
            BatchMatchContext,
            engine=engine,
            grid=grid,
            shared_distances={},
            leg_trees=trees,
            batch_statistics=statistics,
        )

        for index, request in enumerate(requests):
            start = request.start
            tree = trees.get(start)
            if tree is not None:
                share = unbilled.pop(start, None)
                if share is None:
                    statistics.shared_tree_hits += 1
                else:
                    seconds[index] = share
            if tree is None:
                errors[index] = VertexNotFoundError(start)
                continue
            if request.destination not in engine.network:
                errors[index] = VertexNotFoundError(request.destination)
                continue
            try:
                direct = tree[request.destination]
            except KeyError:
                errors[index] = DisconnectedError(start, request.destination)
                continue
            contexts[index] = build_context(request=request, direct=direct, start_tree=tree)
        return cls(contexts, errors, statistics, seconds, trees)

    def context_for(self, index: int) -> MatchContext:
        """Return the pooled context of request ``index``.

        Raises:
            VertexNotFoundError / DisconnectedError: the error the sequential
                loop would have raised when it reached this request.
        """
        error = self._errors.get(index)
        if error is not None:
            raise error
        return self._contexts[index]

    def context_seconds(self, index: int) -> float:
        """Wall time spent building request ``index``'s share of the pool.

        The first request of a start vertex is billed its share of the
        one-shot prefetch; requests served by an already-pooled tree, and a
        start the engine had no tree for, are billed nothing.  The pipeline
        adds this to each outcome's ``match_seconds`` so response times keep
        covering the request-side routing work, as they did when contexts
        were built inline.
        """
        return self._seconds.get(index, 0.0)

    def release(self, index: int) -> None:
        """Drop request ``index``'s context.

        Its start tree stays pooled: the batch frees every pooled tree at
        once, when its last context is dropped.
        """
        self._contexts.pop(index, None)
