"""Per-request matching context.

A :class:`MatchContext` is created once at the top of every
:meth:`repro.core.matcher.Matcher.match` call and threaded through the whole
verification pipeline.  It pins the resources every candidate-vehicle
verification shares:

* the (normalised) request itself;
* the request's direct distance ``dist(s, d)``, computed exactly once;
* the request-rooted single-source distance tree, held by reference so it can
  never be evicted from the routing engine's cache mid-match -- this is what
  eliminates the per-vehicle ``oracle.distance(request.start, ...)`` re-query
  the matchers used to issue.  The tree is the row view the engine hands
  out, possibly pooled batch-wide by a vectorised prefetch; the start-side
  reads skip the view and index its ``array('d')`` row directly
  (:attr:`MatchContext.start_row`), one dict lookup and one array read;
* the admissible lower bound on any leg: the exact distance out of that same
  tree when the leg touches the request start, otherwise the better of the
  grid cell bound and the engine's optional ALT landmark bound;
* what each vehicle verification found (:attr:`MatchContext.verified`), so the
  commit of a chosen option installs it instead of enumerating again.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict, Mapping, Tuple

from repro.errors import DisconnectedError, VertexNotFoundError
from repro.model.request import Request
from repro.roadnet.graph import VertexId
from repro.roadnet.grid_index import GridIndex
from repro.roadnet.routing import RoutingEngine
from repro.roadnet.shortest_path import INFINITY

__all__ = ["BOUND_SLACK", "MatchContext"]

#: Taken off an exact distance before it serves as a *bound*.  The same route
#: summed in another order differs in its last bits (~1e-15), and a bound that
#: overshoots a vehicle's real option by one ulp prunes that option whenever
#: it ties a confirmed one -- which shared sub-routes make a real event.
BOUND_SLACK = 1e-9


@dataclass
class MatchContext:
    """Everything one ``match`` call shares across its vehicle verifications.

    ``start_tree`` is the engine's view of the start tree;
    ``start_row`` and ``index_of`` are that view's row and vertex index,
    taken once when the context is built, so that a start-side read is
    ``start_row[index_of[v]]``.  A read returns the built-in ``float`` the
    row stores: ``inf`` for an unreachable vertex, ``KeyError`` from
    ``index_of`` for an unknown one.
    """

    request: Request
    engine: RoutingEngine
    grid: GridIndex
    #: exact direct distance ``dist(request.start, request.destination)``
    direct: float
    #: the full distance tree rooted at ``request.start`` (shared reference)
    start_tree: Mapping[VertexId, float]
    #: vehicle id -> (the ``Vehicle``, its ``stamp()`` at the time, every
    #: feasible insertion candidate), written by ``Matcher._verify_vehicle``
    #: and read by ``Dispatcher.commit``.  It lives and dies with the context:
    #: never serialised, never shipped between processes.
    verified: Dict[str, Tuple[object, tuple, list]] = field(default_factory=dict)
    #: ``start_tree``'s ``array('d')`` row
    start_row: array = field(init=False, repr=False, compare=False)
    #: vertex id -> position in ``start_row``
    index_of: Mapping[VertexId, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.start_row = self.start_tree.row
        self.index_of = self.start_tree.index_of

    @classmethod
    def create(cls, request: Request, engine: RoutingEngine, grid: GridIndex) -> "MatchContext":
        """Build the context: one tree computation, one direct-distance lookup.

        Raises:
            VertexNotFoundError: if the request's endpoints are unknown.
            DisconnectedError: if the destination is unreachable from the start.
        """
        start_tree = engine.distances_from(request.start)
        if request.destination not in engine.network:
            raise VertexNotFoundError(request.destination)
        if request.start == request.destination:
            direct = 0.0
        else:
            try:
                direct = start_tree[request.destination]
            except KeyError:
                raise DisconnectedError(request.start, request.destination) from None
        return cls(
            request=request, engine=engine, grid=grid, direct=direct, start_tree=start_tree
        )

    def from_start(self, vertex: VertexId) -> float:
        """Distance from the request start to ``vertex`` (cached tree lookup).

        Raises:
            DisconnectedError: if ``vertex`` is unknown or unreachable from
                the start.
        """
        try:
            value = self.start_row[self.index_of[vertex]]
        except KeyError:
            value = INFINITY
        if value == INFINITY:
            raise DisconnectedError(self.request.start, vertex)
        return value

    def distance(self, source: VertexId, target: VertexId) -> float:
        """Exact distance between two vertices.

        Legs touching the request start are answered from the pinned start
        tree (the network is undirected), so they stay O(1) even if the
        engine's tree cache evicts the start entry mid-match; everything else
        delegates to the engine.
        """
        start = self.request.start
        if source == start:
            return self.from_start(target)
        if target == start:
            return self.from_start(source)
        return self.engine.distance(source, target)

    def lower_bound(self, source: VertexId, target: VertexId) -> float:
        """Best admissible lower bound on ``dist(source, target)``.

        A leg touching the request start is read off the pinned start tree:
        the exact distance (less :data:`BOUND_SLACK`), the tightest
        admissible bound there is.  Every other pair -- and a vertex the tree
        does not hold -- gets :meth:`index_lower_bound`.
        """
        start = self.request.start
        if source == start:
            index = self.index_of.get(target)
        elif target == start:
            index = self.index_of.get(source)
        else:
            index = None
        exact = INFINITY if index is None else self.start_row[index]
        if exact == INFINITY:
            return self.index_lower_bound(source, target)
        return exact - BOUND_SLACK if exact > BOUND_SLACK else 0.0

    def index_lower_bound(self, source: VertexId, target: VertexId) -> float:
        """The bound the indexes give: grid cells vs ALT landmarks."""
        engine_bound = self.engine.distance_lower_bound(source, target)
        bound = self.grid.distance_lower_bound(source, target)
        return engine_bound if engine_bound > bound else bound
