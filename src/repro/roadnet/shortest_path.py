"""The two path walks every routing answer ends in.

Every price and every pick-up time in the system is derived from shortest-path
distances on the road network (Section 2.1 of the paper).  Distances come
from the routing engine's trees (:mod:`repro.roadnet.routing`); paths come
from walks over a tree row and the engine's CSR arrays, never from a fresh
search, and so do vehicle re-plans (``vehicles.movement.plan_route`` through
``engine.path``):

* :func:`shortest_path` walks *back* from the target over the row of the
  tree rooted at the source -- the parent pointers that tree's search set,
  exact ties included;
* :func:`certified_walk` walks *forward* from one endpoint over the row of
  the tree rooted at the other, and answers only when every step's choice
  wins by more than the float error bound, i.e. when the shortest path is
  unique; it then returns what the first walk on the first endpoint's tree
  would have, without rooting that tree.

The independent searches the tests check these against (a full Dijkstra
tree, the ``Mapping`` tree walk, an early-terminated Dijkstra path search,
A*, bidirectional and radius-bounded Dijkstra) live in
``tests/routing_reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import DisconnectedError
from repro.roadnet.graph import VertexId

__all__ = [
    "PathResult",
    "certified_walk",
    "shortest_path",
]

INFINITY = float("inf")

#: unit roundoff of a ``float``: one rounded addition is off by at most this
#: factor of its result
_ROUNDOFF = 2.0 ** -53


@dataclass(frozen=True)
class PathResult:
    """The result of a point-to-point shortest-path query."""

    source: VertexId
    target: VertexId
    distance: float
    path: Tuple[VertexId, ...]


def shortest_path(graph, source: VertexId, target: VertexId, row: Sequence[float]) -> PathResult:
    """Return the shortest path (distance and vertex sequence) between two
    distinct, known vertices.

    ``graph`` is the engine's :class:`~repro.roadnet.routing.CSRGraph` and
    ``row`` the tree row rooted at ``source`` over its dense indices
    (``row[i] = dist(source, vertex_ids[i])``, ``inf`` when unreachable).
    The path is read off it by index: walking back from ``target``, each
    vertex ``v`` is preceded by the neighbour ``u`` that minimises
    ``(row[u] + w(u, v), row[u], u)``, ``u`` compared by vertex id.  That is
    the parent a Dijkstra search sets -- the first-settled neighbour
    attaining ``v``'s final label, the search settling in ``(distance,
    vertex id)`` order -- so the walk returns the vertex sequence and the
    float such a search would, exact ties included.

    Raises:
        DisconnectedError: if ``target`` is unreachable from ``source``.
    """
    index_of, ids = graph.index_of, graph.vertex_ids
    indptr, indices, weights = graph.indptr, graph.indices, graph.weights
    source_index, current = index_of[source], index_of[target]
    distance = row[current]
    if distance == INFINITY:
        raise DisconnectedError(source, target)
    path = [target]
    while current != source_index:
        best_key = INFINITY
        best = -1
        for k in range(indptr[current], indptr[current + 1]):
            u = indices[k]
            key = row[u] + weights[k]
            if key < best_key or key == best_key and (row[u], ids[u]) < (row[best], ids[best]):
                best_key, best = key, u
        current = best
        path.append(ids[current])
    path.reverse()
    return PathResult(source, target, distance, tuple(path))


def certified_walk(
    graph, row: Sequence[float], start: int, goal: int
) -> Optional[Tuple[float, List[int]]]:
    """Walk from index ``start`` to index ``goal`` over ``goal``'s tree row.

    ``graph`` is the engine's :class:`~repro.roadnet.routing.CSRGraph` and
    ``row`` the tree rooted at ``goal`` over its indices (``row[i] =
    dist(goal, i)``).  At each vertex ``v`` the walk steps to the neighbour
    ``u`` minimising ``row[u] + w(v, u)`` and sums the weights of the edges
    it takes, left to right from ``start``.  It answers ``(total,
    indices)`` -- the path's dense indices from ``start`` to ``goal`` --
    only when every step is *certified*: the best key beats the runner-up,
    and the edge taken is longer, by more than

        eps = 8 * V * 2**-53 * max(1, row[start])

    (``V`` vertices).  Each label of either tree is a left-to-right float sum
    of at most ``V - 1`` edges, off by at most ``V * 2**-53`` of itself, so a
    measured margin above ``eps`` is a real one, and a real one larger than
    two labels' error survives the comparisons a search rooted at ``start``
    makes (ARCHITECTURE.md, *Cold queries from the other end*, has the
    argument).  Hence the path is the unique shortest path, that search
    sets the same parent at every vertex on it, strictly, and its label at
    ``goal`` is ``total`` bit for bit.  ``eps`` is a property of the
    arithmetic, not a tuning knob.  A certified step lowers the row by
    about its edge, more than ``eps``, so the walk reaches ``goal``.

    ``start`` must be reachable from ``goal`` (``row[start]`` finite).
    Returns ``None`` -- the caller roots ``start``'s tree instead -- when any
    step is a near tie.
    """
    scale = row[start]
    eps = 8.0 * len(row) * _ROUNDOFF * (scale if scale > 1.0 else 1.0)
    indptr, indices, weights = graph.indptr, graph.indices, graph.weights
    current, total, path = start, 0.0, [start]
    while current != goal:
        best_key = runner_up = INFINITY
        taken = -1
        for k in range(indptr[current], indptr[current + 1]):
            key = row[indices[k]] + weights[k]
            if key < best_key:
                runner_up, best_key, taken = best_key, key, k
            elif key < runner_up:
                runner_up = key
        step, best = weights[taken], indices[taken]
        if runner_up - best_key <= eps or step <= eps:
            return None
        total += step
        current = best
        path.append(current)
    return total, path
