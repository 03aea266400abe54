"""Independent reference for the grid index's distance values and cell orders.

``GridIndex`` computes ``v.min`` and every cell-pair lower-bound row with
:meth:`repro.roadnet.routing.CSRGraph.nearest` on a compiled graph.
:func:`multi_source_dijkstra` is what it used to run -- one whole-graph dict
search per cell -- kept here as the reference those values must equal
(``tests/property/test_grid_bounds.py``).  :func:`reference_cell_order` is the
*grid cell list* as it used to be built: a ``{cell id: bound}`` row and a sort
of ``(bound, cell id)`` tuples.  :func:`reference_expansion` and
:func:`reference_lower_bounds` turn them into what ``GridIndex.expand_from``
and ``GridIndex.distance_lower_bound`` must answer.  Nothing in ``src/`` calls
any of them.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, Iterable, List, Tuple

from repro.errors import VertexNotFoundError
from repro.roadnet.graph import RoadNetwork, VertexId
from repro.roadnet.grid_index import CellId, GridIndex
from repro.roadnet.shortest_path import INFINITY


def multi_source_dijkstra(
    network: RoadNetwork, sources: Iterable[VertexId]
) -> Dict[VertexId, float]:
    """Return, for every reachable vertex, the distance to its *closest* source.

    Raises:
        VertexNotFoundError: if any source is unknown.
        ValueError: if ``sources`` is empty.
    """
    source_list = list(sources)
    if not source_list:
        raise ValueError("multi_source_dijkstra requires at least one source")
    for source in source_list:
        if source not in network:
            raise VertexNotFoundError(source)
    dist: Dict[VertexId, float] = {s: 0.0 for s in source_list}
    result: Dict[VertexId, float] = {}
    heap: List[Tuple[float, VertexId]] = [(0.0, s) for s in source_list]
    heapq.heapify(heap)
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


def reference_cell_order(index: GridIndex, cell_id: CellId) -> List[Tuple[float, CellId]]:
    """Every cell of ``index`` as ``(bound, cell id)``, sorted, with ties by cell id."""
    borders = index.cell(cell_id).border_vertices
    nearest = multi_source_dijkstra(index.network, borders) if borders else {}
    row = {
        other.cell_id: min(
            (nearest.get(border, INFINITY) for border in other.border_vertices),
            default=INFINITY,
        )
        for other in index.cells()
    }
    row[cell_id] = 0.0
    return sorted((bound, other_id) for other_id, bound in row.items())


def reference_expansion(index: GridIndex, cell_id: CellId) -> List[Tuple[float, CellId]]:
    """What ``index.expand_from(cell_id)`` must yield: the reference order
    without the cells no path reaches."""
    return [item for item in reference_cell_order(index, cell_id) if item[0] != INFINITY]


def reference_lower_bounds(index: GridIndex) -> Callable[[VertexId, VertexId], float]:
    """``index.distance_lower_bound`` rebuilt from whole-graph searches.

    ``v.min`` is one search from the border vertices of ``v``'s cell (0.0
    where none reaches ``v``); the cell bound is the reference row of the
    smaller vertex's cell, summed in the index's order.
    """
    network = index.network
    rows: Dict[CellId, Dict[CellId, float]] = {}
    vertex_min: Dict[VertexId, float] = {}
    for cell in index.cells():
        rows[cell.cell_id] = {
            other_id: bound for bound, other_id in reference_cell_order(index, cell.cell_id)
        }
        borders = cell.border_vertices
        nearest = multi_source_dijkstra(network, borders) if borders else {}
        for vertex in cell.vertices:
            vertex_min[vertex] = nearest.get(vertex, 0.0)

    def bound(u: VertexId, v: VertexId) -> float:
        if u == v:
            return 0.0
        a, b = (u, v) if u <= v else (v, u)
        cell_a = index.cell_of_vertex(a).cell_id
        cell_b = index.cell_of_vertex(b).cell_id
        if cell_a == cell_b:
            return 0.0
        return vertex_min[a] + rows[cell_a][cell_b] + vertex_min[b]

    return bound
