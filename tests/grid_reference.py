"""Independent reference for the grid index's distance values and cell orders.

``GridIndex`` computes ``v.min`` and every cell-pair lower-bound row with
:meth:`repro.roadnet.routing.CSRGraph.nearest` on a compiled graph.
:func:`multi_source_dijkstra` is what it used to run -- one whole-graph dict
search per cell -- kept here as the reference those values must equal
(``tests/property/test_grid_bounds.py``).  :func:`reference_cell_order` is the
*grid cell list* as it used to be built: a ``{cell id: bound}`` row and a sort
of ``(bound, cell id)`` tuples.  Nothing in ``src/`` calls either.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Tuple

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
