"""Independent reference for the grid index's distance values.

``GridIndex`` computes ``v.min`` and every cell-pair lower-bound row with
:meth:`repro.roadnet.routing.CSRGraph.nearest` on a compiled graph.
:func:`multi_source_dijkstra` is what it used to run -- one whole-graph dict
search per cell -- kept here as the reference those values must equal
(``tests/property/test_grid_bounds.py``).  Nothing in ``src/`` calls it.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Tuple

from repro.errors import VertexNotFoundError
from repro.roadnet.graph import RoadNetwork, VertexId
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
