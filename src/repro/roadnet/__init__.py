"""Road-network substrate for PTRider.

The subpackage provides everything PTRider needs to know about the static
road network:

* :mod:`repro.roadnet.graph` -- the weighted road graph itself;
* :mod:`repro.roadnet.geometry` -- planar embedding helpers;
* :mod:`repro.roadnet.shortest_path` -- the two tree walks every routing
  answer ends in;
* :mod:`repro.roadnet.routing` -- the CSR routing engine (with its optional
  ALT landmark lower-bound index) every distance/path query goes through;
* :mod:`repro.roadnet.grid_index` -- the grid partition index of Section 3.2.1
  of the paper (border vertices, ``v.min``, cell-pair lower bounds, sorted
  grid lists, per-cell vehicle lists);
* :mod:`repro.roadnet.generators` -- synthetic network builders, including the
  17-vertex example network of Figure 1;
* :mod:`repro.roadnet.io` -- the network's dict codec (durable metadata).
"""

from repro.roadnet.geometry import BoundingBox, Point, euclidean_distance
from repro.roadnet.graph import Edge, RoadNetwork
from repro.roadnet.grid_index import GridCell, GridIndex
from repro.roadnet.shortest_path import PathResult, shortest_path
from repro.roadnet.routing import (
    ROUTING_BACKENDS,
    ALTIndex,
    CSREngine,
    CSRGraph,
    RoutingEngine,
    make_engine,
)
from repro.roadnet.generators import (
    arterial_grid_network,
    figure1_network,
    grid_network,
)

__all__ = [
    "ALTIndex",
    "BoundingBox",
    "CSREngine",
    "CSRGraph",
    "Edge",
    "ROUTING_BACKENDS",
    "RoutingEngine",
    "GridCell",
    "GridIndex",
    "PathResult",
    "Point",
    "RoadNetwork",
    "arterial_grid_network",
    "make_engine",
    "euclidean_distance",
    "figure1_network",
    "grid_network",
    "shortest_path",
]
