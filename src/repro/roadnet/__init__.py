"""Road-network substrate for PTRider.

The subpackage provides everything PTRider needs to know about the static
road network:

* :mod:`repro.roadnet.graph` -- the weighted road graph itself;
* :mod:`repro.roadnet.geometry` -- planar embedding helpers;
* :mod:`repro.roadnet.shortest_path` -- the path search, the full Dijkstra
  expansion and a memoising distance oracle;
* :mod:`repro.roadnet.routing` -- the pluggable routing engines (the dict
  Dijkstra reference backend, the CSR array backend, the ALT landmark
  lower-bound index, the all-pairs table and the contraction hierarchy)
  every distance/path query goes through;
* :mod:`repro.roadnet.artifacts` -- the persisted compiled-artifact cache
  (content-hash-keyed ``.npz`` files) that lets restarts skip routing
  preprocessing;
* :mod:`repro.roadnet.grid_index` -- the grid partition index of Section 3.2.1
  of the paper (border vertices, ``v.min``, cell-pair lower bounds, sorted
  grid lists, per-cell vehicle lists);
* :mod:`repro.roadnet.generators` -- synthetic network builders, including the
  17-vertex example network of Figure 1;
* :mod:`repro.roadnet.io` -- persistence of networks to edge lists and JSON.
"""

from repro.roadnet.geometry import BoundingBox, Point, euclidean_distance, haversine_distance
from repro.roadnet.graph import Edge, RoadNetwork
from repro.roadnet.grid_index import GridCell, GridIndex
from repro.roadnet.shortest_path import DistanceOracle, PathResult, dijkstra_all, shortest_path
from repro.roadnet.artifacts import ArtifactCache, network_fingerprint
from repro.roadnet.routing import (
    ROUTING_BACKENDS,
    ALTIndex,
    CHEngine,
    ContractionHierarchy,
    CSREngine,
    CSRGraph,
    DictDijkstraEngine,
    RoutingEngine,
    TableEngine,
    ensure_engine,
    make_engine,
)
from repro.roadnet.generators import (
    arterial_grid_network,
    figure1_network,
    grid_network,
    random_geometric_network,
    ring_radial_network,
)

__all__ = [
    "ALTIndex",
    "ArtifactCache",
    "BoundingBox",
    "CHEngine",
    "ContractionHierarchy",
    "CSREngine",
    "CSRGraph",
    "DictDijkstraEngine",
    "DistanceOracle",
    "Edge",
    "ROUTING_BACKENDS",
    "RoutingEngine",
    "GridCell",
    "GridIndex",
    "PathResult",
    "Point",
    "RoadNetwork",
    "TableEngine",
    "arterial_grid_network",
    "ensure_engine",
    "make_engine",
    "dijkstra_all",
    "euclidean_distance",
    "figure1_network",
    "network_fingerprint",
    "grid_network",
    "haversine_distance",
    "random_geometric_network",
    "ring_radial_network",
    "shortest_path",
]
