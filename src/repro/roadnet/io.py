"""The road network as a JSON-ready dict.

The durability journal stores the network it was opened over in its
metadata (:mod:`repro.service.api`), so a recovered service rebuilds the
same graph: vertices, coordinates and edges, weights as floats.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.errors import InvalidNetworkError
from repro.roadnet.graph import RoadNetwork

__all__ = ["network_to_dict", "network_from_dict"]


def network_to_dict(network: RoadNetwork) -> Dict[str, object]:
    """Return a JSON-serialisable representation of ``network``."""
    coordinates: Dict[str, Tuple[float, float]] = {}
    for vertex in network.vertices():
        try:
            point = network.coordinate(vertex)
        except InvalidNetworkError:
            continue
        coordinates[str(vertex)] = (point.x, point.y)
    return {
        "vertices": network.vertices(),
        "coordinates": coordinates,
        "edges": [[edge.u, edge.v, edge.weight] for edge in network.edges()],
    }


def network_from_dict(payload: Dict[str, object]) -> RoadNetwork:
    """Rebuild a network from the output of :func:`network_to_dict`."""
    network = RoadNetwork()
    for vertex in payload.get("vertices", []):
        network.add_vertex(int(vertex))
    for vertex, (x, y) in dict(payload.get("coordinates", {})).items():
        network.add_vertex(int(vertex), x=float(x), y=float(y))
    for u, v, weight in payload.get("edges", []):
        if int(u) not in network:
            network.add_vertex(int(u))
        if int(v) not in network:
            network.add_vertex(int(v))
        network.add_edge(int(u), int(v), float(weight))
    return network
