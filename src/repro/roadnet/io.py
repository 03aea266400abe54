"""The road network as a JSON-ready dict.

The durability journal stores the network it was opened over in its
metadata (:mod:`repro.service.api`), so a recovered service rebuilds the
same graph: vertices, coordinates and edges, weights as floats.  The record
is read straight off the network's adjacency and coordinate maps, and its
JSON text is pinned byte for byte (``tests/roadnet/test_construction_pins.py``).
"""

from __future__ import annotations

from typing import Dict

from repro.roadnet.graph import RoadNetwork

__all__ = ["network_to_dict", "network_from_dict"]


def network_to_dict(network: RoadNetwork) -> Dict[str, object]:
    """Return a JSON-serialisable representation of ``network``.

    The vertices in insertion order, the coordinates of those that have
    one (keyed by the vertex id as a string, in the same order), and every
    undirected edge once as ``[u, v, weight]`` with ``u < v``, in adjacency
    order.
    """
    adjacency, points = network.adjacency, map(network.coordinates.get, network.adjacency)
    return {
        "vertices": list(adjacency),
        "coordinates": {str(v): (p.x, p.y) for v, p in zip(adjacency, points) if p is not None},
        "edges": [[u, v, w] for u, ends in adjacency.items() for v, w in ends.items() if u < v],
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
