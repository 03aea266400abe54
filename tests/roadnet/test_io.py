"""Unit tests for the road network's dict codec."""

from __future__ import annotations

import json

from repro.roadnet.generators import figure1_network, grid_network
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.io import network_from_dict, network_to_dict


def networks_equal(a: RoadNetwork, b: RoadNetwork) -> bool:
    if sorted(a.vertices()) != sorted(b.vertices()):
        return False
    edges_a = {(e.key(), e.weight) for e in a.edges()}
    edges_b = {(e.key(), e.weight) for e in b.edges()}
    return edges_a == edges_b


class TestJson:
    def test_dict_round_trip(self):
        network = figure1_network()
        rebuilt = network_from_dict(network_to_dict(network))
        assert networks_equal(network, rebuilt)
        assert tuple(rebuilt.coordinate(1)) == tuple(network.coordinate(1))

    def test_dict_without_coordinates(self):
        network = RoadNetwork.from_edges([(1, 2, 1.0)])
        payload = network_to_dict(network)
        assert payload["coordinates"] == {}
        rebuilt = network_from_dict(payload)
        assert networks_equal(network, rebuilt)

    def test_edge_endpoints_missing_from_the_vertex_list_are_added(self):
        rebuilt = network_from_dict({"vertices": [1], "edges": [[1, 2, 1], [3, 2, 2.5]]})
        assert sorted(rebuilt.vertices()) == [1, 2, 3]
        assert rebuilt.edge_weight(2, 3) == 2.5
        assert isinstance(rebuilt.edge_weight(1, 2), float)

    def test_payload_survives_json_text(self):
        network = grid_network(3, 4, weight_jitter=0.3, seed=2)
        network.add_vertex(99)  # an isolated vertex without a coordinate
        text = json.dumps(network_to_dict(network))
        rebuilt = network_from_dict(json.loads(text))
        assert networks_equal(network, rebuilt)
        assert 99 in rebuilt and rebuilt.neighbours(99) == {}
        for vertex in network.vertices():
            if vertex != 99:
                assert rebuilt.coordinate(vertex) == network.coordinate(vertex)
