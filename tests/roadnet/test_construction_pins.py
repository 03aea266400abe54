"""What building a city produces, pinned as SHA-256 digests.

The grid index (cells, border vertices, ``vertex_cells``, ``v.min``), the
CSR arrays it computes on and the journal's network record are built once
per service, ``recover()`` and CLI run.  Their construction may be rewritten
for speed; their output may not move by a byte.  Each digest below is the
SHA-256 of a compact JSON rendering of one output, in the order the index
holds it, on the networks the benchmark, the property tests and the examples
build -- the two jittered grids of perfbench's workloads among them.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.roadnet.generators import arterial_grid_network, grid_network
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.grid_index import GridIndex
from repro.roadnet.io import network_from_dict, network_to_dict

from tests.routing_arms import PURE_PYTHON_TREES
from tests.routing_reference import random_geometric_network, ring_radial_network


def ragged_network() -> RoadNetwork:
    """Vertex ids out of order, an edge added high-to-low, a vertex without
    a coordinate and an isolated vertex."""
    network = RoadNetwork.from_edges(
        [(7, 3, 2.0), (3, 5, 1.5), (5, 7, 0.25), (5, 2, 3.0)],
        coordinates={7: (0.0, 1.0), 3: (2.5, -1.0), 2: (-0.5, 0.0)},
    )
    network.add_vertex(11, x=4.0, y=4.0)
    return network


#: name -> (network builder, grid cells per side)
CITIES = {
    "commute": (lambda: grid_network(50, 50, weight_jitter=0.3, seed=7000), 14),
    "dense": (lambda: grid_network(20, 20, weight_jitter=0.3, seed=7000), 6),
    "arterial": (lambda: arterial_grid_network(24, 24, weight_jitter=0.2, seed=3), 8),
    "geometric": (lambda: random_geometric_network(250, radius=0.12, seed=3), 7),
    "ring": (lambda: ring_radial_network(6, 16, seed=3, weight_jitter=0.2), 5),
}

GRID_PINS = {
    "commute": {
        "cells": "ee4999ef58ec6245254011f2e914a580566b199d097a19eb3f53ad93a7b13451",
        "vertex_cells": "feee293351f93f821f5d761bcb7b423856299b0ee484c280e108110cadff88ba",
        "vertex_min": "baa5405ace66e0f3f1e4d696b6c43efde4f3e51543792160459778e3d9f828ba",
        "csr": "498fe8fc6a7f88364496df0825247edc313763a8c4f0e69cdea10129b3034752",
    },
    "dense": {
        "cells": "134319764af9efcead2c8f413ee92ed006fd6a11a43c9d842fb67aedde43c08a",
        "vertex_cells": "347cb45be7e315472bfb684f5d835a72a200d3a0cc3230a0449cfd973d84dc26",
        "vertex_min": "110d5df037e8c2d1cd278e557de11b80cfeeaa4822d32de0ff51c6300673f11f",
        "csr": "b4d0e67d9b0b2d0fc1b8b46c7581744754d1ce80d938d52a6884df59c929b6de",
    },
    "arterial": {
        "cells": "56572745c6f5ab44db6f37d8d1347c38633b028266fc1546fb41ce8087ce71e5",
        "vertex_cells": "0d16828633807d95acb3cefa0697700cd3f72445e9e3b936e81dd95526760640",
        "vertex_min": "9c2a482d9a5f1f9a6537ff9c25563d9ea7374e6ea3cfd0035f4253a3cdb29460",
        "csr": "2826330ef18c06802d780ba0f45dd5484c509360c1f8a47b8e4971613488dbed",
    },
    "geometric": {
        "cells": "3c5965fb5e09254e1641e5d69bc373dbbd547b7d217c8edf065d4d4c8b760f9e",
        "vertex_cells": "dcd15ad90db611f6b0cf3b64e3131aa151daebfafb8e210fd80f8517a5b76353",
        "vertex_min": "40ddca21239aa4e1fda3be19aeb740b636a63f251cc483b37aab9c5a99eeeb22",
        "csr": "2c78bde71f22b6a3e7bc610666ad743828968a1f45bf8ce81e908b4fbf14fc5c",
    },
    "ring": {
        "cells": "6d542b74e50575bb0a2c868b42cd92e697307a19fca9af118856aed1d2020598",
        "vertex_cells": "9222cad9e85071bd639fd6e683322d46dd21bb3e2102a044c458c389a1238054",
        "vertex_min": "6ee2b8633112563393b9f85c91055a488f684b9fa165b00f06f60392ad6e87fa",
        "csr": "3aa804727ebd63c367060f4a20772f7fd4bf77dcb041172a2dae1f14797e3e3c",
    },
}

NETWORK_PINS = {
    "commute": "edae490c7b433ac06f9f7e198baca2f7b4180aa2976996f1b08a90090a7df5ce",
    "dense": "3d10947a94586f2abf893f4adf04fe16d90ae6edd7f15f9a182a7a49be6bc280",
    "arterial": "9979ae5bfc8d39eb9a3309ab09a661bc98ca3fdf553f0e9fe0c35f29e68642b3",
    "geometric": "e6dbf2d43967af5cec066de7178a36ec3ce4f19d632e4e4b855060d129365bff",
    "ring": "a76e159e92632e22f97ee61789c91fc0e43ba7a69d097e6865ff95a088286e09",
    "ragged": "079bcb50fd46a55b91d5b9af4c786ef3d528f65bb3c5e0320b3d5f6f922c22eb",
}


def digest(value: object) -> str:
    text = json.dumps(value, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def grid_digests(index: GridIndex) -> dict:
    graph = index._graph  # noqa: SLF001 - the arrays every bound is computed on
    return {
        "cells": digest(
            [[cell.cell_id, cell.vertices, cell.border_vertices] for cell in index.cells()]
        ),
        "vertex_cells": digest(list(index.vertex_cells.items())),
        "vertex_min": digest([[v, index.vertex_min(v)] for v in index.network.vertices()]),
        "csr": digest(
            [list(graph.vertex_ids), list(graph.indptr), list(graph.indices), list(graph.weights)]
        ),
    }


def network_text(network: RoadNetwork) -> str:
    return json.dumps(network_to_dict(network), separators=(",", ":"))


@pytest.mark.parametrize(
    "arm", ["scipy", pytest.param("python", marks=getattr(pytest.mark, PURE_PYTHON_TREES))]
)
@pytest.mark.parametrize("name", sorted(CITIES))
def test_grid_index_output_is_pinned(name: str, arm: str) -> None:
    build, cells = CITIES[name]
    index = GridIndex(build(), rows=cells, columns=cells)
    assert grid_digests(index) == GRID_PINS[name]


@pytest.mark.parametrize("name", sorted(CITIES) + ["ragged"])
def test_network_record_is_pinned_and_round_trips(name: str) -> None:
    network = ragged_network() if name == "ragged" else CITIES[name][0]()
    text = network_text(network)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == NETWORK_PINS[name]
    rebuilt = network_from_dict(json.loads(text))
    assert network_text(rebuilt) == text
    assert rebuilt.edge_count == network.edge_count
