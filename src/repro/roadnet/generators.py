"""Synthetic road-network builders.

PTRider was demonstrated on the Shanghai road network, which is not
redistributable.  These generators produce planar, connected, positively
weighted networks with the structural features the matchers care about
(bounded degree, grid-like locality, non-uniform edge lengths) at any scale,
so every experiment in ``benchmarks/`` can run on a laptop.

:func:`figure1_network` reconstructs the 17-vertex example of Figure 1 of the
paper.  The published figure is a hand-drawn sketch whose exact edge weights
cannot be recovered from the text, so the reconstruction instead satisfies
every *quantitative* statement the paper makes about the example:

* ``dist(v1, v2) + dist(v2, v12) = 14``  (pick-up distance of ``c1``),
* ``dist(v13, v12) = 8``                 (pick-up distance of ``c2``),
* ``dist(v12, v17) = 7``                 (so the price of ``c2`` is 8.8),
* ``dist(v2, v12) + dist(v12, v16) + dist(v16, v17) - dist(v2, v16) = 3``
  (so the price of ``c1`` is 4).

``tests/core/test_paper_example.py`` asserts that the worked example of
Section 2 reproduces exactly on this network.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.roadnet.graph import RoadNetwork

__all__ = [
    "grid_network",
    "arterial_grid_network",
    "figure1_network",
    "FIGURE1_VEHICLE_POSITIONS",
]


def grid_network(
    rows: int,
    columns: int,
    spacing: float = 1.0,
    weight_jitter: float = 0.0,
    seed: Optional[int] = None,
) -> RoadNetwork:
    """Build a Manhattan-style grid road network.

    Vertices are numbered ``1 .. rows * columns`` in row-major order and are
    placed ``spacing`` apart.  Every horizontal and vertical neighbour pair is
    connected.  With ``weight_jitter > 0`` each edge weight is drawn uniformly
    from ``[spacing, spacing * (1 + weight_jitter)]`` which keeps the planar
    embedding an (Euclidean) lower bound of the travel cost.

    Args:
        rows: number of vertex rows (>= 1).
        columns: number of vertex columns (>= 1).
        spacing: distance between adjacent vertices.
        weight_jitter: relative upper bound of the random weight inflation.
        seed: seed for the jitter; ignored when ``weight_jitter == 0``.

    Returns:
        A connected :class:`RoadNetwork` with coordinates on every vertex.
    """
    if rows < 1 or columns < 1:
        raise ConfigurationError(f"grid dimensions must be >= 1, got {rows}x{columns}")
    if spacing <= 0:
        raise ConfigurationError(f"spacing must be positive, got {spacing}")
    if weight_jitter < 0:
        raise ConfigurationError(f"weight_jitter must be non-negative, got {weight_jitter}")

    rng = random.Random(seed)
    network = RoadNetwork()

    def vertex_id(row: int, column: int) -> int:
        return row * columns + column + 1

    for row in range(rows):
        for column in range(columns):
            network.add_vertex(vertex_id(row, column), x=column * spacing, y=row * spacing)

    def weight() -> float:
        if weight_jitter == 0:
            return spacing
        return spacing * (1.0 + rng.uniform(0.0, weight_jitter))

    for row in range(rows):
        for column in range(columns):
            current = vertex_id(row, column)
            if column + 1 < columns:
                network.add_edge(current, vertex_id(row, column + 1), weight())
            if row + 1 < rows:
                network.add_edge(current, vertex_id(row + 1, column), weight())
    return network


def arterial_grid_network(
    rows: int,
    columns: int,
    spacing: float = 1.0,
    weight_jitter: float = 0.0,
    arterial_every: int = 7,
    local_factor: float = 3.0,
    seed: Optional[int] = None,
) -> RoadNetwork:
    """A Manhattan grid with fast arterial roads every ``arterial_every`` lines.

    Real city networks are not uniform grids: a sparse skeleton of arterials
    carries most shortest paths while local streets are slow.  This generator
    reproduces that structure -- edges lying on every ``arterial_every``-th
    row/column keep the base grid weight while all other ("local") edges are
    ``local_factor`` times more expensive -- which is exactly the *highway
    hierarchy* that makes contraction-based routing effective and makes the
    network a fair stand-in for an OSM extract.  Local weights stay >=
    ``spacing``, so the planar embedding remains an Euclidean lower bound of
    travel cost like :func:`grid_network`'s.

    Args:
        rows / columns / spacing / weight_jitter / seed: as
            :func:`grid_network` (which this builds on).
        arterial_every: period of the arterial rows/columns (>= 1;
            ``1`` degenerates to a plain grid).
        local_factor: weight multiplier of non-arterial edges (>= 1).

    Returns:
        A connected :class:`RoadNetwork` with coordinates on every vertex.
    """
    if arterial_every < 1:
        raise ConfigurationError(
            f"arterial_every must be >= 1, got {arterial_every}"
        )
    if local_factor < 1:
        raise ConfigurationError(f"local_factor must be >= 1, got {local_factor}")
    network = grid_network(
        rows, columns, spacing=spacing, weight_jitter=weight_jitter, seed=seed
    )
    for edge in list(network.edges()):
        row_u, column_u = divmod(edge.u - 1, columns)
        row_v, column_v = divmod(edge.v - 1, columns)
        on_arterial = (
            row_u % arterial_every == 0 and row_v % arterial_every == 0
        ) or (column_u % arterial_every == 0 and column_v % arterial_every == 0)
        if not on_arterial:
            network.add_edge(edge.u, edge.v, edge.weight * local_factor)
    return network


#: Starting locations of the two example vehicles of Section 2.5 of the paper.
FIGURE1_VEHICLE_POSITIONS: Dict[str, int] = {"c1": 1, "c2": 13}


def figure1_network() -> RoadNetwork:
    """Reconstruct the 17-vertex example road network of Figure 1.

    See the module docstring for the reconstruction contract.  Vertex ``i`` of
    the paper is vertex ``i`` here (1-based).
    """
    coordinates: Dict[int, Tuple[float, float]] = {
        1: (0.0, 0.0),
        2: (8.0, 0.0),
        3: (0.0, 4.0),
        4: (4.0, 4.0),
        5: (8.0, 4.0),
        6: (11.0, 4.0),
        7: (14.0, 4.0),
        8: (18.0, 4.0),
        9: (21.0, 4.0),
        10: (4.0, 8.0),
        11: (8.0, 8.0),
        12: (14.0, 0.0),
        13: (14.0, 8.0),
        14: (18.0, 8.0),
        15: (21.0, 8.0),
        16: (18.0, 0.0),
        17: (21.0, 0.0),
    }
    edges: List[Tuple[int, int, float]] = [
        # backbone realising the worked-example distances
        (1, 2, 8.0),
        (2, 12, 6.0),
        (12, 16, 4.0),
        (16, 17, 3.0),
        (12, 13, 8.0),
        # northern corridor
        (1, 3, 4.0),
        (3, 4, 4.0),
        (4, 2, 6.0),
        (4, 5, 4.0),
        (2, 5, 4.0),
        (5, 6, 3.0),
        (6, 7, 3.0),
        (7, 12, 4.0),
        (7, 13, 4.0),
        (7, 8, 4.0),
        (8, 16, 4.0),
        (8, 9, 3.0),
        (9, 17, 4.0),
        # upper row
        (4, 10, 4.0),
        (10, 11, 4.0),
        (5, 11, 4.0),
        (13, 14, 4.0),
        (8, 14, 4.0),
        (14, 15, 3.0),
        (9, 15, 4.0),
    ]
    return RoadNetwork.from_edges(edges, coordinates=coordinates)
