"""The grid index over the road network (Section 3.2.1 of the paper).

PTRider partitions the road network with a uniform grid.  Following the
paper, every grid cell maintains

1. a *border vertex* list -- vertices incident to an edge that leaves the
   cell;
2. a *vertex list* -- every vertex located in the cell, annotated with its
   shortest-path distance to each border vertex of the cell and with
   ``v.min`` (the minimum of those distances);
3. a *grid cell list* -- the other cells sorted in ascending order of the
   lower-bound distance from them to this cell;
4. an *empty vehicle list* -- vehicles currently in the cell with no assigned
   requests;
5. a *non-empty vehicle list* -- vehicles whose kinetic tree contains an edge
   that intersects the cell.

In addition, a matrix of lower-bound distances between every pair of grid
cells is maintained (realised lazily here, one row per cell the first time a
matcher touches it, so a service only pays for the rows it uses).

Every distance the index holds is computed on one :class:`CSRGraph` the index
compiles for itself -- in C where SciPy is installed, by the graph's own
array Dijkstra otherwise:

* ``v.min`` for *every* vertex comes from **one** ``CSRGraph.nearest`` pass at
  construction, seeded with the border vertices of all cells at once over a
  copy of the graph without its cell-crossing edges (a shortest path from a
  vertex to the nearest border vertex of its own cell never needs to leave
  the cell: where it came back in it would stand on a border vertex already);
* a lower-bound row is one ``CSRGraph.nearest(border vertices of the cell)``
  over the whole graph, minimised over each other cell's border vertices in
  one NumPy ``minimum.reduceat`` over the gathered border distances (a list
  comprehension of ``min`` where ``nearest`` hands back a plain list);
* the per-border annotation of ``precompute=True`` is one ``CSRGraph.trees``
  plane per cell.

A row is a list of floats indexed by cell *rank* -- the cell's row-major
position, which is also ``CellId`` tuple order -- and each cell's *grid cell
list* is one stable sort of the ranks by bound, so tied bounds keep cell-id
order.

The values and the cell orders are ``==`` to one whole-graph pure-Python
search per cell and a sort of ``(bound, cell id)`` tuples (the references in
``tests/grid_reference.py``), which ``tests/property/test_grid_bounds.py``
pins.

The crucial property the matchers rely on is **admissibility**: for any two
vertices ``u`` in cell ``g_i`` and ``v`` in cell ``g_j``,

    dist(u, v)  >=  u.min + lb(g_i, g_j) + v.min        (g_i != g_j)

because any path between them must cross a border vertex of ``g_i`` and a
border vertex of ``g_j``.  The property is verified by the property-based
tests in ``tests/property/test_grid_bounds.py``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from repro.errors import GridIndexError, InvalidNetworkError, VertexNotFoundError
from repro.roadnet.geometry import BoundingBox
from repro.roadnet.graph import RoadNetwork, VertexId
from repro.roadnet.routing import CSRGraph
from repro.roadnet.shortest_path import INFINITY

try:  # NumPy gathers a row's per-cell minima; the list arm needs nothing.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-accelerator leg
    _np = None

__all__ = ["CellId", "GridCell", "GridIndex"]

#: Grid cells are addressed by their (row, column) pair.
CellId = Tuple[int, int]


def _plain(distances):
    """A ``CSRGraph`` row or plane as plain Python floats (SciPy hands back ndarrays)."""
    return distances.tolist() if hasattr(distances, "tolist") else distances


@dataclass
class GridCell:
    """One cell of the grid partition, with the five lists of Fig. 1(b)."""

    cell_id: CellId
    box: BoundingBox
    vertices: List[VertexId] = field(default_factory=list)
    border_vertices: List[VertexId] = field(default_factory=list)
    #: vehicles with an empty request set currently located in this cell
    empty_vehicles: Set[str] = field(default_factory=set)
    #: vehicles with a non-empty request set whose schedule intersects this cell
    nonempty_vehicles: Set[str] = field(default_factory=set)

    @property
    def row(self) -> int:
        """Row of the cell in the grid."""
        return self.cell_id[0]

    @property
    def column(self) -> int:
        """Column of the cell in the grid."""
        return self.cell_id[1]

    @property
    def is_empty(self) -> bool:
        """``True`` when no road-network vertex lies in the cell."""
        return not self.vertices

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"GridCell(id={self.cell_id}, vertices={len(self.vertices)}, "
            f"borders={len(self.border_vertices)}, empty_vehicles={len(self.empty_vehicles)}, "
            f"nonempty_vehicles={len(self.nonempty_vehicles)})"
        )


class GridIndex:
    """Uniform grid partition of a road network with lower-bound distances.

    Args:
        network: the road network to index.  Every vertex must carry a planar
            coordinate.
        rows: number of grid rows.
        columns: number of grid columns.
        precompute: when ``True`` the full cell-pair lower-bound matrix and
            every per-vertex border-distance annotation are computed eagerly;
            when ``False`` (the default) rows of the matrix are computed on
            first use, which is what a city-scale deployment would do.

    Raises:
        InvalidNetworkError: if the network has no coordinates.
        GridIndexError: if ``rows`` or ``columns`` is not positive.
    """

    def __init__(
        self,
        network: RoadNetwork,
        rows: int,
        columns: int,
        precompute: bool = False,
    ) -> None:
        if rows <= 0 or columns <= 0:
            raise GridIndexError(f"grid dimensions must be positive, got {rows}x{columns}")
        started = time.perf_counter()
        network.validate(require_coordinates=True)
        self._network = network
        self._rows = rows
        self._columns = columns
        self._box = network.bounding_box()
        # Guard against degenerate (zero-width) boxes: give them a tiny extent
        # so every vertex still maps to a valid cell.
        width = self._box.width or 1.0
        height = self._box.height or 1.0
        self._cell_width = width / columns
        self._cell_height = height / rows
        # The compiled graph every distance of the index is computed on.
        self._graph = CSRGraph(network)

        self._cells: Dict[CellId, GridCell] = {}
        self._vertex_cell: Dict[VertexId, CellId] = {}
        #: per cell, the ``CSRGraph`` indices of its border vertices (same order)
        self._border_indices: Dict[CellId, List[int]] = {}
        self._vertex_min: Dict[VertexId, float] = {}
        self._border_distances: Dict[VertexId, Dict[VertexId, float]] = {}
        #: per cell, its bound to every cell, indexed by rank (row-major position)
        self._lower_bound_rows: Dict[CellId, List[float]] = {}
        #: per cell, every rank sorted by ascending bound (ties in rank order)
        self._cell_orders: Dict[CellId, List[int]] = {}
        #: ``(border indices of all cells, segment starts, ranks with borders)``
        #: as NumPy arrays, built with the first row ``nearest`` returns an ndarray for
        self._border_gather: Optional[tuple] = None

        self._build_cells()
        self._cell_list: List[GridCell] = list(self._cells.values())
        self._cell_rank: Dict[CellId, int] = {cell_id: rank for rank, cell_id in enumerate(self._cells)}
        self._identify_border_vertices()
        self._compute_vertex_minimums()
        if precompute:
            for cell_id in self._cells:
                self._cell_order(cell_id)
            self._compute_detailed_border_distances()
        self._build_seconds = time.perf_counter() - started

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def _build_cells(self) -> None:
        for row in range(self._rows):
            for column in range(self._columns):
                min_x = self._box.min_x + column * self._cell_width
                min_y = self._box.min_y + row * self._cell_height
                box = BoundingBox(
                    min_x,
                    min_y,
                    min_x + self._cell_width,
                    min_y + self._cell_height,
                )
                cell_id = (row, column)
                self._cells[cell_id] = GridCell(cell_id=cell_id, box=box)
        for vertex in self._network.vertices():
            cell_id = self._locate(self._network.coordinate(vertex).as_tuple())
            self._vertex_cell[vertex] = cell_id
            self._cells[cell_id].vertices.append(vertex)

    def _identify_border_vertices(self) -> None:
        vertex_cell = self._vertex_cell
        borders: Set[VertexId] = set()
        for edge in self._network.edges():
            if vertex_cell[edge.u] != vertex_cell[edge.v]:
                # The edge belongs to more than one grid cell, so both of its
                # endpoints are border vertices (Section 3.2.1).
                for vertex in (edge.u, edge.v):
                    if vertex not in borders:
                        borders.add(vertex)
                        self._cells[vertex_cell[vertex]].border_vertices.append(vertex)
        index_of = self._graph.index_of
        for cell_id, cell in self._cells.items():
            self._border_indices[cell_id] = [index_of[v] for v in cell.border_vertices]

    def _compute_vertex_minimums(self) -> None:
        """Compute ``v.min`` for every vertex of every cell in one multi-source pass.

        The pass runs over a copy of the graph that keeps only the edges with
        both endpoints in one cell, seeded with every border vertex of every
        cell.  That is exact: a path from a vertex to a border vertex of its
        own cell that leaves the cell comes back in over a crossing edge,
        whose inner endpoint is itself a border vertex of the cell, and the
        stretch from there on is no longer than the whole (adding a
        non-negative prefix never makes a left-to-right float sum smaller).
        So the minimum over all paths is reached by one that stays inside,
        seeds of other cells are never reached, and the label is the float a
        whole-graph search from this cell's border vertices settles.
        """
        graph = self._graph
        # A vertex no border vertex of its cell reaches -- the only populated
        # cell, an isolated component, a pocket cut off inside the cell -- can
        # never be pruned through the cell bound, so its v.min stays zero.
        self._vertex_min = dict.fromkeys(graph.vertex_ids, 0.0)
        seeds = [index for borders in self._border_indices.values() for index in borders]
        if not seeds:
            return
        cell_of = [self._vertex_cell[vertex] for vertex in graph.vertex_ids]
        graph_indptr, graph_indices, graph_weights = graph.indptr, graph.indices, graph.weights
        indptr, indices, weights = [0], [], []
        for u, cell_id in enumerate(cell_of):
            for k in range(graph_indptr[u], graph_indptr[u + 1]):
                v = graph_indices[k]
                if cell_of[v] == cell_id:
                    indices.append(v)
                    weights.append(graph_weights[k])
            indptr.append(len(indices))
        interior = CSRGraph.from_arrays(graph.vertex_ids, indptr, indices, weights)
        for vertex, distance in zip(graph.vertex_ids, _plain(interior.nearest(seeds))):
            if distance != INFINITY:
                self._vertex_min[vertex] = distance

    def _compute_detailed_border_distances(self) -> None:
        """Annotate every vertex with its distance to each border vertex of its cell."""
        index_of = self._graph.index_of
        for cell_id, cell in self._cells.items():
            borders = self._border_indices[cell_id]
            if not borders:
                continue
            members = [(vertex, index_of[vertex]) for vertex in cell.vertices]
            plane = _plain(self._graph.trees(borders))
            for border, tree in zip(cell.border_vertices, plane):
                for vertex, index in members:
                    if tree[index] != INFINITY:
                        self._border_distances.setdefault(vertex, {})[border] = tree[index]

    # ------------------------------------------------------------------
    # basic geometry / lookup
    # ------------------------------------------------------------------
    @property
    def network(self) -> RoadNetwork:
        """The indexed road network."""
        return self._network

    @property
    def rows(self) -> int:
        """Number of grid rows."""
        return self._rows

    @property
    def columns(self) -> int:
        """Number of grid columns."""
        return self._columns

    @property
    def cell_count(self) -> int:
        """Total number of grid cells (``rows * columns``)."""
        return self._rows * self._columns

    def _locate(self, point: Tuple[float, float]) -> CellId:
        column = int((point[0] - self._box.min_x) / self._cell_width)
        row = int((point[1] - self._box.min_y) / self._cell_height)
        column = min(max(column, 0), self._columns - 1)
        row = min(max(row, 0), self._rows - 1)
        return (row, column)

    def cell_of_point(self, point: Tuple[float, float]) -> GridCell:
        """Return the grid cell containing an arbitrary planar point."""
        return self._cells[self._locate(point)]

    def cell_of_vertex(self, vertex: VertexId) -> GridCell:
        """Return the grid cell containing ``vertex``.

        Raises:
            VertexNotFoundError: if the vertex is not indexed.
        """
        try:
            return self._cells[self._vertex_cell[vertex]]
        except KeyError:
            raise VertexNotFoundError(vertex) from None

    @property
    def vertex_cells(self) -> Mapping[VertexId, CellId]:
        """The *internal* ``{vertex: cell id}`` map (must not be mutated)."""
        return self._vertex_cell

    def cell(self, cell_id: CellId) -> GridCell:
        """Return the cell with identifier ``cell_id``.

        Raises:
            GridIndexError: if the identifier is outside the grid.
        """
        try:
            return self._cells[cell_id]
        except KeyError:
            raise GridIndexError(f"cell {cell_id} is outside the {self._rows}x{self._columns} grid") from None

    def cells(self) -> Iterator[GridCell]:
        """Iterate over every grid cell (row-major order)."""
        return iter(self._cells.values())

    def populated_cells(self) -> List[GridCell]:
        """Return only the cells that contain at least one vertex."""
        return [cell for cell in self._cells.values() if cell.vertices]

    def vertex_min(self, vertex: VertexId) -> float:
        """Return ``v.min``: the distance from ``vertex`` to its cell's nearest border vertex."""
        try:
            return self._vertex_min[vertex]
        except KeyError:
            raise VertexNotFoundError(vertex) from None

    def border_distances(self, vertex: VertexId) -> Dict[VertexId, float]:
        """Return the per-border-vertex distances stored for ``vertex``.

        Only populated when the index was built with ``precompute=True``
        (Fig. 1(b) keeps the full annotation; the lazily built index keeps
        only ``v.min`` which is all the pruning bounds need).
        """
        return dict(self._border_distances.get(vertex, {}))

    # ------------------------------------------------------------------
    # lower bounds
    # ------------------------------------------------------------------
    def _lower_bound_row(self, cell_id: CellId) -> List[float]:
        """Return (computing if necessary) lower bounds from ``cell_id`` to every cell, by rank."""
        row = self._lower_bound_rows.get(cell_id)
        if row is not None:
            return row
        borders = self._border_indices[cell_id]
        if not borders:
            # No border vertices: the cell is not connected to any other cell
            # through the road network (or it is the only populated cell).
            row = [INFINITY] * len(self._cell_list)
        else:
            nearest = self._graph.nearest(borders)
            if isinstance(nearest, list):
                lookup = nearest.__getitem__
                row = [
                    min(map(lookup, other_borders), default=INFINITY)
                    for other_borders in self._border_indices.values()
                ]
            else:
                flat, starts, ranks = self._gather_arrays()
                minima = _np.full(len(self._cell_list), INFINITY)
                minima[ranks] = _np.minimum.reduceat(nearest[flat], starts)
                row = minima.tolist()
        row[self._cell_rank[cell_id]] = 0.0
        self._lower_bound_rows[cell_id] = row
        return row

    def _gather_arrays(self) -> tuple:
        """Every cell's border indices back to back, in rank order, as NumPy arrays.

        ``reduceat`` cannot reduce an empty segment, so cells without border
        vertices get no segment; ``ranks`` says which cell each segment is.
        """
        if self._border_gather is None:
            flat: List[int] = []
            starts: List[int] = []
            ranks: List[int] = []
            for rank, borders in enumerate(self._border_indices.values()):
                if borders:
                    starts.append(len(flat))
                    ranks.append(rank)
                    flat.extend(borders)
            self._border_gather = (
                _np.asarray(flat, dtype=_np.intp),
                _np.asarray(starts, dtype=_np.intp),
                _np.asarray(ranks, dtype=_np.intp),
            )
        return self._border_gather

    def _cell_order(self, cell_id: CellId) -> List[int]:
        """Every rank sorted by ascending bound from ``cell_id`` (stable: ties in rank order)."""
        order = self._cell_orders.get(cell_id)
        if order is None:
            row = self._lower_bound_row(cell_id)
            order = sorted(range(len(row)), key=row.__getitem__)
            self._cell_orders[cell_id] = order
        return order

    def lower_bound_between_cells(self, cell_a: CellId, cell_b: CellId) -> float:
        """Return the lower-bound distance between two cells.

        The bound is the minimum shortest-path distance between any border
        vertex of ``cell_a`` and any border vertex of ``cell_b`` (0 for the
        same cell, ``inf`` when the cells are not connected).

        Raises:
            GridIndexError: if either identifier is outside the grid.
        """
        if cell_a not in self._cells or cell_b not in self._cells:
            missing = cell_a if cell_a not in self._cells else cell_b
            raise GridIndexError(f"cell {missing} is outside the {self._rows}x{self._columns} grid")
        if cell_a == cell_b:
            return 0.0
        return self._lower_bound_row(cell_a)[self._cell_rank[cell_b]]

    def distance_lower_bound(self, u: VertexId, v: VertexId) -> float:
        """Return an admissible lower bound on ``dist(u, v)``.

        The bound is ``0`` when both vertices share a cell, otherwise
        ``u.min + lb(cell(u), cell(v)) + v.min``.  The pair is
        order-normalised first (the cell-row choice is rooted at the smaller
        vertex), so the answer is the same whichever direction a leg is asked
        in.  Nothing is memoised: the callers (the matchers' vehicle
        screening) repeat a pair 1.2 to 2.7 times a day, which does not pay
        for a dict of pairs.
        """
        if u == v:
            return 0.0
        a, b = (u, v) if u <= v else (v, u)
        cell_a = self._vertex_cell.get(a)
        cell_b = self._vertex_cell.get(b)
        if cell_a is None:
            raise VertexNotFoundError(a)
        if cell_b is None:
            raise VertexNotFoundError(b)
        if cell_a == cell_b:
            return 0.0
        # an infinite cell bound (cells not connected) stays infinite
        bound = self._lower_bound_row(cell_a)[self._cell_rank[cell_b]]
        return self._vertex_min[a] + bound + self._vertex_min[b]

    def cells_in_lower_bound_order(self, cell_id: CellId) -> List[Tuple[float, CellId]]:
        """Return every cell as ``(bound, cell id)``, by ascending bound from ``cell_id``.

        This is the *grid cell list* of Fig. 1(b); the single-side and
        dual-side searches expand cells in exactly this order.  Tied bounds
        keep cell-id order.  The list is the caller's own.
        """
        row = self._lower_bound_row(cell_id)
        cells = self._cell_list
        return [(row[rank], cells[rank].cell_id) for rank in self._cell_order(cell_id)]

    def expand_from(self, cell_id: CellId) -> Iterator[Tuple[float, GridCell]]:
        """Yield ``(lower_bound, cell)`` pairs in ascending lower-bound order.

        Unreachable cells (infinite lower bound) sort last and are not yielded.
        """
        row = self._lower_bound_row(cell_id)
        cells = self._cell_list
        for rank in self._cell_order(cell_id):
            bound = row[rank]
            if bound == INFINITY:
                return
            yield bound, cells[rank]

    # ------------------------------------------------------------------
    # vehicle bookkeeping (used by repro.vehicles.fleet)
    # ------------------------------------------------------------------
    def register_empty_vehicle(self, vehicle_id: str, vertex: VertexId) -> CellId:
        """Place an empty vehicle in the cell of ``vertex`` and return that cell id."""
        cell = self.cell_of_vertex(vertex)
        cell.empty_vehicles.add(vehicle_id)
        return cell.cell_id

    def unregister_empty_vehicle(self, vehicle_id: str, cell_id: CellId) -> None:
        """Remove an empty vehicle from ``cell_id`` (no-op when absent)."""
        self.cell(cell_id).empty_vehicles.discard(vehicle_id)

    def register_nonempty_vehicle(self, vehicle_id: str, cell_ids: Iterable[CellId]) -> None:
        """Add a non-empty vehicle to every cell its schedule intersects."""
        for cell_id in cell_ids:
            self.cell(cell_id).nonempty_vehicles.add(vehicle_id)

    def unregister_nonempty_vehicle(self, vehicle_id: str, cell_ids: Iterable[CellId]) -> None:
        """Remove a non-empty vehicle from the given cells (no-op when absent)."""
        for cell_id in cell_ids:
            self.cell(cell_id).nonempty_vehicles.discard(vehicle_id)

    def cells_on_path(self, path: Sequence[VertexId]) -> Set[CellId]:
        """Return the ids of every cell containing a vertex of ``path``.

        The paper registers a kinetic-tree edge with every cell its shortest
        path intersects; callers therefore pass the expanded vertex sequence
        of the path, not just its endpoints.
        """
        cells: Set[CellId] = set()
        for vertex in path:
            cell_id = self._vertex_cell.get(vertex)
            if cell_id is None:
                raise VertexNotFoundError(vertex)
            cells.add(cell_id)
        return cells

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, float]:
        """Return basic statistics about the index (used by the admin view)."""
        populated = self.populated_cells()
        border_total = sum(len(cell.border_vertices) for cell in populated)
        return {
            "rows": float(self._rows),
            "columns": float(self._columns),
            "cells": float(self.cell_count),
            "populated_cells": float(len(populated)),
            "border_vertices": float(border_total),
            "vertices": float(self._network.vertex_count),
            "edges": float(self._network.edge_count),
            # cold-start cost made visible: rows computed so far (one per cell
            # at most, on first touch) and what construction took
            "lower_bound_rows": float(len(self._lower_bound_rows)),
            "build_seconds": self._build_seconds,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"GridIndex(rows={self._rows}, columns={self._columns}, vertices={self._network.vertex_count})"
