"""The grid index over the road network (Section 3.2.1 of the paper).

PTRider partitions the road network with a uniform grid.  Following the
paper, every grid cell maintains

1. a *border vertex* list -- vertices incident to an edge that leaves the
   cell;
2. a *vertex list* -- every vertex located in the cell, annotated with
   ``v.min``, its shortest-path distance to the cell's nearest border vertex
   (the paper annotates every border distance; the bounds need only their
   minimum, so that is all the index keeps);
3. a *grid cell list* -- the other cells sorted in ascending order of the
   lower-bound distance from them to this cell;
4. an *empty vehicle list* -- vehicles currently in the cell with no assigned
   requests;
5. a *non-empty vehicle list* -- vehicles whose kinetic tree contains an edge
   that intersects the cell.

In addition, a matrix of lower-bound distances between every pair of grid
cells is maintained (realised lazily here, one row per cell the first time a
matcher touches it, and only out to the reach the reader asks for, so a
service only pays for the rows -- and the stretch of each row -- it uses).

Every distance the index holds is computed on one :class:`CSRGraph` the index
compiles for itself -- in C where SciPy is installed, by the graph's own
array Dijkstra otherwise:

* ``v.min`` for *every* vertex comes from **one** ``CSRGraph.nearest`` pass at
  construction, seeded with the border vertices of all cells at once over
  the ``subgraph`` without the cell-crossing edges (a shortest path from a
  vertex to the nearest border vertex of its own cell never needs to leave
  the cell: where it came back in it would stand on a border vertex already);
* a lower-bound row is one ``CSRGraph.nearest(border vertices of the cell,
  limit=reach)`` over the whole graph, minimised over each other cell's
  border vertices in one NumPy ``minimum.reduceat`` over the gathered border
  distances (a list comprehension of ``min`` where ``nearest`` hands back an
  ``array('d')``).

Rows have a reach.  The single-side walk expands cells only until a bound
passes the pick-up cap (Section 3.3), so it and its empty-taxi probe ask for
a row out to the cap; every other reader asks for the full row (reach
``INFINITY``).  A search with a limit settles every vertex within it through
the same relaxations as a full one, so every entry within the reach is the
full row's float bit for bit; an entry past it reads ``INFINITY`` -- not
searched, rather than unreachable -- and a read that lands there completes
the row as a full search.  So :meth:`GridIndex.distance_lower_bound` always
answers the full row's value, and :meth:`GridIndex.expand_from` with a
``within`` yields the full expansion's prefix.  Whether the full expansion
would go on past it, :meth:`GridIndex.reaches_beyond` answers from connected
components labelled once per index, without a search.

The rest of construction is one pass over the coordinate map (vertex to
cell) and one over the compiled graph's CSR positions (which edges cross a
cell boundary; their endpoints are the border vertices, in the order
``RoadNetwork.edges`` would yield them) -- no ``Edge`` objects and no checked
``coordinate()`` per vertex.  ``tests/roadnet/test_construction_pins.py``
pins every list and map it builds, in order, as digests.

A row is a list of floats indexed by cell *rank* -- the cell's row-major
position, which is also ``CellId`` tuple order -- and each cell's *grid cell
list* is one stable sort of the ranks its row bounds finitely, by bound, so
tied bounds keep cell-id order.

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
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain, compress, repeat
from operator import eq, not_, sub
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

    Rows of the cell-pair lower-bound matrix are computed on first use, out
    to the reach the reader asks for.

    Raises:
        InvalidNetworkError: if the network has no coordinates.
        GridIndexError: if ``rows`` or ``columns`` is not positive.
    """

    def __init__(
        self,
        network: RoadNetwork,
        rows: int,
        columns: int,
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

        #: per cell, ``(reach, row)``: its bound to every cell, indexed by rank
        #: (row-major position), searched out to ``reach``
        self._lower_bound_rows: Dict[CellId, Tuple[float, List[float]]] = {}
        #: per cell, the ranks its held row bounds finitely, by ascending bound
        #: (ties in rank order)
        self._cell_orders: Dict[CellId, List[int]] = {}
        #: per rank, how many cells its full row bounds finitely (labelled on
        #: the first :meth:`reaches_beyond` call with a finite reach)
        self._reachable: Optional[List[int]] = None
        #: :meth:`reaches_beyond`'s answers by ``(cell, within)``
        self._beyond: Dict[Tuple[CellId, float], bool] = {}
        #: row searches run so far, out to a finite reach and in full
        self.bounded_row_searches = 0
        self.full_row_searches = 0
        #: ``(border indices of all cells, segment starts, ranks with borders)``
        #: as NumPy arrays, built with the first row ``nearest`` returns an ndarray for
        self._border_gather: Optional[tuple] = None

        self._cells: Dict[CellId, GridCell] = {}
        ranks = self._build_cells()
        self._cell_list: List[GridCell] = list(self._cells.values())
        self._cell_rank: Dict[CellId, int] = {cell_id: rank for rank, cell_id in enumerate(self._cells)}
        self._compute_vertex_minimums(self._identify_border_vertices(ranks))
        self._build_seconds = time.perf_counter() - started

    # ------------------------------------------------------------------
    # construction helpers: one pass each over the compiled graph's arrays
    # and the network's coordinate map, in vertex (and neighbour) order
    # ------------------------------------------------------------------
    def _build_cells(self) -> List[int]:
        """Create the cells in row-major order and file every vertex in its
        own; return every vertex's cell rank, by graph index."""
        box, width, height = self._box, self._cell_width, self._cell_height
        min_x, min_y = box.min_x, box.min_y
        for row in range(self._rows):
            for column in range(self._columns):
                left, bottom = min_x + column * width, min_y + row * height
                self._cells[(row, column)] = GridCell(
                    (row, column), BoundingBox(left, bottom, left + width, bottom + height)
                )
        vertex_ids = self._graph.vertex_ids
        columns, last_row, last_column = self._columns, self._rows - 1, self._columns - 1
        ranks: List[int] = []
        for point in map(self._network.coordinates.__getitem__, vertex_ids):
            # never negative (the box is the tightest around every point); the
            # far edge lands one past the last cell and is clamped back
            column, row = int((point.x - min_x) / width), int((point.y - min_y) / height)
            ranks.append(
                (row if row < last_row else last_row) * columns
                + (column if column < last_column else last_column)
            )
        cell_ids, cells = list(self._cells), list(self._cells.values())
        self._vertex_cell: Dict[VertexId, CellId] = dict(zip(vertex_ids, map(cell_ids.__getitem__, ranks)))
        for vertex, rank in zip(vertex_ids, ranks):
            cells[rank].vertices.append(vertex)
        return ranks

    def _identify_border_vertices(self, ranks: List[int]) -> List[bool]:
        """File each cell's border vertices; return, per CSR position, whether
        the edge stays inside its cell.

        An edge that leaves its cell belongs to more than one grid cell, so
        both of its endpoints are border vertices (Section 3.2.1).  They are
        taken edge by edge -- each undirected edge once, from its smaller
        endpoint, in adjacency order -- ``u`` before ``v``.
        """
        vertex_ids, indptr, indices = self._graph.vertex_ids, self._graph.indptr, self._graph.indices
        degrees = map(sub, indptr[1:], indptr)
        tails = list(chain.from_iterable(map(repeat, range(len(vertex_ids)), degrees)))
        inside = list(map(eq, map(ranks.__getitem__, tails), map(ranks.__getitem__, indices)))
        border_indices: List[List[int]] = [[] for _ in self._cell_list]
        seen: Set[int] = set()
        for position in compress(range(len(inside)), map(not_, inside)):
            u, v = tails[position], indices[position]
            if vertex_ids[u] < vertex_ids[v]:
                if u not in seen:
                    seen.add(u)
                    border_indices[ranks[u]].append(u)
                if v not in seen:
                    seen.add(v)
                    border_indices[ranks[v]].append(v)
        for cell, borders in zip(self._cell_list, border_indices):
            cell.border_vertices = list(map(vertex_ids.__getitem__, borders))
        #: per cell, the ``CSRGraph`` indices of its border vertices (same order)
        self._border_indices: Dict[CellId, List[int]] = dict(zip(self._cells, border_indices))
        return inside

    def _compute_vertex_minimums(self, inside: List[bool]) -> None:
        """Compute ``v.min`` for every vertex of every cell in one multi-source pass.

        The pass runs over the subgraph of the ``inside`` edges -- those with
        both endpoints in one cell -- seeded with every border vertex of every
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
        seeds = [index for borders in self._border_indices.values() for index in borders]
        # A vertex no border vertex of its cell reaches -- the only populated
        # cell, an isolated component, a pocket cut off inside the cell -- can
        # never be pruned through the cell bound, so its v.min stays zero.
        distances = graph.subgraph(inside).nearest(seeds).tolist() if seeds else ()
        self._vertex_min: Dict[VertexId, float] = dict.fromkeys(graph.vertex_ids, 0.0)
        self._vertex_min.update(
            (vertex, distance)
            for vertex, distance in zip(graph.vertex_ids, distances)
            if distance != INFINITY
        )

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

    # ------------------------------------------------------------------
    # lower bounds
    # ------------------------------------------------------------------
    def _lower_bound_row(
        self, cell_id: CellId, reach: float = INFINITY
    ) -> Tuple[float, List[float]]:
        """Return ``(reach, row)``: the bounds from ``cell_id`` to every cell, by
        rank, searched out to at least ``reach`` (computing them if necessary).

        The one row builder: ``CSRGraph.nearest(border vertices, limit=reach)``
        and each cell's minimum over its border vertices.  Every entry up to
        the row's reach is the full row's float; an entry past it reads
        ``INFINITY`` -- *not searched* while the reach is finite, unreachable
        once it is not.  A row held with a shorter reach is searched again,
        out to ``reach``; the full row is ``reach = INFINITY``.
        """
        held = self._lower_bound_rows.get(cell_id)
        if held is not None and held[0] >= reach:
            return held
        borders = self._border_indices[cell_id]
        if not borders:
            # No border vertices: the cell is not connected to any other cell
            # through the road network (or it is the only populated cell), so
            # the row is whole at any reach.
            reach = INFINITY
            row = [INFINITY] * len(self._cell_list)
        else:
            if reach == INFINITY:
                self.full_row_searches += 1
            else:
                self.bounded_row_searches += 1
            nearest = self._graph.nearest(borders, limit=reach)
            if isinstance(nearest, array):
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
        held = self._lower_bound_rows[cell_id] = (reach, row)
        self._cell_orders.pop(cell_id, None)
        return held

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
        """The ranks the held row of ``cell_id`` has a finite bound for, by
        ascending bound (stable: ties in rank order) -- a prefix of the full
        row's order, since every bound past the reach is larger."""
        order = self._cell_orders.get(cell_id)
        if order is None:
            row = self._lower_bound_rows[cell_id][1]
            finite = compress(range(len(row)), map(INFINITY.__gt__, row))
            order = sorted(finite, key=row.__getitem__)
            self._cell_orders[cell_id] = order
        return order

    def _reachable_counts(self) -> List[int]:
        """Per rank, how many finite bounds the cell's full row holds: its own
        and one per cell with a border vertex in a connected component that
        one of its own border vertices lies in.  Labelled once per index."""
        if self._reachable is None:
            labels = self._graph.components()
            touched = [
                frozenset(map(labels.__getitem__, borders))
                for borders in self._border_indices.values()
            ]
            ranks_in: Dict[int, Set[int]] = {}
            for rank, components in enumerate(touched):
                for component in components:
                    ranks_in.setdefault(component, set()).add(rank)
            counts: Dict[frozenset, int] = {frozenset(): 1}  # no border: only itself
            for components in touched:
                if components not in counts:
                    counts[components] = len(set().union(*map(ranks_in.__getitem__, components)))
            self._reachable = list(map(counts.__getitem__, touched))
        return self._reachable

    def distance_lower_bound(self, u: VertexId, v: VertexId, within: float = INFINITY) -> float:
        """Return an admissible lower bound on ``dist(u, v)``.

        The bound is ``0`` when both vertices share a cell, otherwise
        ``u.min + lb(cell(u), cell(v)) + v.min``.  The pair is
        order-normalised first (the cell-row choice is rooted at the smaller
        vertex), so the answer is the same whichever direction a leg is asked
        in.  Nothing is memoised: the callers (the matchers' vehicle
        screening) repeat a pair 1.2 to 2.7 times a day, which does not pay
        for a dict of pairs.

        ``within`` is the reach to search a row the cell lacks out to: a
        caller whose reads mostly fall within it (the pick-up probe, within
        the pick-up cap) keeps the search short.  It never changes the
        answer: a read past the held row's reach completes the row as a
        full search.
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
        rank = self._cell_rank[cell_b]
        reach, row = self._lower_bound_row(cell_a, within)
        bound = row[rank]
        if bound > reach:  # past a finite reach: not searched yet
            bound = self._lower_bound_row(cell_a)[1][rank]
        return self._vertex_min[a] + bound + self._vertex_min[b]

    def expand_from(
        self, cell_id: CellId, within: float = INFINITY
    ) -> Iterator[Tuple[float, GridCell]]:
        """Yield ``(lower_bound, cell)`` pairs in ascending lower-bound order.

        This is the *grid cell list* of Fig. 1(b); the searches expand cells
        in exactly this order, tied bounds in cell-id order.  Unreachable
        cells (infinite lower bound) sort last and are not yielded.  With
        ``within``, only the cells bounded by at most ``within`` are yielded
        -- the full expansion's prefix, read off a row searched out to that
        reach -- and :meth:`reaches_beyond` says whether more would follow.
        """
        row = self._lower_bound_row(cell_id, within)[1]
        cells = self._cell_list
        for rank in self._cell_order(cell_id):
            bound = row[rank]
            if bound > within:
                return
            yield bound, cells[rank]

    def reaches_beyond(self, cell_id: CellId, within: float) -> bool:
        """Whether the full expansion from ``cell_id`` yields a cell bounded by
        more than ``within``: one that ``expand_from(cell_id, within)`` stops
        short of.  No search is run past ``within``; the connected components
        say which cells a full row would reach.  The answer is kept per cell
        and ``within``: a walk asks it whenever it runs out of cells within
        the cap, with the same cap all day."""
        if within == INFINITY:
            return False
        key = (cell_id, within)
        beyond = self._beyond.get(key)
        if beyond is None:
            row = self._lower_bound_row(cell_id, within)[1]
            inside = bisect_right(self._cell_order(cell_id), within, key=row.__getitem__)
            reachable = self._reachable_counts()[self._cell_rank[cell_id]]
            beyond = self._beyond[key] = reachable > inside
        return beyond

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
