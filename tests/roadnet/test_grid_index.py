"""Unit tests for the grid index (Section 3.2.1)."""

from __future__ import annotations

import math

import pytest

from repro.errors import GridIndexError, InvalidNetworkError, VertexNotFoundError
from repro.roadnet.generators import figure1_network, grid_network
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.grid_index import GridIndex

from tests.grid_reference import reference_expansion, reference_lower_bounds
from tests.routing_reference import shortest_path_distance


@pytest.fixture
def network() -> RoadNetwork:
    return grid_network(6, 6, weight_jitter=0.3, seed=5)


@pytest.fixture
def index(network: RoadNetwork) -> GridIndex:
    return GridIndex(network, rows=3, columns=3)


class TestConstruction:
    def test_dimensions(self, index: GridIndex):
        assert index.rows == 3
        assert index.columns == 3
        assert index.cell_count == 9

    def test_invalid_dimensions(self, network: RoadNetwork):
        with pytest.raises(GridIndexError):
            GridIndex(network, rows=0, columns=3)

    def test_requires_coordinates(self):
        network = RoadNetwork()
        network.add_vertex(1)
        network.add_vertex(2)
        network.add_edge(1, 2, 1.0)
        with pytest.raises(InvalidNetworkError):
            GridIndex(network, rows=2, columns=2)

    def test_every_vertex_assigned_to_exactly_one_cell(self, network, index):
        assigned = [vertex for cell in index.cells() for vertex in cell.vertices]
        assert sorted(assigned) == sorted(network.vertices())

    def test_border_vertices_have_cross_cell_edge(self, network, index):
        for cell in index.cells():
            for border in cell.border_vertices:
                assert any(
                    index.cell_of_vertex(neighbour).cell_id != cell.cell_id
                    for neighbour in network.neighbours_view(border)
                )

    def test_populated_cells_subset(self, index):
        populated = index.populated_cells()
        assert populated
        assert all(cell.vertices for cell in populated)

    def test_summary_keys(self, index):
        summary = index.summary()
        assert summary["cells"] == 9.0
        assert summary["vertices"] == 36.0

    def test_summary_counts_lower_bound_rows_as_they_are_computed(self, network, index):
        assert index.summary()["lower_bound_rows"] == 0.0
        assert index.summary()["build_seconds"] > 0.0
        corner = index.cell((0, 0)).vertices
        far = index.cell((2, 2)).vertices
        index.distance_lower_bound(min(corner), max(far))
        list(index.expand_from((0, 0)))  # same row: no new search
        assert index.summary()["lower_bound_rows"] == 1.0
        index.distance_lower_bound(corner[0], corner[-1])  # answered without a row
        assert index.summary()["lower_bound_rows"] == 1.0
        for cell in index.cells():
            list(index.expand_from(cell.cell_id))
        assert index.summary()["lower_bound_rows"] == index.summary()["cells"]

    def test_border_vertices_keep_edge_order_without_repeats(self, network, index):
        expected = {cell.cell_id: [] for cell in index.cells()}
        for edge in network.edges():
            for vertex in (edge.u, edge.v):
                cell_id = index.cell_of_vertex(vertex).cell_id
                crossing = (
                    index.cell_of_vertex(edge.u).cell_id
                    != index.cell_of_vertex(edge.v).cell_id
                )
                if crossing and vertex not in expected[cell_id]:
                    expected[cell_id].append(vertex)
        for cell in index.cells():
            assert cell.border_vertices == expected[cell.cell_id]


class TestLookups:
    def test_cell_of_vertex(self, network, index):
        for vertex in network.vertices():
            cell = index.cell_of_vertex(vertex)
            assert vertex in cell.vertices

    def test_cell_of_unknown_vertex(self, index):
        with pytest.raises(VertexNotFoundError):
            index.cell_of_vertex(999)

    def test_cell_by_id_bounds(self, index):
        with pytest.raises(GridIndexError):
            index.cell((10, 10))

    def test_vertex_min_non_negative(self, network, index):
        for vertex in network.vertices():
            assert index.vertex_min(vertex) >= 0.0

    def test_vertex_min_zero_for_border_vertices(self, network, index):
        for cell in index.cells():
            for border in cell.border_vertices:
                assert index.vertex_min(border) == pytest.approx(0.0)

    def test_vertex_min_of_unknown_vertex(self, index):
        with pytest.raises(VertexNotFoundError):
            index.vertex_min(999)


class TestLowerBounds:
    def test_same_cell_bound_is_zero(self, network, index):
        some_cell = index.populated_cells()[0]
        bounds = {other.cell_id: bound for bound, other in index.expand_from(some_cell.cell_id)}
        assert bounds[some_cell.cell_id] == 0.0
        first, last = some_cell.vertices[0], some_cell.vertices[-1]
        assert index.distance_lower_bound(first, last) == 0.0

    def test_cell_bounds_symmetric(self, index):
        rows = {
            cell.cell_id: {other.cell_id: bound for bound, other in index.expand_from(cell.cell_id)}
            for cell in index.populated_cells()
        }
        for a, row in rows.items():
            for b, bound in row.items():
                assert bound == pytest.approx(rows[b][a])

    def test_distance_lower_bound_is_admissible(self, network, index):
        vertices = network.vertices()
        for u in vertices[::5]:
            for v in vertices[::7]:
                bound = index.distance_lower_bound(u, v)
                if math.isinf(bound):
                    continue
                assert bound <= shortest_path_distance(network, u, v) + 1e-9

    def test_distance_lower_bound_same_vertex(self, index):
        assert index.distance_lower_bound(1, 1) == 0.0

    def test_distance_lower_bound_unknown_vertex(self, index):
        with pytest.raises(VertexNotFoundError):
            index.distance_lower_bound(1, 999)

    @pytest.mark.parametrize("pair", [(0, 1), (1, 0), (-5, 998)])
    def test_an_unknown_vertex_raises_in_either_position(self, index, pair):
        # the pair is order-normalised first, so the smaller id is looked up first
        with pytest.raises(VertexNotFoundError):
            index.distance_lower_bound(*pair)

    def test_expansion_and_bounds_equal_the_whole_graph_reference(self, network, index):
        for cell in index.cells():
            expanded = [(bound, other.cell_id) for bound, other in index.expand_from(cell.cell_id)]
            assert expanded == reference_expansion(index, cell.cell_id)
            assert [bound for bound, _ in expanded] == sorted(bound for bound, _ in expanded)
        expected = reference_lower_bounds(index)
        vertices = network.vertices()
        for u in vertices:
            for v in vertices:
                assert index.distance_lower_bound(u, v) == expected(u, v)

    def test_expand_from_skips_unreachable(self, network):
        network.add_vertex(999, x=0.05, y=0.05)  # isolated vertex
        index = GridIndex(network, rows=3, columns=3)
        start = index.cell_of_vertex(1).cell_id
        for bound, _cell in index.expand_from(start):
            assert not math.isinf(bound)

    def test_rows_warmed_through_expand_from_equal_lazy_rows(self, network):
        warm = GridIndex(network, rows=3, columns=3)
        for cell in warm.cells():
            list(warm.expand_from(cell.cell_id))
        lazy = GridIndex(network, rows=3, columns=3)
        vertices = network.vertices()
        for u in reversed(vertices):  # rows computed on demand, in another order
            for v in vertices:
                assert lazy.distance_lower_bound(u, v) == warm.distance_lower_bound(u, v)
        assert lazy.summary()["lower_bound_rows"] == warm.summary()["lower_bound_rows"]
        for cell in lazy.cells():
            assert [(b, c.cell_id) for b, c in lazy.expand_from(cell.cell_id)] == [
                (b, c.cell_id) for b, c in warm.expand_from(cell.cell_id)
            ]


class TestVehicleLists:
    def test_register_and_unregister_empty_vehicle(self, index):
        cell_id = index.register_empty_vehicle("c1", vertex=1)
        assert "c1" in index.cell(cell_id).empty_vehicles
        index.unregister_empty_vehicle("c1", cell_id)
        assert "c1" not in index.cell(cell_id).empty_vehicles

    def test_register_nonempty_vehicle_many_cells(self, index):
        cells = [cell.cell_id for cell in index.populated_cells()[:3]]
        index.register_nonempty_vehicle("c2", cells)
        for cell_id in cells:
            assert "c2" in index.cell(cell_id).nonempty_vehicles
        index.unregister_nonempty_vehicle("c2", cells)
        for cell_id in cells:
            assert "c2" not in index.cell(cell_id).nonempty_vehicles

    def test_cells_on_path(self, network, index):
        path = [1, 2, 3, 4, 5, 6]
        cells = index.cells_on_path(path)
        assert cells == {index.cell_of_vertex(v).cell_id for v in path}

    def test_cells_on_path_unknown_vertex(self, index):
        with pytest.raises(VertexNotFoundError):
            index.cells_on_path([1, 999])


class TestFigure1:
    def test_figure1_grid_builds(self):
        network = figure1_network()
        index = GridIndex(network, rows=4, columns=4)
        assert index.cell_count == 16
        assert sum(len(cell.vertices) for cell in index.cells()) == 17

    def test_figure1_bounds_admissible(self):
        network = figure1_network()
        index = GridIndex(network, rows=4, columns=4)
        for u in network.vertices():
            for v in network.vertices():
                bound = index.distance_lower_bound(u, v)
                assert bound <= shortest_path_distance(network, u, v) + 1e-9
