"""Property-based tests: the grid index's distance bounds are admissible.

The single-side and dual-side matchers rely on the invariant that
``GridIndex.distance_lower_bound(u, v) <= dist(u, v)`` for every vertex pair;
if that ever failed, a qualifying vehicle could be pruned and the skyline
would silently lose options.  The tests below generate random networks and
random grid granularities and check the invariant exhaustively on samples.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.matcher import added_distance_lower_bound
from repro.model.request import Request
from repro.roadnet import routing
from repro.roadnet.generators import grid_network
from repro.roadnet.grid_index import GridIndex
from repro.roadnet.routing import CSRGraph
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.shortest_path import INFINITY

from tests.conftest import assign_request, build_fleet
from tests.grid_reference import (
    multi_source_dijkstra,
    reference_cells,
    reference_expansion,
    reference_lower_bounds,
)
from tests.routing_reference import random_geometric_network, shortest_path_distance


@given(
    rows=st.integers(min_value=2, max_value=6),
    columns=st.integers(min_value=2, max_value=6),
    grid_rows=st.integers(min_value=1, max_value=5),
    grid_columns=st.integers(min_value=1, max_value=5),
    jitter=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=40, deadline=None)
def test_cell_lower_bounds_are_admissible_on_grid_networks(
    rows, columns, grid_rows, grid_columns, jitter, seed
):
    network = grid_network(rows, columns, weight_jitter=jitter, seed=seed)
    index = GridIndex(network, rows=grid_rows, columns=grid_columns)
    vertices = network.vertices()
    sample = vertices[:: max(1, len(vertices) // 8)]
    for u in sample:
        for v in sample:
            bound = index.distance_lower_bound(u, v)
            if math.isinf(bound):
                continue
            assert bound <= shortest_path_distance(network, u, v) + 1e-9


@given(
    count=st.integers(min_value=10, max_value=40),
    radius=st.floats(min_value=0.15, max_value=0.5),
    grid_rows=st.integers(min_value=1, max_value=4),
    grid_columns=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=25, deadline=None)
def test_cell_lower_bounds_are_admissible_on_geometric_networks(
    count, radius, grid_rows, grid_columns, seed
):
    network = random_geometric_network(count, radius=radius, seed=seed)
    index = GridIndex(network, rows=grid_rows, columns=grid_columns)
    vertices = network.vertices()
    sample = vertices[:: max(1, len(vertices) // 6)]
    for u in sample:
        for v in sample:
            bound = index.distance_lower_bound(u, v)
            if math.isinf(bound):
                continue
            assert bound <= shortest_path_distance(network, u, v) + 1e-9


@given(
    seed=st.integers(min_value=0, max_value=5_000),
    vehicle_vertex=st.integers(min_value=1, max_value=36),
    start=st.integers(min_value=1, max_value=36),
    destination=st.integers(min_value=1, max_value=36),
)
@settings(max_examples=40, deadline=None)
def test_added_distance_lower_bound_is_admissible(seed, vehicle_vertex, start, destination):
    """The destination-side bound never exceeds the true added distance of any insertion."""
    if start == destination:
        return
    network = grid_network(6, 6, weight_jitter=0.4, seed=seed)
    fleet = build_fleet(network, [vehicle_vertex], grid_rows=3, grid_columns=3)
    oracle = fleet.oracle
    seed_request = Request(
        start=start, destination=destination, riders=1, max_waiting=1e9, service_constraint=10.0,
        request_id=f"seed-{seed}",
    )
    assign_request(fleet, "c1", seed_request)
    vehicle = fleet.get("c1")

    probe = (vehicle_vertex % 36) + 1
    bound = added_distance_lower_bound(vehicle, probe, fleet.grid, oracle)

    # true minimal added distance over every insertion position of the probe stop
    for schedule in vehicle.kinetic_tree.schedules():
        vertices = [vehicle.location] + [stop.vertex for stop in schedule]
        best = min(
            oracle.distance(vertices[i], probe) + oracle.distance(probe, vertices[i + 1])
            - oracle.distance(vertices[i], vertices[i + 1])
            for i in range(len(vertices) - 1)
        )
        best = min(best, oracle.distance(vertices[-1], probe))
        assert bound <= best + 1e-9


# ----------------------------------------------------------------------
# the index's values == the whole-graph pure-Python reference
# ----------------------------------------------------------------------
# ``GridIndex`` computes on a compiled ``CSRGraph``: v.min for all cells in one
# cell-restricted ``nearest`` pass, each lower-bound row as one ``nearest``
# call.  The reference below is what it used to run -- one whole-graph dict
# search per cell -- and every value must be ``==`` to it, on the SciPy path
# and on the list path (forced here where SciPy is installed; the
# no-accelerator install runs the list path in both legs).


@contextmanager
def _tree_path(forced_list: bool):
    """Compile ``CSRGraph``s without the SciPy matrix when ``forced_list``.

    (pytest's ``monkeypatch`` fixture is function-scoped, which Hypothesis
    refuses; its context form is not.)
    """
    with pytest.MonkeyPatch.context() as patch:
        if forced_list:
            patch.setattr(routing, "_csr_array", None)
        yield


@st.composite
def _broken_networks(draw):
    """Grid or geometric networks with edges cut and loose islands added.

    Cut edges leave pockets no border vertex of their cell reaches and cells
    no other cell reaches; islands (their own vertices, chained together,
    dropped anywhere in or just outside the bounding box) add components
    that may straddle cells, so some border vertices see ``inf`` everywhere.
    """
    seed = draw(st.integers(min_value=0, max_value=10_000))
    if draw(st.booleans()):
        network = grid_network(
            draw(st.integers(min_value=1, max_value=6)),
            draw(st.integers(min_value=2, max_value=6)),
            # unit weights (no jitter) make many cell bounds tie exactly
            weight_jitter=draw(st.just(0.0) | st.floats(min_value=0.0, max_value=1.0)),
            seed=seed,
        )
    else:
        network = random_geometric_network(
            draw(st.integers(min_value=4, max_value=30)),
            radius=draw(st.floats(min_value=0.15, max_value=0.5)),
            seed=seed,
        )
    edges = list(network.edges())
    cut = draw(st.sets(st.integers(min_value=0, max_value=len(edges) - 1), max_size=8))
    whole, network = network, RoadNetwork()
    for vertex in whole.vertices():
        point = whole.coordinate(vertex)
        network.add_vertex(vertex, x=point.x, y=point.y)
    for position, edge in enumerate(edges):
        if position not in cut:
            network.add_edge(edge.u, edge.v, edge.weight)
    box = network.bounding_box()
    coordinate = st.tuples(
        st.floats(min_value=box.min_x - 0.5, max_value=box.max_x + 0.5),
        st.floats(min_value=box.min_y - 0.5, max_value=box.max_y + 0.5),
    )
    next_vertex = max(network.vertices()) + 1
    for island in draw(st.lists(st.lists(coordinate, min_size=1, max_size=3), max_size=3)):
        for position, (x, y) in enumerate(island):
            network.add_vertex(next_vertex, x=x, y=y)
            if position:
                weight = draw(st.floats(min_value=0.1, max_value=2.0))
                network.add_edge(next_vertex - 1, next_vertex, weight)
            next_vertex += 1
    return network


_grid_sides = st.integers(min_value=1, max_value=5)


@given(network=_broken_networks(), grid_rows=_grid_sides, grid_columns=_grid_sides)
@settings(max_examples=60, deadline=None)
def test_cells_and_borders_equal_the_edge_loop_reference(network, grid_rows, grid_columns):
    """Every cell's vertex and border-vertex lists, in order, and ``vertex_cells``."""
    index = GridIndex(network, rows=grid_rows, columns=grid_columns)
    cell_of, cells = reference_cells(network, grid_rows, grid_columns)
    assert list(index.vertex_cells.items()) == list(cell_of.items())
    assert [(cell.cell_id, cell.vertices, cell.border_vertices) for cell in index.cells()] == cells


@pytest.mark.parametrize("forced_list", [False, True])
@given(network=_broken_networks(), grid_rows=_grid_sides, grid_columns=_grid_sides)
@settings(max_examples=60, deadline=None)
def test_index_values_equal_whole_graph_reference(forced_list, network, grid_rows, grid_columns):
    """``v.min`` and every vertex pair's bound, across every cell pair."""
    with _tree_path(forced_list):
        index = GridIndex(network, rows=grid_rows, columns=grid_columns)
        for cell in index.cells():
            nearest = (
                multi_source_dijkstra(network, cell.border_vertices)
                if cell.border_vertices
                else {}
            )
            for vertex in cell.vertices:
                assert index.vertex_min(vertex) == nearest.get(vertex, 0.0)
        expected = reference_lower_bounds(index)
        vertices = network.vertices()
        for u in vertices:
            for v in vertices:
                assert index.distance_lower_bound(u, v) == expected(u, v)


@pytest.mark.parametrize("forced_list", [False, True])
@given(network=_broken_networks(), grid_rows=_grid_sides, grid_columns=_grid_sides)
@settings(max_examples=60, deadline=None)
def test_cell_orders_equal_the_tuple_sort_reference(forced_list, network, grid_rows, grid_columns):
    """The grid cell list as ``expand_from`` yields it: ties in cell-id order,
    no ``inf`` cell."""
    with _tree_path(forced_list):
        index = GridIndex(network, rows=grid_rows, columns=grid_columns)
        for cell in index.cells():
            expanded = [(bound, other.cell_id) for bound, other in index.expand_from(cell.cell_id)]
            assert expanded == reference_expansion(index, cell.cell_id)


@pytest.mark.parametrize("forced_list", [False, True])
@given(network=_broken_networks(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_nearest_is_the_elementwise_minimum_of_trees(forced_list, network, data):
    with _tree_path(forced_list):
        graph = CSRGraph(network)
        assert (graph.matrix is None) or not forced_list
        sources = data.draw(
            st.lists(st.integers(min_value=0, max_value=len(graph) - 1), min_size=1, max_size=6)
        )
        nearest = list(graph.nearest(sources))
        plane = [list(row) for row in graph.trees(sources)]
        assert nearest == [min(column) for column in zip(*plane)]
        reference = multi_source_dijkstra(network, [graph.vertex_ids[i] for i in sources])
        assert nearest == [reference.get(vertex, INFINITY) for vertex in graph.vertex_ids]
        assert list(graph.nearest(sources[:1])) == list(graph.tree(sources[0]))


@pytest.mark.parametrize("forced_list", [False, True])
def test_nearest_rejects_an_empty_source_list(forced_list):
    network = grid_network(3, 3)
    with _tree_path(forced_list):
        graph = CSRGraph(network)
        with pytest.raises(ValueError):
            graph.nearest([])
    with pytest.raises(ValueError):
        multi_source_dijkstra(network, [])


def test_reference_takes_the_minimum_over_sources():
    diamond = RoadNetwork.from_edges(
        [(1, 2, 1.0), (2, 4, 1.0), (1, 3, 2.0), (3, 4, 2.0), (1, 4, 5.0)],
        coordinates={1: (0, 0), 2: (1, 1), 3: (1, -1), 4: (2, 0)},
    )
    distances = multi_source_dijkstra(diamond, [2, 3])
    assert distances == {1: 1.0, 2: 0.0, 3: 0.0, 4: 1.0}
