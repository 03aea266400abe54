"""Grid lower-bound rows searched out to a reach.

``GridIndex`` builds every cell-pair row with one
``CSRGraph.nearest(border vertices, limit=reach)``.  The single-side walk
(``expand_from(start cell, within=cap)``) and its empty-taxi probe
(``distance_lower_bound(..., within=cap)``) ask for the pick-up cap; every
other caller asks for the full row, ``reach = INFINITY``.  Nothing a caller
reads may move:

* ``nearest(limit=)`` on both tree arms is the unlimited search's float bit
  for bit up to the limit, and ``inf`` past it;
* every entry of a row within its reach is the full row's float bit for bit,
  every entry past it ``inf``; a read past the reach returns the full row's
  value; ``expand_from(cell, within)`` is the full expansion's prefix and
  ``reaches_beyond`` says whether the full expansion goes on -- on jittered
  grids, on networks with cut edges and islands, and on a fixed network with
  a second component and a cell without border vertices;
* the single- and dual-side matchers on a grid with reaches answer, commit
  and count (every ``MatcherStatistics`` field, ``cells_visited`` included)
  as on :class:`FullRowGrid`, for caps 0.5, 3.0 and ``None``, across a
  change of the cap, window after window of a driven day and through the
  service's ``set_parameters``.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SystemConfig
from repro.core.dispatcher import Dispatcher, OptionPolicy
from repro.core.dual_side import DualSideSearchMatcher
from repro.core.single_side import SingleSideSearchMatcher
from repro.model.request import Request
from repro.roadnet.generators import grid_network
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.grid_index import GridIndex
from repro.roadnet.routing import CSRGraph, make_engine
from repro.roadnet.shortest_path import INFINITY
from repro.service import api
from repro.sim.engine import SimulationEngine
from repro.sim.workload import RequestWorkload
from repro.vehicles.fleet import Fleet
from repro.vehicles.vehicle import Vehicle

from tests.property.test_batch_equivalence import _fleet_state
from tests.property.test_grid_bounds import _broken_networks, _tree_path
from tests.routing_arms import ROUTING_ARMS

ARMS = [False, True]  # forced_list: the SciPy arm, then the pure-Python one
CAPS = [0.5, 3.0, None]


class FullRowGrid(GridIndex):
    """The grid before rows had a reach: every row searched in full and every
    expansion walked to its last reachable cell, where the walk's own cap
    test stops it."""

    def _lower_bound_row(self, cell_id, reach=INFINITY):
        return super()._lower_bound_row(cell_id)

    def expand_from(self, cell_id, within=INFINITY):
        return super().expand_from(cell_id)

    def reaches_beyond(self, cell_id, within):
        return False


def _split_network() -> RoadNetwork:
    """A jittered 4x4 grid, a two-vertex island whose edge crosses two cells
    of the 3x3 index, and an isolated vertex alone in a cell: a second
    component, and a populated cell without border vertices."""
    network = grid_network(4, 4, weight_jitter=0.4, seed=11)
    network.add_vertex(101, x=6.0, y=0.0)
    network.add_vertex(102, x=6.0, y=3.0)
    network.add_edge(101, 102, 1.7)
    network.add_vertex(103, x=6.0, y=1.5)
    return network


def _reaches(full_rows) -> list:
    """Reaches that cut each row: none, at and between its distinct bounds."""
    bounds = sorted({b for row in full_rows for b in row if b != INFINITY})
    picks = [0.0, *bounds[::3], *(b + 0.25 for b in bounds[1::4])]
    return sorted(set(picks))


def _assert_rows_with_a_reach(network: RoadNetwork, grid_rows: int, grid_columns: int) -> None:
    full = GridIndex(network, rows=grid_rows, columns=grid_columns)
    cells = [cell.cell_id for cell in full.cells()]
    full_rows = {cell_id: full._lower_bound_row(cell_id)[1] for cell_id in cells}
    expansions = {
        cell_id: [(bound, cell.cell_id) for bound, cell in full.expand_from(cell_id)]
        for cell_id in cells
    }
    vertices = network.vertices()
    for reach in _reaches(full_rows.values()):
        bounded = GridIndex(network, rows=grid_rows, columns=grid_columns)
        for cell_id in cells:
            held_reach, row = bounded._lower_bound_row(cell_id, reach)
            expected = full_rows[cell_id]
            if held_reach != INFINITY:  # a cell without border vertices is whole at once
                assert held_reach == reach
            for got, want in zip(row, expected):
                if want <= held_reach:
                    assert got.hex() == want.hex()
                else:
                    assert got == INFINITY
            prefix = [(bound, cell.cell_id) for bound, cell in bounded.expand_from(cell_id, reach)]
            assert prefix == [item for item in expansions[cell_id] if item[0] <= reach]
            beyond = len(expansions[cell_id]) > len(prefix)
            assert bounded.reaches_beyond(cell_id, reach) == beyond
            assert not bounded.reaches_beyond(cell_id, INFINITY)
        assert bounded.full_row_searches == 0
        # reads past the reach complete their rows; every answer is the full one's
        for u in vertices:
            for v in vertices:
                assert bounded.distance_lower_bound(u, v, reach) == full.distance_lower_bound(u, v)
        for cell_id in cells:
            assert [(b, c.cell_id) for b, c in bounded.expand_from(cell_id)] == expansions[cell_id]
        assert bounded.summary()["lower_bound_rows"] == full.summary()["lower_bound_rows"]


@pytest.mark.parametrize("forced_list", ARMS)
@given(
    rows=st.integers(min_value=2, max_value=7),
    columns=st.integers(min_value=2, max_value=7),
    grid_rows=st.integers(min_value=1, max_value=5),
    grid_columns=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=25, deadline=None)
def test_rows_with_a_reach_on_jittered_grids(
    forced_list, rows, columns, grid_rows, grid_columns, seed
):
    with _tree_path(forced_list):
        network = grid_network(rows, columns, weight_jitter=0.5, seed=seed)
        _assert_rows_with_a_reach(network, grid_rows, grid_columns)


@pytest.mark.parametrize("forced_list", ARMS)
@given(
    network=_broken_networks(),
    grid_rows=st.integers(min_value=1, max_value=5),
    grid_columns=st.integers(min_value=1, max_value=5),
)
@settings(max_examples=25, deadline=None)
def test_rows_with_a_reach_on_broken_networks(forced_list, network, grid_rows, grid_columns):
    with _tree_path(forced_list):
        _assert_rows_with_a_reach(network, grid_rows, grid_columns)


@pytest.mark.parametrize("forced_list", ARMS)
def test_rows_with_a_reach_on_a_split_network(forced_list):
    network = _split_network()
    with _tree_path(forced_list):
        index = GridIndex(network, rows=3, columns=3)
        island, lonely = index.cell_of_vertex(101), index.cell_of_vertex(103)
        assert island.border_vertices and not lonely.border_vertices and lonely.vertices
        # the island's row reaches only the island's other cell, the lonely
        # cell's only itself
        assert index.reaches_beyond(island.cell_id, 0.5)
        assert not index.reaches_beyond(island.cell_id, 1.7)
        assert not index.reaches_beyond(lonely.cell_id, 0.0)
        assert [c.cell_id for _, c in index.expand_from(lonely.cell_id, 0.0)] == [lonely.cell_id]
        _assert_rows_with_a_reach(network, 3, 3)


def test_a_wider_reach_searches_the_row_again_and_a_narrower_one_reads_it():
    index = GridIndex(grid_network(8, 8, weight_jitter=0.4, seed=2), rows=4, columns=4)
    cell = (1, 1)
    narrow = list(index.expand_from(cell, 1.5))
    assert (index.bounded_row_searches, index._lower_bound_rows[cell][0]) == (1, 1.5)
    wide = list(index.expand_from(cell, 3.0))
    assert (index.bounded_row_searches, index._lower_bound_rows[cell][0]) == (2, 3.0)
    assert wide[: len(narrow)] == narrow and len(wide) > len(narrow)
    assert list(index.expand_from(cell, 1.5)) == narrow
    assert index.bounded_row_searches == 2 and index.full_row_searches == 0
    list(index.expand_from(cell))
    assert (index.full_row_searches, index._lower_bound_rows[cell][0]) == (1, INFINITY)
    assert index.summary()["lower_bound_rows"] == 1.0


@pytest.mark.parametrize("forced_list", ARMS)
@given(network=_broken_networks(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_nearest_with_a_limit_is_the_unlimited_search_cut_off(forced_list, network, data):
    with _tree_path(forced_list):
        graph = CSRGraph(network)
        sources = data.draw(
            st.lists(st.integers(min_value=0, max_value=len(graph) - 1), min_size=1, max_size=6)
        )
        whole = list(graph.nearest(sources))
        finite = sorted({d for d in whole if d != INFINITY})
        limit = data.draw(
            st.sampled_from(finite) | st.floats(min_value=0.0, max_value=finite[-1] + 1)
        )
        limited = list(graph.nearest(sources, limit=limit))
        assert [d.hex() for d in limited] == [
            (d if d <= limit else INFINITY).hex() for d in whole
        ]


@pytest.mark.parametrize("forced_list", ARMS)
@given(network=_broken_networks())
@settings(max_examples=40, deadline=None)
def test_components_join_exactly_the_vertices_a_path_joins(forced_list, network):
    with _tree_path(forced_list):
        graph = CSRGraph(network)
        labels = graph.components()
        for index in range(len(graph)):
            reached = {i for i, d in enumerate(graph.tree(index)) if d != INFINITY}
            assert reached == {i for i, label in enumerate(labels) if label == labels[index]}


# ----------------------------------------------------------------------
# the matchers: a grid with reaches against FullRowGrid
# ----------------------------------------------------------------------
MATCHERS = {"single_side": SingleSideSearchMatcher, "dual_side": DualSideSearchMatcher}


def _config(cap):
    return SystemConfig(max_waiting=6.0, service_constraint=0.6, max_pickup_distance=cap)


@st.composite
def driven_days(draw):
    seed = draw(st.integers(min_value=0, max_value=100_000))
    rng = random.Random(seed)
    network = grid_network(
        draw(st.integers(min_value=4, max_value=7)),
        draw(st.integers(min_value=4, max_value=7)),
        weight_jitter=0.4,
        seed=seed,
    )
    vertices = network.vertices()
    windows = []
    for window in range(draw(st.integers(min_value=2, max_value=6))):
        requests = []
        for index in range(draw(st.integers(min_value=0, max_value=4))):
            start, destination = rng.sample(vertices, 2)
            requests.append(
                Request(
                    start=start, destination=destination, riders=rng.randint(1, 2),
                    max_waiting=6.0, service_constraint=0.6, request_id=f"w{window}-{index}",
                )
            )
        windows.append(requests)
    return {
        "seed": seed,
        "network": network,
        "locations": [
            rng.choice(vertices) for _ in range(draw(st.integers(min_value=1, max_value=8)))
        ],
        "grid": draw(st.integers(min_value=2, max_value=4)),
        "windows": windows,
        "matcher": draw(st.sampled_from(sorted(MATCHERS))),
        "caps": (draw(st.sampled_from(CAPS)), draw(st.sampled_from(CAPS))),
    }


def _world(scenario, grid_class, backend):
    network, size = scenario["network"], scenario["grid"]
    fleet = Fleet(grid_class(network, rows=size, columns=size), make_engine(network, backend))
    for index, location in enumerate(scenario["locations"], 1):
        fleet.add_vehicle(Vehicle(f"c{index}", location=location, capacity=3))
    simulation = SimulationEngine(
        _dispatcher(fleet, scenario, scenario["caps"][0]), RequestWorkload([]),
        speed=0.8, seed=scenario["seed"],
    )
    return fleet, simulation


def _dispatcher(fleet, scenario, cap, statistics=None):
    config = _config(cap)
    matcher = MATCHERS[scenario["matcher"]](fleet, config=config, statistics=statistics)
    return Dispatcher(fleet, matcher, config)


@pytest.mark.parametrize("backend", ROUTING_ARMS)
@given(driven_days())
@settings(max_examples=20, deadline=None)
def test_matchers_on_rows_with_a_reach_equal_full_rows(backend, scenario):
    """Window after window, the cap changed halfway: options, commits and
    every ``MatcherStatistics`` field equal the full-row grid's."""
    worlds = [_world(scenario, grid_class, backend) for grid_class in (GridIndex, FullRowGrid)]
    windows = scenario["windows"]
    for tick, window in enumerate(windows):
        if tick == len(windows) // 2:  # what set_parameters does: a new matcher, same counters
            for fleet, simulation in worlds:
                simulation.dispatcher = _dispatcher(
                    fleet, scenario, scenario["caps"][1], simulation.dispatcher.matcher.statistics
                )
        answers = []
        for fleet, simulation in worlds:
            dispatcher = simulation.dispatcher
            outcomes = dispatcher.dispatch_batch(window, policy=OptionPolicy.CHEAPEST)
            for outcome in outcomes:
                if outcome.chosen is not None:
                    simulation.register_assignment(
                        outcome.request.request_id, outcome.chosen.vehicle_id,
                        outcome.chosen.pickup_distance,
                    )
            answers.append((
                [(o.options, o.chosen) for o in outcomes],
                _fleet_state(fleet),
                dispatcher.matcher.statistics,
            ))
            simulation.step()
        assert answers[0] == answers[1]


def _service(grid_class, monkeypatch, matcher):
    monkeypatch.setattr(api, "GridIndex", grid_class)
    network = grid_network(9, 9, weight_jitter=0.3, seed=4)
    config = _config(3.0).with_knobs({"matcher_name": matcher}, running=False)
    fleet = api.assemble_fleet(network, config, 14, 4, grid_rows=5, grid_columns=5)
    return api.PTRiderService(fleet, config=config, seed=4)


@pytest.mark.parametrize("matcher", sorted(MATCHERS))
def test_set_parameters_widens_and_narrows_the_reach(monkeypatch, matcher):
    """A service day through ``book`` / ``choose`` with the cap narrowed,
    raised and narrowed again by ``set_parameters``: every booking's options
    and the matcher counters equal a full-row service's."""
    days = []
    for grid_class in (GridIndex, FullRowGrid):
        service = _service(grid_class, monkeypatch, matcher)
        vertices = service.fleet.grid.network.vertices()
        rng = random.Random(9)
        answers = []
        for step, cap in enumerate([3.0, 0.5, 6.0, 1.5]):
            if step:
                service.set_parameters(max_pickup_distance=cap)
            for _ in range(6):
                start, destination = rng.sample(vertices, 2)
                booking = service.book(start, destination)
                # request ids count on across services: compare the rest
                answers.append([
                    (o.vehicle_id, o.pickup_distance.hex(), o.price.hex(), o.added_distance.hex(),
                     [(stop.vertex, stop.kind) for stop in o.schedule])
                    for o in booking.options
                ])
                if booking.options:
                    service.choose(booking.booking_id, 0)
                else:
                    service.cancel(booking.booking_id)
            service.advance(1.0)
        days.append((answers, service.matcher.statistics, service.fleet.grid))
        service.close()
    (answers, statistics, grid), (full_answers, full_statistics, _) = days
    assert answers == full_answers
    assert statistics == full_statistics
    assert grid.bounded_row_searches > 0
