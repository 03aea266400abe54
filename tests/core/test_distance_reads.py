"""The exact-distance read contract, on both tree arms.

A tree row is an ``array('d')`` on both arms, and the matchers read the
request's start row by index (``MatchContext.start_row``).  Whichever way a
distance is read -- the engine, a tree view, a prefetched view, a match
context or a batch context -- it comes back as a built-in ``float``, and
the error and fallback behaviour of the mapping reads is kept.
"""

from __future__ import annotations

from array import array

import pytest

from repro.core.batch import BatchContext
from repro.core.context import BOUND_SLACK, MatchContext
from repro.core.single_side import SingleSideSearchMatcher
from repro.errors import DisconnectedError
from repro.model.request import Request
from repro.roadnet.generators import grid_network
from repro.roadnet.grid_index import GridIndex
from repro.roadnet.routing import make_engine
from repro.vehicles.fleet import Fleet
from repro.vehicles.vehicle import Vehicle

from tests.routing_arms import ROUTING_ARMS

#: a vertex of the network no edge reaches
ISLAND = 10_001
#: a vertex the network does not have
UNKNOWN = 99_999


def _fleet(backend):
    """A jittered 6x6 city plus :data:`ISLAND`; ``c2`` stands on the island."""
    network = grid_network(6, 6, weight_jitter=0.3, seed=5)
    network.add_vertex(ISLAND, x=0.0, y=0.0)
    vertices = network.vertices()
    fleet = Fleet(GridIndex(network, rows=3, columns=3), make_engine(network, backend))
    for index, location in enumerate((vertices[9], vertices[27], ISLAND)):
        fleet.add_vehicle(Vehicle(f"c{index}", location=location, capacity=4))
    return fleet


def _request(fleet):
    vertices = fleet.grid.network.vertices()
    return Request(
        start=vertices[0], destination=vertices[20], max_waiting=6.0,
        service_constraint=0.4, request_id="probe",
    )


def _contexts(fleet):
    """The request's plain context and its context in a batch of one."""
    request = _request(fleet)
    plain = MatchContext.create(request, fleet.routing_engine, fleet.grid)
    batch = BatchContext.create([request], fleet.routing_engine, fleet.grid)
    return plain, batch, batch.context_for(0)


@pytest.mark.parametrize("backend", ROUTING_ARMS)
class TestReadContract:
    def test_every_read_is_a_builtin_float(self, backend):
        fleet = _fleet(backend)
        engine = fleet.routing_engine
        plain, batch, pooled = _contexts(fleet)
        start = plain.request.start
        vertices = fleet.grid.network.vertices()
        a, b = vertices[7], vertices[30]
        assert type(plain.start_row) is array

        view = engine.distances_from(a)
        prefetched = engine.prefetch_trees([vertices[33]])[vertices[33]]
        reads = {
            "engine.distance": engine.distance(a, b),
            "view[]": view[b],
            "view.get": view.get(b),
            "prefetched[]": prefetched[b],
            "prefetched.get": prefetched.get(b),
            "from_start": plain.from_start(b),
            "MatchContext.distance start": plain.distance(b, start),
            "MatchContext.distance engine": plain.distance(a, b),
            "lower_bound": plain.lower_bound(start, b),
            "batch start": pooled.distance(start, b),
        }
        hits = batch.statistics.leg_tree_hits
        reads["batch pool"] = pooled.distance(b, a)
        assert batch.statistics.leg_tree_hits == hits + 1
        reads["batch memo"] = pooled.distance(a, b)
        assert batch.statistics.leg_tree_hits == hits + 1
        assert {name: type(value) for name, value in reads.items()} == dict.fromkeys(reads, float)
        assert reads["batch start"] == reads["from_start"] == reads["MatchContext.distance start"]
        assert reads["batch pool"] == reads["batch memo"] == reads["engine.distance"]

    def test_unreachable_start_reads_raise_disconnected(self, backend):
        plain, _, pooled = _contexts(_fleet(backend))
        start = plain.request.start
        for vertex in (ISLAND, UNKNOWN):
            with pytest.raises(DisconnectedError) as raised:
                plain.from_start(vertex)
            assert raised.value.args == DisconnectedError(start, vertex).args
            for source, target in ((start, vertex), (vertex, start)):
                with pytest.raises(DisconnectedError) as raised:
                    pooled.distance(source, target)
                assert raised.value.args == DisconnectedError(start, vertex).args

    def test_an_island_destination_is_disconnected_on_both_context_paths(self, backend):
        fleet = _fleet(backend)
        start = fleet.grid.network.vertices()[0]
        request = Request(start=start, destination=ISLAND, max_waiting=6.0,
                          service_constraint=0.4, request_id="to-island")
        with pytest.raises(DisconnectedError) as plain:
            MatchContext.create(request, fleet.routing_engine, fleet.grid)
        batch = BatchContext.create([request], fleet.routing_engine, fleet.grid)
        with pytest.raises(DisconnectedError) as batched:
            batch.context_for(0)
        assert plain.value.args == batched.value.args == DisconnectedError(start, ISLAND).args

    def test_lower_bound_falls_back_to_the_index_bound(self, backend):
        plain, _, _ = _contexts(_fleet(backend))
        start = plain.request.start
        vertices = plain.grid.network.vertices()
        for source, target in ((start, ISLAND), (ISLAND, start), (vertices[7], vertices[30])):
            assert plain.lower_bound(source, target) == plain.index_lower_bound(source, target)
        exact = plain.from_start(vertices[30])
        assert plain.lower_bound(vertices[30], start) == exact - BOUND_SLACK
        assert plain.lower_bound(start, start) == 0.0

    def test_cap_survivors_lets_an_unreachable_location_through(self, backend):
        fleet = _fleet(backend)
        plain, _, _ = _contexts(fleet)
        matcher = SingleSideSearchMatcher(fleet)
        seen = set()
        survivors = matcher._cap_survivors(  # noqa: SLF001
            {"c0", "c1", "c2"}, fleet.by_id, plain, 0.0, seen
        )
        assert [vehicle.vehicle_id for vehicle, _floor in survivors] == ["c2"]
        assert seen == {"c0", "c1"}
        assert matcher.statistics.vehicles_beyond_cap == 2
