"""Unit tests for the fleet index (per-cell vehicle lists)."""

from __future__ import annotations

import pytest

from repro.errors import UnknownVehicleError, VehicleError
from repro.model.request import Request
from repro.roadnet.generators import figure1_network
from repro.roadnet.grid_index import GridIndex
from repro.roadnet.routing import CSREngine
from repro.vehicles.fleet import Fleet
from repro.vehicles.vehicle import Vehicle

from tests.conftest import assign_request


@pytest.fixture
def fleet() -> Fleet:
    network = figure1_network()
    grid = GridIndex(network, rows=4, columns=4)
    return Fleet(grid, CSREngine(network))


class TestRegistration:
    def test_add_and_get(self, fleet):
        vehicle = Vehicle("c1", location=1)
        fleet.add_vehicle(vehicle)
        assert fleet.get("c1") is vehicle
        assert fleet.vehicle_ids() == ["c1"]

    def test_duplicate_id_rejected(self, fleet):
        fleet.add_vehicle(Vehicle("c1", location=1))
        with pytest.raises(VehicleError):
            fleet.add_vehicle(Vehicle("c1", location=2))

    def test_unknown_vehicle(self, fleet):
        with pytest.raises(UnknownVehicleError):
            fleet.get("nope")

    def test_empty_vehicle_registered_in_location_cell(self, fleet):
        fleet.add_vehicle(Vehicle("c1", location=1))
        cell = fleet.grid.cell_of_vertex(1)
        assert "c1" in cell.empty_vehicles
        assert fleet.get("c1").registered_cells == {cell.cell_id}

    def test_iteration_and_sorting(self, fleet):
        fleet.add_vehicle(Vehicle("c2", location=2))
        fleet.add_vehicle(Vehicle("c1", location=1))
        assert [vehicle.vehicle_id for vehicle in fleet.vehicles()] == ["c1", "c2"]
        assert fleet.vehicle_ids() == ["c2", "c1"]  # registration order


class TestStateTransitions:
    def test_assignment_moves_vehicle_to_nonempty_lists(self, fleet):
        fleet.add_vehicle(Vehicle("c1", location=1))
        request = Request(start=2, destination=16, riders=2, request_id="R1")
        assign_request(fleet, "c1", request)
        vehicle = fleet.get("c1")
        assert not vehicle.is_empty
        location_cell = fleet.grid.cell_of_vertex(1)
        assert "c1" not in location_cell.empty_vehicles
        assert "c1" in location_cell.nonempty_vehicles
        # the cells of the schedule stops are registered too
        for vertex in (2, 16):
            assert "c1" in fleet.grid.cell_of_vertex(vertex).nonempty_vehicles

    def test_empty_and_nonempty_queries(self, fleet):
        fleet.add_vehicle(Vehicle("c1", location=1))
        fleet.add_vehicle(Vehicle("c2", location=13))
        request = Request(start=2, destination=16, riders=1, request_id="R1")
        assign_request(fleet, "c1", request)
        assert [v.vehicle_id for v in fleet.vehicles() if v.is_empty] == ["c2"]
        assert [v.vehicle_id for v in fleet.nonempty_vehicles()] == ["c1"]

    def test_refresh_after_location_change(self, fleet):
        fleet.add_vehicle(Vehicle("c1", location=1))
        vehicle = fleet.get("c1")
        old_cell = fleet.grid.cell_of_vertex(1)
        vehicle.set_location(17)
        fleet.refresh_vehicle("c1")
        new_cell = fleet.grid.cell_of_vertex(17)
        assert "c1" not in old_cell.empty_vehicles
        assert "c1" in new_cell.empty_vehicles

    def test_dropoff_returns_vehicle_to_empty_lists(self, fleet):
        fleet.add_vehicle(Vehicle("c1", location=1))
        request = Request(start=2, destination=16, riders=1, request_id="R1")
        assign_request(fleet, "c1", request)
        vehicle = fleet.get("c1")
        vehicle.pickup("R1")
        vehicle.dropoff("R1")
        vehicle.set_location(16)
        fleet.refresh_vehicle("c1")
        cell = fleet.grid.cell_of_vertex(16)
        assert "c1" in cell.empty_vehicles
        assert all("c1" not in c.nonempty_vehicles for c in fleet.grid.cells())

    def test_cell_queries(self, fleet):
        fleet.add_vehicle(Vehicle("c1", location=1))
        cell = fleet.grid.cell_of_vertex(1)
        assert cell.empty_vehicles == {"c1"}
        assert cell.nonempty_vehicles == set()
        assert fleet.by_id["c1"] is fleet.get("c1")


class TestRegistrationRule:
    def test_a_nonempty_vehicle_holds_its_location_and_stop_cells_only(self, fleet):
        """Not the cells its legs cross: the 2 -> 17 path runs through vertex
        12, whose cell holds neither the taxi nor a stop."""
        fleet.add_vehicle(Vehicle("c1", location=1))
        assign_request(fleet, "c1", Request(start=2, destination=17, riders=1, request_id="R1"))
        cells = {fleet.grid.cell_of_vertex(vertex).cell_id for vertex in (1, 2, 17)}
        assert fleet.get("c1").registered_cells == cells
        assert {c.cell_id for c in fleet.grid.cells() if "c1" in c.nonempty_vehicles} == cells

    def test_a_served_pickup_leaves_the_location_and_dropoff_cells(self, fleet):
        fleet.add_vehicle(Vehicle("c1", location=1))
        assign_request(fleet, "c1", Request(start=2, destination=17, riders=1, request_id="R1"))
        vehicle = fleet.get("c1")
        pickup = vehicle.kinetic_tree.next_stop(fleet.routing_engine.distance)
        vehicle.arrive_at_stop(pickup)
        vehicle.pickup("R1")
        fleet.refresh_vehicle("c1")
        assert vehicle.registered_cells == {fleet.grid.cell_of_vertex(v).cell_id for v in (2, 17)}
        assert "c1" not in fleet.grid.cell_of_vertex(1).nonempty_vehicles


class TestStatistics:
    def test_occupancy_statistics_empty_fleet(self, fleet):
        stats = fleet.occupancy_statistics()
        assert stats["vehicles"] == 0.0

    def test_occupancy_statistics(self, fleet):
        fleet.add_vehicle(Vehicle("c1", location=1))
        fleet.add_vehicle(Vehicle("c2", location=13))
        request = Request(start=2, destination=16, riders=2, request_id="R1")
        assign_request(fleet, "c1", request)
        fleet.get("c1").pickup("R1")
        stats = fleet.occupancy_statistics()
        assert stats["vehicles"] == 2.0
        assert stats["empty"] == 1.0
        assert stats["nonempty"] == 1.0
        assert stats["average_occupancy"] == pytest.approx(1.0)


class TestRoutingEngineSwap:
    def test_the_new_engine_must_answer_on_the_fleets_network(self, fleet):
        with pytest.raises(VehicleError):
            fleet.set_routing_engine(CSREngine(figure1_network()))
        same = CSREngine(fleet.grid.network, landmarks=2)
        fleet.set_routing_engine(same)
        assert fleet.routing_engine is same
