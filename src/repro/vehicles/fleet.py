"""The vehicle index of PTRider.

The grid index of Section 3.2.1 keeps, per grid cell, an *empty vehicle list*
(vehicles without assigned requests currently located in the cell) and a
*non-empty vehicle list* (vehicles whose trip schedule intersects the cell).
:class:`Fleet` owns the vehicles and keeps those per-cell lists in sync with
vehicle state: every time a vehicle moves, is assigned a request, picks up or
drops off riders, the dispatcher (or the simulation engine) calls
:meth:`Fleet.refresh_vehicle`.

Registration
------------
One rule: an empty vehicle is registered with the cell of its location, a
non-empty vehicle with the cells of its location and of every stop on its
kinetic-tree branches.  Section 3.2.1 also registers a non-empty vehicle
with every cell the shortest paths between its consecutive stops cross.
Those extra cells only let the cell walk meet the vehicle sooner: the
walk's cut-offs reason about a vehicle's location cell, which both rules
register, and every option comes from the exact insertion check.  So the
crossed cells can only tighten pruning (more vehicles screened against an
early skyline); they add no option.  Expanding every leg into its vertex
path costs a path query per leg on every refresh, so the fleet does not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Set, Tuple

from repro.errors import UnknownVehicleError, VehicleError
from repro.model.stops import Stop
from repro.roadnet.grid_index import CellId, GridIndex
from repro.roadnet.routing import RoutingEngine
from repro.vehicles.kinetic_tree import KineticTree
from repro.vehicles.schedule import RequestState
from repro.vehicles.vehicle import Vehicle

__all__ = [
    "Fleet",
    "VehicleSnapshot",
    "snapshot_vehicle",
    "restore_vehicle",
]


@dataclass(frozen=True)
class VehicleSnapshot:
    """A flat snapshot of one vehicle's dispatch-relevant state.

    Frozen dataclasses and primitives only (no grid registrations, no
    back-references); the vehicle :func:`restore_vehicle` rebuilds from it
    is state-identical for every check the matchers run (waiting/onboard
    budgets, kinetic tree, assignment order).  Recovery stores vehicles
    as these.
    """

    vehicle_id: str
    location: int
    capacity: int
    offset: float
    waiting: Dict[str, RequestState]
    onboard: Dict[str, RequestState]
    #: unfinished request ids in assignment order
    order: List[str]
    schedules: List[Tuple[Stop, ...]]
    distance_driven: float
    occupied_distance: float


def snapshot_vehicle(vehicle: Vehicle) -> VehicleSnapshot:
    """The :class:`VehicleSnapshot` of ``vehicle``."""
    return VehicleSnapshot(
        vehicle.vehicle_id,
        vehicle.location,
        vehicle.capacity,
        vehicle.offset,
        vehicle.waiting_requests,
        vehicle.onboard_requests,
        vehicle.unfinished_request_ids(),
        vehicle.current_schedules(),
        vehicle.distance_driven,
        vehicle.occupied_distance,
    )


def restore_vehicle(snapshot: VehicleSnapshot) -> Vehicle:
    """Rebuild a :class:`Vehicle` from a :func:`snapshot_vehicle` snapshot."""
    vehicle = Vehicle(
        snapshot.vehicle_id,
        location=snapshot.location,
        capacity=snapshot.capacity,
        offset=snapshot.offset,
    )
    vehicle._waiting = dict(snapshot.waiting)
    vehicle._onboard = dict(snapshot.onboard)
    vehicle._assignment_order = list(snapshot.order)
    if snapshot.schedules:
        vehicle.kinetic_tree = KineticTree(
            root_location=snapshot.location, schedules=snapshot.schedules
        )
    vehicle.distance_driven = snapshot.distance_driven
    vehicle.occupied_distance = snapshot.occupied_distance
    return vehicle


class Fleet:
    """Container of every vehicle plus the per-cell vehicle lists.

    Args:
        grid: the grid index of the road network.
        oracle: the routing engine answering shortest-path queries (used by
            the matchers and the dispatcher).
    """

    def __init__(self, grid: GridIndex, oracle: RoutingEngine) -> None:
        self._grid = grid
        self._engine = oracle
        self._vehicles: Dict[str, Vehicle] = {}

    @property
    def grid(self) -> GridIndex:
        """The grid index the fleet is registered in."""
        return self._grid

    @property
    def routing_engine(self) -> RoutingEngine:
        """The routing engine shared with the matchers."""
        return self._engine

    @property
    def oracle(self) -> RoutingEngine:
        """Backwards-compatible alias for :attr:`routing_engine`."""
        return self._engine

    def set_routing_engine(self, engine: RoutingEngine) -> None:
        """Swap the routing engine (admin panel routing-backend changes).

        Matchers and dispatchers built before the swap keep the old engine;
        the service layer rebuilds them right after calling this.
        """
        if engine.network is not self._grid.network:
            raise VehicleError("the new routing engine must answer on the fleet's road network")
        self._engine = engine

    def vehicle_ids(self) -> List[str]:
        """Return every registered vehicle id."""
        return list(self._vehicles)

    @property
    def by_id(self) -> Mapping[str, Vehicle]:
        """Every registered vehicle by id (a read-only view for the grid walks)."""
        return self._vehicles

    def get(self, vehicle_id: str) -> Vehicle:
        """Return the vehicle with ``vehicle_id``.

        Raises:
            UnknownVehicleError: when the vehicle is not registered.
        """
        try:
            return self._vehicles[vehicle_id]
        except KeyError:
            raise UnknownVehicleError(vehicle_id) from None

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def add_vehicle(self, vehicle: Vehicle) -> None:
        """Register a vehicle and place it in the grid lists.

        Raises:
            VehicleError: when a vehicle with the same id already exists.
        """
        if vehicle.vehicle_id in self._vehicles:
            raise VehicleError(f"vehicle {vehicle.vehicle_id} is already registered")
        self._vehicles[vehicle.vehicle_id] = vehicle
        self.refresh_vehicle(vehicle.vehicle_id)

    def refresh_vehicle(self, vehicle_id: str) -> None:
        """Re-register ``vehicle_id`` in the grid lists after a state change.

        Call this whenever the vehicle's location changed cell, a request was
        assigned / picked up / dropped off, or its kinetic tree changed.
        """
        vehicle = self.get(vehicle_id)
        self._clear_cells(vehicle)
        if vehicle.is_empty:
            cell_id = self._grid.register_empty_vehicle(vehicle.vehicle_id, vehicle.location)
            vehicle.registered_cells = {cell_id}
            return
        cells = self._schedule_cells(vehicle)
        self._grid.register_nonempty_vehicle(vehicle.vehicle_id, cells)
        vehicle.registered_cells = set(cells)

    def _clear_cells(self, vehicle: Vehicle) -> None:
        if not vehicle.registered_cells:
            return
        if vehicle.is_empty:
            # The vehicle may have just transitioned; clear it from both list
            # kinds to stay consistent regardless of its previous state.
            for cell_id in vehicle.registered_cells:
                self._grid.unregister_empty_vehicle(vehicle.vehicle_id, cell_id)
                self._grid.unregister_nonempty_vehicle(vehicle.vehicle_id, [cell_id])
        else:
            for cell_id in vehicle.registered_cells:
                self._grid.unregister_empty_vehicle(vehicle.vehicle_id, cell_id)
            self._grid.unregister_nonempty_vehicle(vehicle.vehicle_id, vehicle.registered_cells)
        vehicle.registered_cells = set()

    def _schedule_cells(self, vehicle: Vehicle) -> Set[CellId]:
        """Cells a non-empty vehicle must be registered in."""
        vertices: Set[int] = {vehicle.location}
        for schedule in vehicle.kinetic_tree.schedules():
            for stop in schedule:
                vertices.add(stop.vertex)
        return self._grid.cells_on_path(sorted(vertices))

    # ------------------------------------------------------------------
    # queries used by the matchers
    # ------------------------------------------------------------------
    def vehicles(self) -> List[Vehicle]:
        """Return every vehicle (sorted by id, for deterministic iteration)."""
        return [self._vehicles[vid] for vid in sorted(self._vehicles)]

    def nonempty_vehicles(self) -> List[Vehicle]:
        """Return every non-empty vehicle."""
        return [vehicle for vehicle in self.vehicles() if not vehicle.is_empty]

    def occupancy_statistics(self) -> Dict[str, float]:
        """Return aggregate fleet statistics (for the website admin view)."""
        vehicles = self.vehicles()
        if not vehicles:
            return {"vehicles": 0.0, "empty": 0.0, "nonempty": 0.0, "average_occupancy": 0.0}
        empty = sum(1 for vehicle in vehicles if vehicle.is_empty)
        total_occupancy = sum(vehicle.occupancy for vehicle in vehicles)
        return {
            "vehicles": float(len(vehicles)),
            "empty": float(empty),
            "nonempty": float(len(vehicles) - empty),
            "average_occupancy": total_occupancy / len(vehicles),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Fleet(vehicles={len(self._vehicles)}, grid={self._grid!r})"

