"""Mutable per-vehicle state.

Section 3.2.2 of the paper represents each vehicle by its identifier, its
current location, its set of unfinished ridesharing requests (sorted by
timestamp) and its set of valid trip schedules (the kinetic tree).
:class:`Vehicle` implements that record and adds the bookkeeping the
constraint checks of Definition 2 need while the vehicle moves:

* for every *waiting* (assigned but not yet picked-up) request, the remaining
  distance to its pick-up under the schedule that was promised at assignment
  time (the waiting-time condition compares new schedules against it);
* for every *onboard* request, the distance travelled since pick-up (the
  service condition subtracts it from the detour budget).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.errors import CapacityExceededError, InvalidScheduleError, VehicleError
from repro.model.request import Request
from repro.model.stops import Stop
from repro.vehicles.kinetic_tree import KineticTree
from repro.vehicles.schedule import RequestState

__all__ = ["Vehicle"]


class Vehicle:
    """One taxi of the fleet.

    Args:
        vehicle_id: unique identifier.
        location: current vertex (or, while driving along an edge, the next
            vertex the vehicle will reach).
        capacity: maximum number of riders on board at any time.
        offset: remaining distance until ``location`` is reached (0 when the
            vehicle sits exactly at the vertex).
    """

    def __init__(self, vehicle_id: str, location: int, capacity: int = 4, offset: float = 0.0) -> None:
        if capacity < 1:
            raise VehicleError(f"vehicle {vehicle_id}: capacity must be >= 1, got {capacity}")
        if offset < 0:
            raise VehicleError(f"vehicle {vehicle_id}: offset must be non-negative, got {offset}")
        self.vehicle_id = vehicle_id
        self.capacity = capacity
        self._location = location
        self._offset = float(offset)
        self._waiting: Dict[str, RequestState] = {}
        self._onboard: Dict[str, RequestState] = {}
        self._assignment_order: List[str] = []
        self.kinetic_tree = KineticTree(root_location=location)
        #: bumped by every mutator below (see :meth:`stamp`)
        self.revision = 0
        #: grid cells the vehicle is currently registered in (managed by the fleet)
        self.registered_cells: set = set()
        #: distance driven in total (statistics)
        self.distance_driven: float = 0.0
        #: distance driven while at least one rider was on board (statistics)
        self.occupied_distance: float = 0.0

    # ------------------------------------------------------------------
    # location
    # ------------------------------------------------------------------
    @property
    def location(self) -> int:
        """The vertex the vehicle is at (or about to reach)."""
        return self._location

    @property
    def offset(self) -> float:
        """Remaining distance until :attr:`location` is reached."""
        return self._offset

    def set_location(self, vertex: int, offset: float = 0.0) -> None:
        """Teleport the vehicle (used at initialisation and by the movement model)."""
        if offset < 0:
            raise VehicleError(f"offset must be non-negative, got {offset}")
        self._location = vertex
        self._offset = float(offset)
        self.kinetic_tree.set_root_location(vertex)
        self.revision += 1

    def stamp(self) -> Tuple[int, KineticTree, int]:
        """What the vehicle's state is stamped with: equal stamps of one
        ``Vehicle`` object mean nothing an insertion depends on (location,
        offset, request budgets, kinetic tree) changed in between.  The
        tree's own counter covers callers that mutate the tree directly.
        """
        return (self.revision, self.kinetic_tree, self.kinetic_tree.revision)

    # ------------------------------------------------------------------
    # request bookkeeping
    # ------------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        """Number of riders currently on board."""
        return sum(state.request.riders for state in self._onboard.values())

    @property
    def is_empty(self) -> bool:
        """``True`` when the vehicle has no unfinished request (empty vehicle)."""
        return not self._waiting and not self._onboard

    @property
    def waiting_requests(self) -> Dict[str, RequestState]:
        """Requests assigned but not yet picked up (read-only copy)."""
        return dict(self._waiting)

    @property
    def onboard_requests(self) -> Dict[str, RequestState]:
        """Requests currently riding (read-only copy)."""
        return dict(self._onboard)

    def request_states(self) -> Dict[str, RequestState]:
        """All unfinished requests keyed by id (waiting and onboard)."""
        states = dict(self._waiting)
        states.update(self._onboard)
        return states

    def unfinished_request_ids(self) -> List[str]:
        """Request ids in assignment (timestamp) order, as the paper stores them."""
        return [rid for rid in self._assignment_order if rid in self._waiting or rid in self._onboard]

    def has_request(self, request_id: str) -> bool:
        """``True`` when the request is currently assigned to this vehicle."""
        return request_id in self._waiting or request_id in self._onboard

    # ------------------------------------------------------------------
    # assignment / pick-up / drop-off transitions
    # ------------------------------------------------------------------
    def assign(
        self,
        request: Request,
        planned_pickup_distance: float,
        direct_distance: float,
        schedules: List[Tuple[Stop, ...]],
    ) -> None:
        """Assign ``request`` to the vehicle and install its new schedule set.

        Args:
            request: the accepted request.
            planned_pickup_distance: the pick-up distance promised to the
                rider (from the chosen option).
            direct_distance: ``dist(s, d)`` for the request.
            schedules: every valid schedule containing the new request's
                stops; they become the vehicle's kinetic tree.

        Raises:
            VehicleError: if the request is already assigned.
            CapacityExceededError: if the request alone exceeds capacity.
            InvalidScheduleError: if ``schedules`` is empty.
        """
        if self.has_request(request.request_id):
            raise VehicleError(f"request {request.request_id} is already assigned to {self.vehicle_id}")
        if request.riders > self.capacity:
            raise CapacityExceededError(
                f"request {request.request_id} has {request.riders} riders, "
                f"vehicle {self.vehicle_id} capacity is {self.capacity}"
            )
        if not schedules:
            raise InvalidScheduleError(
                f"assigning {request.request_id} to {self.vehicle_id} requires at least one schedule"
            )
        self._waiting[request.request_id] = RequestState(
            request=request,
            onboard=False,
            direct_distance=direct_distance,
            planned_pickup_remaining=planned_pickup_distance,
            travelled_since_pickup=0.0,
        )
        self._assignment_order.append(request.request_id)
        self.kinetic_tree.set_schedules(schedules)
        self.revision += 1

    def pickup(self, request_id: str) -> RequestState:
        """Move a waiting request on board (called when the vehicle reaches its start).

        Raises:
            VehicleError: if the request is not waiting on this vehicle.
            CapacityExceededError: if boarding would exceed capacity.
        """
        state = self._waiting.pop(request_id, None)
        if state is None:
            raise VehicleError(f"request {request_id} is not waiting on vehicle {self.vehicle_id}")
        if self.occupancy + state.request.riders > self.capacity:
            self._waiting[request_id] = state
            raise CapacityExceededError(
                f"picking up {request_id} would exceed the capacity of {self.vehicle_id}"
            )
        boarded = RequestState(
            request=state.request,
            onboard=True,
            direct_distance=state.direct_distance,
            planned_pickup_remaining=0.0,
            travelled_since_pickup=0.0,
        )
        self._onboard[request_id] = boarded
        self.revision += 1
        return boarded

    def dropoff(self, request_id: str) -> RequestState:
        """Remove an onboard request (called when the vehicle reaches its destination).

        Raises:
            VehicleError: if the request is not on board.
        """
        state = self._onboard.pop(request_id, None)
        if state is None:
            raise VehicleError(f"request {request_id} is not on board vehicle {self.vehicle_id}")
        if request_id in self._assignment_order:
            self._assignment_order.remove(request_id)
        self.revision += 1
        return state

    # ------------------------------------------------------------------
    # movement bookkeeping
    # ------------------------------------------------------------------
    def record_progress(self, travelled: float) -> None:
        """Account for ``travelled`` distance units of driving.

        Waiting requests see their planned pick-up distance shrink (never
        below zero); onboard requests accumulate travelled distance against
        their detour budgets; fleet statistics are updated.

        Raises:
            VehicleError: for negative ``travelled``.
        """
        if travelled < 0:
            raise VehicleError(f"travelled distance must be non-negative, got {travelled}")
        if travelled == 0:
            return
        self.revision += 1
        self.distance_driven += travelled
        if not self._waiting and not self._onboard:
            return  # nothing assigned: an idle leg
        if self._onboard:
            self.occupied_distance += travelled
        for request_id, state in list(self._waiting.items()):
            # The remaining planned distance may go negative: that encodes a
            # vehicle that is already later than promised, so any further
            # insertion only gets the *unused* part of the waiting budget
            # (Definition 2, condition 3).
            self._waiting[request_id] = RequestState(
                request=state.request,
                onboard=False,
                direct_distance=state.direct_distance,
                planned_pickup_remaining=state.planned_pickup_remaining - travelled,
                travelled_since_pickup=0.0,
            )
        for request_id, state in list(self._onboard.items()):
            self._onboard[request_id] = RequestState(
                request=state.request,
                onboard=True,
                direct_distance=state.direct_distance,
                planned_pickup_remaining=0.0,
                travelled_since_pickup=state.travelled_since_pickup + travelled,
            )

    # ------------------------------------------------------------------
    # schedule helpers
    # ------------------------------------------------------------------
    def current_schedules(self) -> List[Tuple[Stop, ...]]:
        """Return the valid schedules of the kinetic tree."""
        return self.kinetic_tree.schedules()

    def arrive_at_stop(self, stop: Stop) -> None:
        """Advance the kinetic tree through ``stop`` and update the location."""
        self.kinetic_tree.advance_through(stop)
        self._location = stop.vertex
        self._offset = 0.0
        self.revision += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Vehicle({self.vehicle_id!r}, location={self._location}, capacity={self.capacity}, "
            f"occupancy={self.occupancy}, waiting={len(self._waiting)}, onboard={len(self._onboard)})"
        )
