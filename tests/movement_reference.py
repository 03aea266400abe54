"""Independent reference for ``SimulationEngine``'s vehicle movement.

The engine drives each taxi once per tick: a serving taxi steps its planned
route by index (``repro.vehicles.movement.drive_route``) and an empty one
spends the rest of its budget in one wander loop that writes its state back
once.  What it replaced is kept here verbatim as the float- and RNG-exact
oracle:

* :func:`random_idle_route` -- three random hops drawn into a fresh
  ``MotionState`` per leg;
* :func:`step_along_route` -- the list-copying, ``pop(0)`` step that also
  returned the vertices it reached;
* :class:`ReferenceSimulationEngine` -- the engine with the old per-leg loop
  (``_advance_idle`` / ``_advance_serving``, state written back after every
  leg, cells looked up as ``GridCell`` objects).

After every tick the engine and the reference must agree on the RNG state,
``_motions``, ``_targets``, every vehicle's ``location``, ``offset`` and
``distance_driven`` (bit-equal) and the registered grid cells
(``tests/property/test_movement_kernel.py``).
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.errors import SimulationError
from repro.roadnet.graph import RoadNetwork
from repro.sim.engine import SimulationEngine
from repro.vehicles.movement import MotionState
from repro.vehicles.vehicle import Vehicle


def random_idle_route(
    network: RoadNetwork, location: int, rng: random.Random, hops: int = 1
) -> MotionState:
    """Return a short random wander for an idle vehicle: ``hops`` random
    neighbours chained from ``location`` (fewer at a dead end)."""
    if hops < 1:
        raise SimulationError(f"hops must be >= 1, got {hops}")
    route: List[int] = []
    current = location
    for _ in range(hops):
        neighbours = list(network.neighbours_view(current))
        if not neighbours:
            break
        nxt = rng.choice(neighbours)
        route.append(nxt)
        current = nxt
    return MotionState(location=location, route=tuple(route), offset=0.0)


def step_along_route(
    network: RoadNetwork, state: MotionState, travel: float
) -> Tuple[MotionState, float, List[int]]:
    """Advance ``travel`` along the route: ``(new_state, travelled, reached)``."""
    if travel < 0:
        raise SimulationError(f"travel must be non-negative, got {travel}")
    location = state.location
    offset = state.offset
    route = list(state.route)
    remaining = travel
    travelled = 0.0
    reached: List[int] = []

    while route and remaining > 0:
        next_vertex = route[0]
        edge_length = network.edge_weight(location, next_vertex)
        to_next = edge_length - offset
        if to_next < 0:
            raise SimulationError(
                f"inconsistent motion state: offset {offset} exceeds edge length {edge_length}"
            )
        if remaining >= to_next:
            travelled += to_next
            remaining -= to_next
            location = next_vertex
            offset = 0.0
            reached.append(next_vertex)
            route.pop(0)
        else:
            offset += remaining
            travelled += remaining
            remaining = 0.0
    return MotionState(location=location, route=tuple(route), offset=offset), travelled, reached


class ReferenceSimulationEngine(SimulationEngine):
    """``SimulationEngine`` with the per-leg movement loop it replaced."""

    def _advance_vehicle(self, vehicle: Vehicle, budget: float) -> None:
        if vehicle.is_empty and not self._idle_wander:
            return
        previous_cell = self._fleet.grid.cell_of_vertex(vehicle.location).cell_id
        guard = 0
        while budget > 1e-9:
            guard += 1
            if guard > 10_000:
                raise SimulationError(f"vehicle {vehicle.vehicle_id} made no progress")
            if vehicle.is_empty:
                travelled = self._advance_idle(vehicle, budget)
            else:
                travelled = self._advance_serving(vehicle, budget)
            if travelled <= 0:
                break
            budget -= travelled
        current_cell = self._fleet.grid.cell_of_vertex(vehicle.location).cell_id
        if current_cell != previous_cell:
            self._fleet.refresh_vehicle(vehicle.vehicle_id)

    def _advance_idle(self, vehicle: Vehicle, budget: float) -> float:
        if not self._idle_wander:
            return 0.0
        motion = self._motions.get(vehicle.vehicle_id)
        if motion is None or not motion.has_route:
            anchor = motion.location if motion is not None else vehicle.location
            motion = random_idle_route(self._network, anchor, self._rng, hops=3)
            self._targets[vehicle.vehicle_id] = None
        new_motion, travelled, _reached = step_along_route(self._network, motion, budget)
        self._motions[vehicle.vehicle_id] = new_motion
        self._sync_vehicle_location(vehicle, new_motion)
        vehicle.record_progress(travelled)
        return travelled

    def _advance_serving(self, vehicle: Vehicle, budget: float) -> float:
        next_stop = vehicle.kinetic_tree.next_stop(self._oracle.distance, vehicle.offset)
        if next_stop is None:
            return 0.0
        motion = self._motions.get(vehicle.vehicle_id)
        if motion is None:
            motion = MotionState(location=vehicle.location)
        if self._targets.get(vehicle.vehicle_id) != next_stop.vertex or not motion.has_route:
            motion = self._plan_towards(motion, next_stop.vertex)
            self._targets[vehicle.vehicle_id] = next_stop.vertex
        if not motion.has_route and motion.location == next_stop.vertex:
            self._motions[vehicle.vehicle_id] = motion
            self._sync_vehicle_location(vehicle, motion)
            self._serve_stops_at_current_vertex(vehicle)
            self._targets[vehicle.vehicle_id] = None
            return min(budget, 1e-9) if budget > 1e-9 else 0.0
        new_motion, travelled, _reached = step_along_route(self._network, motion, budget)
        self._motions[vehicle.vehicle_id] = new_motion
        self._sync_vehicle_location(vehicle, new_motion)
        vehicle.record_progress(travelled)
        if not new_motion.has_route and new_motion.location == next_stop.vertex:
            self._serve_stops_at_current_vertex(vehicle)
            self._targets[vehicle.vehicle_id] = None
        return travelled
