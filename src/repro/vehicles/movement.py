"""Constant-speed vehicle motion.

Section 4 of the paper describes the vehicle behaviour of the demonstration:

* vehicles with riders (or assigned pick-ups) follow their planned route;
* idle vehicles follow the current road segment and pick a random segment at
  every intersection;
* a constant speed is assumed (48 km/h in the demo), so travelled *time*
  converts directly to travelled *distance*.

The simulation engine advances every vehicle once per tick.  This module
provides the primitives it uses: route planning along shortest paths, random
idle wandering and the arithmetic of moving a vehicle a given distance along
a vertex route.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.routing import RoutingEngine

__all__ = ["MotionState", "plan_route", "random_idle_route", "step_along_route"]


@dataclass(frozen=True)
class MotionState:
    """Where a vehicle is along its current route.

    Attributes:
        location: the vertex the vehicle last reached (or starts from).
        route: the vertices still ahead of the vehicle, in driving order
            (``route[0]`` is the next vertex); empty when the vehicle has
            arrived.
        offset: distance already driven along the edge towards ``route[0]``.
    """

    location: int
    route: Tuple[int, ...] = ()
    offset: float = 0.0

    @property
    def has_route(self) -> bool:
        """``True`` while there are vertices left to visit."""
        return bool(self.route)

    @property
    def next_vertex(self) -> Optional[int]:
        """The next vertex on the route, or ``None`` when arrived."""
        return self.route[0] if self.route else None

    def remaining_distance(self, network: RoadNetwork) -> float:
        """Distance left to drive until the end of the route."""
        if not self.route:
            return 0.0
        total = network.edge_weight(self.location, self.route[0]) - self.offset
        previous = self.route[0]
        for vertex in self.route[1:]:
            total += network.edge_weight(previous, vertex)
            previous = vertex
        return total


def plan_route(engine: RoutingEngine, source: int, target: int) -> MotionState:
    """Return a motion state that drives the shortest path from ``source`` to ``target``.

    The route is ``engine.path(source, target)``: every backend returns the
    same vertex sequence, so swapping the routing engine never re-routes a
    vehicle.
    """
    if source == target:
        return MotionState(location=source)
    result = engine.path(source, target)
    return MotionState(location=source, route=result.path[1:], offset=0.0)


def random_idle_route(
    network: RoadNetwork, location: int, rng: random.Random, hops: int = 1
) -> MotionState:
    """Return a short random wander for an idle vehicle.

    The vehicle picks a random neighbour at each intersection, as described in
    Section 4 of the paper.  ``hops`` neighbours are chained so the engine
    does not need to re-plan every tick.
    """
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
    """Advance a vehicle ``travel`` distance units along its route.

    Args:
        network: the road network the route lives on.
        state: the current motion state.
        travel: distance to drive this tick (``speed * dt``).

    Returns:
        A tuple ``(new_state, travelled, reached)`` where ``travelled`` is the
        distance actually driven (it is smaller than ``travel`` when the route
        ends early) and ``reached`` lists the vertices passed this tick in
        driving order.

    Raises:
        SimulationError: for negative ``travel`` or a route that references a
            missing edge.
    """
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
            # the vehicle reaches (at least) the next vertex this tick
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
