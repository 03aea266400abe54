"""Constant-speed vehicle motion.

Section 4 of the paper describes the vehicle behaviour of the demonstration:

* vehicles with riders (or assigned pick-ups) follow their planned route;
* idle vehicles follow the current road segment and pick a random segment at
  every intersection;
* a constant speed is assumed (48 km/h in the demo), so travelled *time*
  converts directly to travelled *distance*.

The simulation engine advances every vehicle once per tick.  This module
provides the primitives it uses: route planning along shortest paths and the
arithmetic of moving a vehicle a given distance along a vertex route
(:func:`drive_route`, by index, and :func:`step_along_route` on a
:class:`MotionState`).  The idle random walk draws its hops inside the
engine's per-taxi loop (:meth:`repro.sim.engine.SimulationEngine._wander`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.errors import EdgeNotFoundError, SimulationError
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.routing import RoutingEngine

__all__ = ["MotionState", "drive_route", "plan_route", "step_along_route"]


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

    #: snapshots store a motion as ``[location, route, offset]``
    _durable_positional = True

    @property
    def has_route(self) -> bool:
        """``True`` while there are vertices left to visit."""
        return bool(self.route)


def plan_route(engine: RoutingEngine, source: int, target: int) -> MotionState:
    """Return a motion state that drives the shortest path from ``source`` to ``target``.

    The route is ``engine.path(source, target)``: every backend returns the
    same vertex sequence, so swapping the routing engine never re-routes a
    vehicle.  ``path(v, v)`` is ``(v,)`` and roots no tree, so a vehicle
    standing at its target gets an empty route.
    """
    result = engine.path(source, target)
    return MotionState(location=source, route=result.path[1:], offset=0.0)


def drive_route(
    network: RoadNetwork,
    location: int,
    route: Sequence[int],
    index: int,
    offset: float,
    travel: float,
) -> Tuple[int, int, float, float]:
    """Drive up to ``travel`` distance units along ``route[index:]``.

    The vehicle stands ``offset`` along the edge from ``location`` to
    ``route[index]`` (0 at a vertex).  Edges are stepped by index, so nothing
    is copied or allocated; ``travelled`` is summed edge by edge, in driving
    order, and a vertex counts as reached once the budget left covers the
    rest of its edge (ties included).

    Returns:
        ``(location, index, offset, travelled)``: the last vertex reached,
        the index of the next vertex still ahead (``len(route)`` once
        arrived), the distance driven along the edge towards it and the
        distance driven in total (less than ``travel`` when the route ends
        first).

    Raises:
        EdgeNotFoundError: if two consecutive route vertices are not adjacent.
        SimulationError: if ``offset`` exceeds the length of its edge.
    """
    adjacency = network.adjacency
    end = len(route)
    remaining = travel
    travelled = 0.0
    while index < end and remaining > 0:
        next_vertex = route[index]
        try:
            edge_length = adjacency[location][next_vertex]
        except KeyError:
            raise EdgeNotFoundError(location, next_vertex) from None
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
            index += 1
        else:
            offset += remaining
            travelled += remaining
            remaining = 0.0
    return location, index, offset, travelled


def step_along_route(
    network: RoadNetwork, state: MotionState, travel: float
) -> Tuple[MotionState, float]:
    """Advance a vehicle ``travel`` distance units along its route.

    Args:
        network: the road network the route lives on.
        state: the current motion state.
        travel: distance to drive this tick (``speed * dt``).

    Returns:
        ``(new_state, travelled)`` where ``travelled`` is the distance
        actually driven (it is smaller than ``travel`` when the route ends
        early).

    Raises:
        SimulationError: for negative ``travel`` or an offset longer than its
            edge.
        EdgeNotFoundError: for a route that references a missing edge.
    """
    if travel < 0:
        raise SimulationError(f"travel must be non-negative, got {travel}")
    location, index, offset, travelled = drive_route(
        network, state.location, state.route, 0, state.offset, travel
    )
    return MotionState(location=location, route=state.route[index:], offset=offset), travelled
