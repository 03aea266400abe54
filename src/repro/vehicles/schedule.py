"""Trip-schedule feasibility machinery (Definition 2 of the paper).

A *valid* vehicle trip schedule must satisfy four conditions:

1. **Capacity** -- the number of riders on board never exceeds the vehicle's
   capacity;
2. **Point order** -- a request's pick-up appears before its drop-off, and
   both appear after the position where the vehicle received the request;
3. **Waiting time** -- for every not-yet-picked-up request, the distance from
   the vehicle's current location to the pick-up under the *actual* schedule
   may exceed the distance under the *planned* schedule by at most ``w``;
4. **Service constraint** -- the distance actually travelled between a
   request's start and destination may not exceed
   ``(1 + epsilon) * dist(s, d)``.

This module holds the per-request budgets those conditions read
(:class:`RequestState`) and the distance of an explicit stop sequence.
:mod:`repro.core.insertion` decides the four conditions for all insertions
of a request at once, without building the sequences; the test suite holds
it to a per-sequence check, ``check_schedule`` in
``tests/insertion_reference.py``.

All checks are expressed in *distance units*: the paper assumes a constant
vehicle speed, so waiting times translate directly into distances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence

from repro.model.request import Request
from repro.model.stops import Stop

__all__ = [
    "DistanceFunction",
    "RequestState",
    "prefix_distances",
    "schedule_distance",
]

#: Signature of the shortest-path distance callback used throughout the
#: vehicle layer: ``distance(u, v) -> float``.
DistanceFunction = Callable[[int, int], float]


@dataclass(frozen=True)
class RequestState:
    """Constraint bookkeeping for one unfinished request of a vehicle.

    Attributes:
        request: the request itself.
        onboard: ``True`` once the riders have been picked up.
        direct_distance: ``dist(s, d)`` on the road network, cached at
            assignment time.
        planned_pickup_remaining: for waiting requests, the distance from the
            vehicle's *current* location to the pick-up under the schedule
            that was promised when the request was assigned.  It shrinks as
            the vehicle advances; the waiting-time condition compares any new
            schedule against it.
        travelled_since_pickup: for onboard requests, the distance travelled
            since the riders boarded; the service condition subtracts it from
            the total detour budget.
    """

    request: Request
    onboard: bool = False
    direct_distance: float = 0.0
    planned_pickup_remaining: float = 0.0
    travelled_since_pickup: float = 0.0

    def remaining_service_budget(self) -> float:
        """Distance still allowed between (remaining) pick-up and drop-off."""
        budget = self.request.detour_budget(self.direct_distance)
        if self.onboard:
            return budget - self.travelled_since_pickup
        return budget

    def waiting_budget(self) -> float:
        """Maximum pick-up distance allowed under the waiting-time condition."""
        return self.planned_pickup_remaining + self.request.max_waiting


def prefix_distances(
    origin: int,
    stops: Sequence[Stop],
    distance: DistanceFunction,
    origin_offset: float = 0.0,
) -> List[float]:
    """Return cumulative travel distances from ``origin`` to every stop.

    ``origin_offset`` accounts for a vehicle that is part-way along an edge
    towards ``origin`` (its next vertex); the offset is added to every prefix.
    """
    result: List[float] = []
    total = origin_offset
    previous = origin
    for stop in stops:
        total += distance(previous, stop.vertex)
        result.append(total)
        previous = stop.vertex
    return result


def schedule_distance(
    origin: int,
    stops: Sequence[Stop],
    distance: DistanceFunction,
    origin_offset: float = 0.0,
) -> float:
    """Return the total travel distance of a stop sequence from ``origin``."""
    if not stops:
        return origin_offset
    return prefix_distances(origin, stops, distance, origin_offset)[-1]
