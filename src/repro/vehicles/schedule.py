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

The functions in this module evaluate those conditions for explicit stop
sequences; :mod:`repro.vehicles.kinetic_tree` builds on them to maintain the
set of all valid schedules per vehicle.  :mod:`repro.core.insertion` decides
the same conditions for all insertions of a request at once, without building
the sequences; the test suite holds it to :func:`check_schedule`.

All checks are expressed in *distance units*: the paper assumes a constant
vehicle speed, so waiting times translate directly into distances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.model.request import Request
from repro.model.stops import Stop

__all__ = [
    "DistanceFunction",
    "RequestState",
    "FeasibilityResult",
    "ScheduleMetrics",
    "evaluate_schedule",
    "check_schedule",
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

    @property
    def request_id(self) -> str:
        """Identifier of the underlying request."""
        return self.request.request_id

    def remaining_service_budget(self) -> float:
        """Distance still allowed between (remaining) pick-up and drop-off."""
        budget = self.request.detour_budget(self.direct_distance)
        if self.onboard:
            return budget - self.travelled_since_pickup
        return budget

    def waiting_budget(self) -> float:
        """Maximum pick-up distance allowed under the waiting-time condition."""
        return self.planned_pickup_remaining + self.request.max_waiting


@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of a schedule validity check."""

    feasible: bool
    reason: str = ""
    violated_request_id: Optional[str] = None

    def __bool__(self) -> bool:
        return self.feasible

    @classmethod
    def ok(cls) -> "FeasibilityResult":
        """A successful check."""
        return cls(feasible=True)

    @classmethod
    def violation(cls, reason: str, request_id: Optional[str] = None) -> "FeasibilityResult":
        """A failed check with a human-readable reason."""
        return cls(feasible=False, reason=reason, violated_request_id=request_id)


@dataclass(frozen=True)
class ScheduleMetrics:
    """Distance metrics of a stop sequence measured from a given origin."""

    total_distance: float
    prefix: Tuple[float, ...]
    pickup_distance: Dict[str, float]
    dropoff_distance: Dict[str, float]


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


def evaluate_schedule(
    origin: int,
    stops: Sequence[Stop],
    distance: DistanceFunction,
    origin_offset: float = 0.0,
) -> ScheduleMetrics:
    """Compute the distance metrics of a stop sequence.

    Returns:
        A :class:`ScheduleMetrics` with the total distance, per-stop prefix
        distances and, for every request appearing in the sequence, the
        distance to its pick-up and drop-off stops.
    """
    prefix = prefix_distances(origin, stops, distance, origin_offset)
    pickup_distance: Dict[str, float] = {}
    dropoff_distance: Dict[str, float] = {}
    for index, stop in enumerate(stops):
        if stop.is_pickup:
            pickup_distance[stop.request_id] = prefix[index]
        else:
            dropoff_distance[stop.request_id] = prefix[index]
    total = prefix[-1] if prefix else origin_offset
    return ScheduleMetrics(
        total_distance=total,
        prefix=tuple(prefix),
        pickup_distance=pickup_distance,
        dropoff_distance=dropoff_distance,
    )


def check_schedule(
    origin: int,
    stops: Sequence[Stop],
    capacity: int,
    onboard_riders: int,
    request_states: Mapping[str, RequestState],
    distance: DistanceFunction,
    origin_offset: float = 0.0,
    metrics: Optional[ScheduleMetrics] = None,
) -> FeasibilityResult:
    """Check the four validity conditions of Definition 2 for a stop sequence.

    Args:
        origin: the vehicle's current location (its next vertex).
        stops: the candidate stop sequence.
        capacity: vehicle capacity.
        onboard_riders: riders already in the vehicle before the first stop.
        request_states: state of every unfinished request appearing in the
            sequence, keyed by request id.
        distance: shortest-path distance callback.
        origin_offset: remaining distance to reach ``origin`` (for vehicles
            travelling along an edge).
        metrics: optionally pre-computed metrics for ``stops`` (to avoid
            recomputation when the caller already evaluated the sequence).

    Returns:
        :class:`FeasibilityResult` describing the first violated condition,
        or a success result when the schedule is valid.
    """
    # --- structural / point-order checks (no distances needed) -----------
    seen_pickup: Dict[str, int] = {}
    seen_dropoff: Dict[str, int] = {}
    for index, stop in enumerate(stops):
        state = request_states.get(stop.request_id)
        if state is None:
            return FeasibilityResult.violation(
                f"stop references unknown request {stop.request_id}", stop.request_id
            )
        if stop.is_pickup:
            if state.onboard:
                return FeasibilityResult.violation(
                    f"request {stop.request_id} is already on board but has a pick-up stop",
                    stop.request_id,
                )
            if stop.request_id in seen_pickup:
                return FeasibilityResult.violation(
                    f"request {stop.request_id} has two pick-up stops", stop.request_id
                )
            seen_pickup[stop.request_id] = index
        else:
            if stop.request_id in seen_dropoff:
                return FeasibilityResult.violation(
                    f"request {stop.request_id} has two drop-off stops", stop.request_id
                )
            seen_dropoff[stop.request_id] = index

    for request_id, state in request_states.items():
        if request_id not in seen_dropoff:
            return FeasibilityResult.violation(
                f"request {request_id} has no drop-off stop", request_id
            )
        if not state.onboard:
            if request_id not in seen_pickup:
                return FeasibilityResult.violation(
                    f"waiting request {request_id} has no pick-up stop", request_id
                )
            if seen_pickup[request_id] > seen_dropoff[request_id]:
                return FeasibilityResult.violation(
                    f"request {request_id} is dropped off before being picked up", request_id
                )
        elif request_id in seen_pickup:
            return FeasibilityResult.violation(
                f"onboard request {request_id} must not be picked up again", request_id
            )

    # --- capacity ---------------------------------------------------------
    occupancy = onboard_riders
    for stop in stops:
        occupancy += stop.occupancy_delta
        if occupancy > capacity:
            return FeasibilityResult.violation(
                f"capacity exceeded after {stop}: {occupancy} > {capacity}", stop.request_id
            )
        if occupancy < 0:
            return FeasibilityResult.violation(
                f"negative occupancy after {stop}", stop.request_id
            )

    # --- distance-based checks (waiting time, service constraint) ---------
    if metrics is None:
        metrics = evaluate_schedule(origin, stops, distance, origin_offset)

    for request_id, state in request_states.items():
        if not state.onboard:
            pickup_at = metrics.pickup_distance[request_id]
            if pickup_at > state.waiting_budget() + 1e-9:
                return FeasibilityResult.violation(
                    f"waiting-time constraint violated for {request_id}: "
                    f"{pickup_at:.6g} > {state.waiting_budget():.6g}",
                    request_id,
                )
            travelled = metrics.dropoff_distance[request_id] - pickup_at
        else:
            travelled = metrics.dropoff_distance[request_id]
        if travelled > state.remaining_service_budget() + 1e-9:
            return FeasibilityResult.violation(
                f"service constraint violated for {request_id}: "
                f"{travelled:.6g} > {state.remaining_service_budget():.6g}",
                request_id,
            )
    return FeasibilityResult.ok()
