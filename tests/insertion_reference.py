"""Independent references for ``repro.core.insertion.insertion_candidates``.

Two oracles, neither sharing code with the kernel under test:

* :func:`reference_insertion_candidates` -- the per-candidate loop the kernel
  replaced (``enumerate_insertions`` -> lower-bound walk ->
  ``evaluate_schedule`` -> ``check_schedule``), kept verbatim as the
  float-exact reference: candidate list, order and the three counters must be
  ``==``.  Its per-sequence check of Definition 2, :func:`check_schedule`
  over :func:`evaluate_schedule`'s distances, lives here too.
* :func:`brute_force_insertions` / :func:`brute_force_orderings` -- from
  first principles: every ordering that puts the new pick-up before the new
  drop-off (inside each branch, or over all permutations of the stops),
  checked against the waiting, detour and capacity conditions of
  Definition 2 written out directly in :func:`definition2_distances` (no
  ``check_schedule``, no prefix tables).  Only for small schedules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.core.insertion import InsertionCandidate, InsertionStatistics
from repro.model.request import Request
from repro.model.stops import Stop, StopKind
from repro.roadnet.grid_index import GridIndex
from repro.roadnet.routing import RoutingEngine
from repro.vehicles.schedule import (
    DistanceFunction,
    RequestState,
    prefix_distances,
    schedule_distance,
)
from repro.vehicles.vehicle import Vehicle


def reference_insertion_candidates(
    vehicle: Vehicle,
    request: Request,
    oracle: RoutingEngine,
    grid: Optional[GridIndex] = None,
    statistics: Optional[InsertionStatistics] = None,
    direct: Optional[float] = None,
    distance: Optional[Callable[[int, int], float]] = None,
) -> List[InsertionCandidate]:
    """The per-candidate insertion path ``core/insertion.py`` had before the
    prefix-sharing kernel: materialise each ``(branch, i, j)`` schedule, walk
    it under grid lower bounds, then :func:`evaluate_schedule` and
    :func:`check_schedule` every survivor.  Same signature, same candidate
    order, same counters.
    """
    stats = statistics if statistics is not None else InsertionStatistics()
    distance_fn = distance if distance is not None else oracle.distance
    if vehicle.has_request(request.request_id):
        # The vehicle already serves this request (or a different request that
        # reuses its identifier); re-inserting it would corrupt the constraint
        # bookkeeping, so the vehicle simply offers nothing.
        return []
    if direct is None:
        direct = distance_fn(request.start, request.destination)

    pickup_stop = Stop(
        vertex=request.start,
        request_id=request.request_id,
        kind=StopKind.PICKUP,
        riders=request.riders,
    )
    dropoff_stop = Stop(
        vertex=request.destination,
        request_id=request.request_id,
        kind=StopKind.DROPOFF,
        riders=request.riders,
    )

    # The new request's waiting-time condition cannot bind at matching time:
    # the planned pick-up *is* the one being computed.  An infinite remaining
    # planned distance encodes that.
    request_states: Dict[str, RequestState] = dict(vehicle.request_states())
    request_states[request.request_id] = RequestState(
        request=request,
        onboard=False,
        direct_distance=direct,
        planned_pickup_remaining=math.inf,
        travelled_since_pickup=0.0,
    )

    base_schedules: List[Tuple[Stop, ...]] = vehicle.kinetic_tree.schedules() or [()]
    onboard_riders = vehicle.occupancy
    origin = vehicle.location
    origin_offset = vehicle.offset
    results: List[InsertionCandidate] = []

    for base in base_schedules:
        base_total = schedule_distance(origin, base, distance_fn, origin_offset)
        for candidate in enumerate_insertions(base, pickup_stop, dropoff_stop):
            stats.candidates_enumerated += 1
            if grid is not None and _rejected_by_lower_bounds(
                origin, origin_offset, candidate, request_states, grid
            ):
                stats.candidates_rejected_by_bounds += 1
                continue
            metrics = evaluate_schedule(origin, candidate, distance_fn, origin_offset)
            feasibility = check_schedule(
                origin=origin,
                stops=candidate,
                capacity=vehicle.capacity,
                onboard_riders=onboard_riders,
                request_states=request_states,
                distance=distance_fn,
                origin_offset=origin_offset,
                metrics=metrics,
            )
            if not feasibility:
                continue
            stats.candidates_feasible += 1
            results.append(
                InsertionCandidate(
                    vehicle_id=vehicle.vehicle_id,
                    schedule=candidate,
                    base_schedule=tuple(base),
                    pickup_distance=metrics.pickup_distance[request.request_id],
                    added_distance=max(0.0, metrics.total_distance - base_total),
                    total_distance=metrics.total_distance,
                )
            )
    return results


def enumerate_insertions(
    stops: Sequence[Stop],
    pickup: Stop,
    dropoff: Stop,
) -> Iterator[Tuple[Stop, ...]]:
    """Yield every stop sequence obtained by inserting a pick-up/drop-off pair.

    The pick-up is inserted at every position ``i`` and the drop-off at every
    position ``j >= i`` (after the pick-up), preserving the relative order of
    the existing stops -- which is exactly how a request is inserted into one
    branch of a kinetic tree.
    """
    base = list(stops)
    length = len(base)
    for i in range(length + 1):
        with_pickup = base[:i] + [pickup] + base[i:]
        for j in range(i + 1, length + 2):
            yield tuple(with_pickup[:j] + [dropoff] + with_pickup[j:])


def _rejected_by_lower_bounds(
    origin: int,
    origin_offset: float,
    stops: Sequence[Stop],
    request_states: Dict[str, RequestState],
    grid: GridIndex,
) -> bool:
    """Return ``True`` when grid lower bounds alone prove the schedule infeasible.

    The check mirrors the waiting-time and service conditions of
    :func:`repro.vehicles.schedule.check_schedule` but replaces every exact
    shortest-path distance with the (cheaper) grid lower bound.  Because the
    bounds never exceed the true distances, a violation here implies a
    violation of the exact check, so rejecting is safe.

    This runs once per enumerated candidate schedule (hundreds of thousands
    of times per dispatch batch), so it is a single pass that returns at the
    *first* provable violation: every per-stop condition only needs the
    bound-prefix up to that stop, and a pick-up's waiting-time condition is
    decidable the moment the pick-up is reached.
    """
    bound = grid.distance_lower_bound
    states_get = request_states.get
    total = origin_offset
    previous = origin
    pickup_at: Dict[str, float] = {}
    for stop in stops:
        vertex = stop.vertex
        total += bound(previous, vertex)
        previous = vertex
        request_id = stop.request_id
        if stop.is_pickup:
            pickup_at[request_id] = total
            state = states_get(request_id)
            if (
                state is not None
                and not state.onboard
                and total > state.waiting_budget() + 1e-9
            ):
                return True
        else:
            state = states_get(request_id)
            if state is None:
                continue
            if state.onboard:
                travelled_lb = total
            elif request_id in pickup_at:
                travelled_lb = total - pickup_at[request_id]
            else:
                continue
            if travelled_lb > state.remaining_service_budget() + 1e-9:
                return True
    return False


def definition2_distances(
    vehicle: Vehicle,
    request: Request,
    order: Sequence[Stop],
    distance: Callable[[int, int], float],
) -> Optional[Tuple[float, float]]:
    """``(pickup_distance, total_distance)`` of ``order`` if it is a valid
    schedule for ``vehicle`` plus the not-yet-assigned ``request``, else ``None``.

    Definition 2, spelled out for one stop ordering: (1) riders on board stay
    within ``[0, capacity]`` after every stop; (2) every request's pick-up
    precedes its drop-off (an onboard request has no pick-up left); (3) a
    waiting request is reached within its promised pick-up distance plus
    ``max_waiting``; (4) riders travel at most ``(1 + epsilon) * dist(s, d)``
    between their (remaining) pick-up and drop-off.  The new request has no
    promised pick-up yet, so (3) cannot bind for it.
    """
    position = {(stop.request_id, stop.kind): index for index, stop in enumerate(order)}
    reached: Dict[Tuple[str, StopKind], float] = {}
    travelled = vehicle.offset
    riders = vehicle.occupancy
    here = vehicle.location
    for stop in order:
        travelled += distance(here, stop.vertex)
        here = stop.vertex
        reached[(stop.request_id, stop.kind)] = travelled
        riders += stop.riders if stop.kind is StopKind.PICKUP else -stop.riders
        if not 0 <= riders <= vehicle.capacity:
            return None

    def ride(request_id: str) -> float:
        return reached[(request_id, StopKind.DROPOFF)] - reached[(request_id, StopKind.PICKUP)]

    new = request.request_id
    if position[(new, StopKind.PICKUP)] > position[(new, StopKind.DROPOFF)]:
        return None
    direct = distance(request.start, request.destination)
    if ride(new) > (1.0 + request.service_constraint) * direct + 1e-9:
        return None
    for request_id, state in vehicle.waiting_requests.items():
        budget = (1.0 + state.request.service_constraint) * state.direct_distance
        if (
            position[(request_id, StopKind.PICKUP)] > position[(request_id, StopKind.DROPOFF)]
            or reached[(request_id, StopKind.PICKUP)]
            > state.planned_pickup_remaining + state.request.max_waiting + 1e-9
            or ride(request_id) > budget + 1e-9
        ):
            return None
    for request_id, state in vehicle.onboard_requests.items():
        budget = (1.0 + state.request.service_constraint) * state.direct_distance
        if (
            (request_id, StopKind.PICKUP) in position
            or reached[(request_id, StopKind.DROPOFF)]
            > budget - state.travelled_since_pickup + 1e-9
        ):
            return None
    return reached[(new, StopKind.PICKUP)], travelled


def new_stops(request: Request) -> Tuple[Stop, Stop]:
    """The pick-up and drop-off stops of a request not yet in any schedule."""
    return (
        Stop(request.start, request.request_id, StopKind.PICKUP, request.riders),
        Stop(request.destination, request.request_id, StopKind.DROPOFF, request.riders),
    )


def brute_force_insertions(
    vehicle: Vehicle,
    request: Request,
    distance: Callable[[int, int], float],
) -> List[Tuple[Tuple[Stop, ...], float, float]]:
    """``(schedule, pickup_distance, total_distance)`` of every valid way to
    place the two new stops, pick-up first, into a branch of the kinetic tree,
    in branch, pick-up position, drop-off position order."""
    new_pickup, new_dropoff = new_stops(request)
    valid = []
    for base in vehicle.kinetic_tree.schedules() or [()]:
        length = len(base) + 2
        for pickup_at, dropoff_at in combinations(range(length), 2):
            old = iter(base)
            order = tuple(
                new_pickup if index == pickup_at
                else new_dropoff if index == dropoff_at
                else next(old)
                for index in range(length)
            )
            distances = definition2_distances(vehicle, request, order, distance)
            if distances is not None:
                valid.append((order,) + distances)
    return valid


def brute_force_orderings(
    vehicle: Vehicle,
    request: Request,
    distance: Callable[[int, int], float],
) -> List[Tuple[Stop, ...]]:
    """Every valid ordering of the vehicle's outstanding stops plus the two
    new ones -- all permutations, not just insertions into known branches.

    Equals the schedules of :func:`brute_force_insertions` only while the
    kinetic tree still holds every ordering that can be valid, i.e. for a
    vehicle that has not moved since its requests were assigned.
    """
    # every branch orders the same stops, so the first one lists them all
    branches = vehicle.kinetic_tree.schedules()
    stops = list(branches[0] if branches else ()) + list(new_stops(request))
    return [
        order
        for order in permutations(stops)
        if definition2_distances(vehicle, request, order, distance) is not None
    ]


# ----------------------------------------------------------------------
# the per-sequence check of Definition 2


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
