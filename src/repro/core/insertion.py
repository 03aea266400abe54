"""Inserting a request into a vehicle's kinetic tree.

For every branch (valid schedule) of a vehicle's kinetic tree and every
position pair ``(i, k)`` -- pick-up before branch stop ``i``, drop-off before
branch stop ``k >= i`` -- the candidate schedule obtained by inserting the
request's two stops is checked against the four validity conditions of
Definition 2.  Each feasible candidate yields

* its pick-up distance ``dist_pt`` (travel distance from the vehicle's current
  location to the request start along the candidate schedule), and
* its *added distance* ``dist(tr_j) - dist(tr_i)`` relative to the branch it
  was inserted into,

which the matchers turn into ``<vehicle, time, price>`` options.

Candidates are never built to be checked.  A branch is flattened once into
per-stop tables (vertex, the constraint's limit, the stop the constraint is
measured from), and one scan (:func:`_passing`) walks the ``(i, k)`` pairs so
that candidates share what they have in common: the stops before the pick-up
slot are summed once per branch, the stops between pick-up and drop-off once
per ``i`` (extended by one stop as ``k`` grows), and only the tail after the
drop-off is walked per candidate, stopping at the first violated stop.  A
violation *before* the drop-off slot holds for every larger ``k`` (and one
before the pick-up slot for every larger ``i``), so those candidates are
dropped without being visited.  The schedule tuple is materialised for
feasible candidates only.

Section 3.3 of the paper reduces the number of shortest-path computations
"by estimating the lower and upper bounds of the shortest path distance".
That estimate screens *vehicles* (``MatchContext.lower_bound``, the matchers'
``_consider``); inside a vehicle that reached verification the scan runs over
exact distances only -- the start-side legs are reads off the request's start
tree and most others cache hits, and the append after the last stop delays
nobody, so a bound pre-scan could never spare the exact one.  Every sum runs
left to right from the vehicle's offset, exactly as a walk over the
materialised schedule would, so distances equal the per-candidate reference
in ``tests/insertion_reference.py`` to the last bit, not just to a tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.model.request import Request
from repro.model.stops import Stop
from repro.roadnet.routing import RoutingEngine
from repro.vehicles.vehicle import Vehicle

__all__ = ["InsertionCandidate", "insertion_candidates", "InsertionStatistics"]

#: Slack added to every constraint limit before comparing floating-point sums.
_TOLERANCE = 1e-9


@dataclass(frozen=True)
class InsertionCandidate:
    """One feasible way of serving a request with a particular vehicle."""

    vehicle_id: str
    schedule: Tuple[Stop, ...]
    base_schedule: Tuple[Stop, ...]
    pickup_distance: float
    added_distance: float
    total_distance: float

    def __post_init__(self) -> None:
        if self.pickup_distance < 0:
            raise ValueError("pickup_distance must be non-negative")


@dataclass
class InsertionStatistics:
    """Counters describing how much work an insertion call performed.

    ``candidates_rejected_by_bounds`` reads 0: nothing inside a verified
    vehicle is rejected by a bound since the grid pre-scan went.  The field
    stays, off the panels (``"panel": False``), because
    ``perfbench/harness.py`` reads it; ROADMAP item 10(a) removes it together
    with the ``insertion.bound_rejected`` metric row.
    """

    candidates_enumerated: int = field(default=0, metadata={"panel": "enumerated"})
    candidates_feasible: int = field(default=0, metadata={"panel": "feasible"})
    candidates_rejected_by_bounds: int = field(default=0, metadata={"panel": False})


def insertion_candidates(
    vehicle: Vehicle,
    request: Request,
    oracle: RoutingEngine,
    statistics: Optional[InsertionStatistics] = None,
    direct: Optional[float] = None,
    distance: Optional[Callable[[int, int], float]] = None,
) -> List[InsertionCandidate]:
    """Return every feasible insertion of ``request`` into ``vehicle``.

    Args:
        vehicle: the candidate vehicle.
        request: the request to insert.
        oracle: routing engine (exact distances); only ``.distance`` is
            used.
        statistics: optional counter object updated in place.
        direct: the request's direct distance when the caller (a matcher with
            a :class:`~repro.core.context.MatchContext`) already computed it;
            recomputed otherwise.
        distance: exact-distance callable overriding ``oracle.distance``
            (the matchers pass ``MatchContext.distance`` so start-rooted legs
            come from the pinned request tree).

    Returns:
        Feasible candidates, ordered by branch, then pick-up slot, then
        drop-off slot; empty when the vehicle cannot serve the request.
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

    pickup_stop, dropoff_stop = request.stops

    # Per-request constants, once per call: (onboard, waiting limit, service
    # limit).  The new request's waiting-time condition cannot bind at
    # matching time -- the planned pick-up *is* the one being computed -- so
    # only its service limit exists.
    limits: Dict[str, Tuple[bool, float, float]] = {
        request_id: (
            state.onboard,
            math.inf if state.onboard else state.waiting_budget() + _TOLERANCE,
            state.remaining_service_budget() + _TOLERANCE,
        )
        for request_id, state in vehicle.request_states().items()
    }
    new_limit = request.detour_budget(direct) + _TOLERANCE

    origin = vehicle.location
    origin_offset = vehicle.offset
    onboard_riders = vehicle.occupancy
    results: List[InsertionCandidate] = []

    for base in vehicle.kinetic_tree.schedules() or [()]:
        size = len(base)
        stats.candidates_enumerated += (size + 1) * (size + 2) // 2
        verts, ref, limit, well_formed = _stop_tables(base, limits)
        if not well_formed:
            continue
        room = _capacity_slots(base, onboard_riders, vehicle.capacity, request.riders)
        if not any(room):
            continue
        feasible, base_total = _passing(
            distance_fn, origin, origin_offset, verts, ref, limit,
            request.start, request.destination, new_limit, room,
        )
        stats.candidates_feasible += len(feasible)
        for i, k, pickup_distance, total in feasible:
            results.append(
                InsertionCandidate(
                    vehicle_id=vehicle.vehicle_id,
                    schedule=base[:i] + (pickup_stop,) + base[i:k] + (dropoff_stop,) + base[k:],
                    base_schedule=base,
                    pickup_distance=pickup_distance,
                    added_distance=max(0.0, total - base_total),
                    total_distance=total,
                )
            )
    return results


def _stop_tables(
    base: Sequence[Stop],
    limits: Dict[str, Tuple[bool, float, float]],
) -> Tuple[List[int], List[int], List[float], bool]:
    """Flatten one branch into the per-stop tables :func:`_passing` scans.

    Returns ``(verts, ref, limit, well_formed)``.  With ``at[m]`` the
    distance from the vehicle to branch stop ``m`` along some candidate, stop
    ``m`` violates its constraint when ``at[m] - at[ref[m]] > limit[m]``:

    * a pick-up measures from the vehicle (``ref`` -1, which ``_passing``
      maps to a zero) against the request's waiting limit;
    * a drop-off measures from its own pick-up stop -- or from the vehicle
      when the riders are already on board -- against the service limit;
    * a stop no condition applies to gets an infinite limit.

    ``well_formed`` is the point-order condition, which is a property of the
    branch, not of where the new stops go: every stop belongs to a request of
    the vehicle, no onboard request is picked up again, every unfinished
    request has exactly its stops, pick-up first.  Inserting a request the
    vehicle does not yet serve into such a branch keeps it well-formed.
    """
    verts: List[int] = []
    ref: List[int] = []
    limit: List[float] = []
    picked_at: Dict[str, int] = {}
    dropped = set()
    well_formed = True
    for index, stop in enumerate(base):
        request_id = stop.request_id
        verts.append(stop.vertex)
        entry = limits.get(request_id)
        measured_from, bound = -1, math.inf
        if entry is None:
            well_formed = False
        elif stop.is_pickup:
            onboard, bound, _ = entry
            if onboard or request_id in picked_at:
                well_formed = False
            picked_at[request_id] = index
        else:
            onboard, _, service = entry
            if request_id in dropped:
                well_formed = False
            dropped.add(request_id)
            if onboard:
                bound = service
            elif request_id in picked_at:
                measured_from, bound = picked_at[request_id], service
            else:
                well_formed = False
        ref.append(measured_from)
        limit.append(bound)
    # Every request dropped off, and (checked above) each waiting one picked
    # up first: nothing is missing.
    return verts, ref, limit, well_formed and len(dropped) == len(limits)


def _capacity_slots(
    base: Sequence[Stop], onboard_riders: int, capacity: int, riders: int
) -> List[range]:
    """Per pick-up slot ``i``, the drop-off slots that respect the capacity.

    Occupancy must stay within ``[0, capacity]`` after every stop of the
    candidate: after the branch stops outside ``[i, k)`` and after the
    drop-off as the branch has it, after the pick-up and the stops inside
    ``[i, k)`` with the new riders on top.  For a fixed ``i`` the admissible
    ``k`` are therefore contiguous.
    """
    size = len(base)
    load = [onboard_riders]  # load[m]: riders on board on reaching slot m
    for stop in base:
        load.append(load[-1] + stop.occupancy_delta)
    # Without the new riders on board, load[1..i] covers the stops before the
    # pick-up and load[k..size] the drop-off and the stops after it; with
    # them, load[i..k] covers what lies between.
    first_bad = size + 1
    last_bad = -1
    for m, riders_on_board in enumerate(load):
        if not 0 <= riders_on_board <= capacity:
            last_bad = m
            if 0 < m < first_bad:
                first_bad = m
    slots = [range(0)] * (size + 1)
    end = size + 1
    for i in range(size, -1, -1):
        if not 0 <= load[i] + riders <= capacity:
            end = i
        if i < first_bad:
            slots[i] = range(max(i, last_bad + 1), end)
    return slots


def _passing(
    dist: Callable[[int, int], float],
    origin: int,
    origin_offset: float,
    verts: Sequence[int],
    ref: Sequence[int],
    limit: Sequence[float],
    pickup_vertex: int,
    dropoff_vertex: int,
    new_limit: float,
    wanted: Sequence[Sequence[int]],
) -> Tuple[List[Tuple[int, int, float, float]], float]:
    """Scan one branch's insertion slots over the exact leg distances ``dist``.

    ``wanted[i]`` lists, ascending, the drop-off slots to try with the
    pick-up in slot ``i``.  Returns the ``(i, k, pickup_total, total)`` of
    every pair whose stops all meet their limits (see :func:`_stop_tables`)
    and whose pick-up-to-drop-off distance meets ``new_limit``, in ``(i, k)``
    order, plus the length of the branch itself.

    Sums are accumulated left to right from ``origin_offset``, so the totals
    are the floats a walk over the materialised schedule produces.
    """
    size = len(verts)
    # legs[m]: the branch's own leg into stop m (from the vehicle for m = 0),
    # asked for once; the trailing zero is read, never added, after the last
    # stop.  Only the four legs around the two new stops differ by candidate.
    legs: List[float] = []
    length = origin_offset
    previous = origin
    for vertex in verts:
        leg = dist(previous, vertex)
        legs.append(leg)
        length += leg
        previous = vertex
    legs.append(0.0)
    # at[m]: distance to branch stop m along the candidate being walked.
    # Every walk writes a stop's entry before a later stop reads it, so one
    # list serves all candidates; at[-1] is the zero that ref -1 points to.
    at = [0.0] * (size + 1)
    passing: List[Tuple[int, int, float, float]] = []
    before = origin_offset
    previous = origin
    for i, slots in enumerate(wanted):
        if i:
            # Branch stop i-1 moves in front of the pick-up slot.
            stop = i - 1
            before += legs[stop]
            previous = verts[stop]
            at[stop] = before
            if before - at[ref[stop]] > limit[stop]:
                # Stale branch: the stop fails here and in front of every
                # later pick-up slot.
                break
        if not slots:
            continue
        picked = before + dist(previous, pickup_vertex)
        between = picked  # distance to the last stop in front of the drop-off slot
        between_vertex = pickup_vertex
        reached = i  # branch stops [i, reached) are summed into `between`
        for k in slots:
            while reached < k:
                vertex = verts[reached]
                between += legs[reached] if reached > i else dist(pickup_vertex, vertex)
                between_vertex = vertex
                at[reached] = between
                if between - at[ref[reached]] > limit[reached]:
                    break
                reached += 1
            else:
                total = between + dist(between_vertex, dropoff_vertex)
                if total - picked > new_limit:
                    continue
                leg = dist(dropoff_vertex, verts[k]) if k < size else 0.0
                for stop in range(k, size):
                    total += leg
                    at[stop] = total
                    if total - at[ref[stop]] > limit[stop]:
                        break
                    leg = legs[stop + 1]
                else:
                    passing.append((i, k, picked, total))
                continue
            # A stop in front of the drop-off slot fails, and stays in front
            # of it for every larger k.
            break
    return passing, length
