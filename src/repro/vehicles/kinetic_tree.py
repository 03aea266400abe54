"""Kinetic trees of valid vehicle trip schedules (Section 3.2.2, Fig. 3).

A vehicle with ``k`` unfinished requests generally has many valid orders in
which it can visit the outstanding pick-ups and drop-offs.  Following Huang
et al. (the *Noah* system, reference [7] of the paper) PTRider keeps **all**
valid orders per vehicle, organised as a tree whose root is the vehicle's
current location and whose branches are the valid schedules.

:class:`KineticTree` stores the branches as an explicit schedule set; the
paper's per-node annotations of Fig. 3 (occupancy, detour slack,
``dist_tr``) are recomputed along a schedule wherever a check needs them
(:mod:`repro.vehicles.schedule`).  Keeping the schedule set explicit makes
insertion, pruning and arrival handling straightforward and testable; the
combinatorial size is bounded in practice by the vehicle capacity.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import InvalidScheduleError
from repro.model.stops import Stop
from repro.vehicles.schedule import DistanceFunction, schedule_distance

__all__ = ["KineticTree"]


class KineticTree:
    """The set of all valid trip schedules of one vehicle.

    The tree is rooted at the vehicle's current location; every schedule is a
    tuple of :class:`~repro.model.stops.Stop` objects.  An *empty* tree (no
    schedules other than the trivial empty one) corresponds to an empty
    vehicle.

    The class is deliberately ignorant of feasibility rules: callers (the
    insertion module and the dispatcher) decide which schedules are valid and
    hand them over via :meth:`set_schedules`.
    """

    def __init__(self, root_location: int, schedules: Optional[Iterable[Sequence[Stop]]] = None) -> None:
        self._root_location = root_location
        self._schedules: List[Tuple[Stop, ...]] = []
        #: bumped by every mutator, so a result computed from the tree can be
        #: told from a stale one (:meth:`repro.vehicles.vehicle.Vehicle.stamp`)
        self.revision = 0
        if schedules is not None:
            self.set_schedules(schedules)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    def set_root_location(self, vertex: int) -> None:
        """Move the root (called when the vehicle's current vertex changes)."""
        self._root_location = vertex
        self.revision += 1

    def schedules(self) -> List[Tuple[Stop, ...]]:
        """Return every valid schedule (each a tuple of stops)."""
        return list(self._schedules)

    def schedule_count(self) -> int:
        """Number of valid schedules (branches of the tree)."""
        return len(self._schedules)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def set_schedules(self, schedules: Iterable[Sequence[Stop]]) -> None:
        """Replace the schedule set (deduplicating identical sequences).

        Raises:
            InvalidScheduleError: if the schedules do not all contain the same
                multiset of stops (they must be orderings of one another).
        """
        unique: Dict[Tuple[Stop, ...], None] = {}
        for schedule in schedules:
            unique[tuple(schedule)] = None
        candidate = list(unique)
        if candidate:
            reference = _stop_signature(candidate[0])
            for schedule in candidate[1:]:
                if _stop_signature(schedule) != reference:
                    raise InvalidScheduleError(
                        "all schedules of a kinetic tree must visit the same set of stops"
                    )
        self._schedules = candidate
        self.revision += 1

    def advance_through(self, stop: Stop) -> None:
        """Record that the vehicle has arrived at ``stop``.

        Schedules whose first stop is ``stop`` lose that stop; schedules that
        would have visited a different stop first are no longer achievable and
        are pruned (this is how the kinetic tree "moves" with the vehicle).

        Raises:
            InvalidScheduleError: if no schedule starts with ``stop``.
        """
        surviving = [schedule[1:] for schedule in self._schedules if schedule and schedule[0] == stop]
        if not surviving and self._schedules:
            raise InvalidScheduleError(
                f"no schedule of the kinetic tree starts with {stop}; cannot advance"
            )
        self._root_location = stop.vertex
        unique: Dict[Tuple[Stop, ...], None] = {}
        for schedule in surviving:
            unique[tuple(schedule)] = None
        self._schedules = [schedule for schedule in unique if schedule] or []
        self.revision += 1

    # ------------------------------------------------------------------
    # queries used by matching and movement
    # ------------------------------------------------------------------
    def best_schedule(
        self, distance: DistanceFunction, origin_offset: float = 0.0
    ) -> Optional[Tuple[Stop, ...]]:
        """Return the minimum-total-distance schedule (the branch the vehicle drives).

        A sole branch is returned unmeasured: there is nothing to choose, and
        measuring it roots a distance tree at every vertex a moving vehicle
        passes.  Returns ``None`` for an empty tree.
        """
        branches = [schedule for schedule in self._schedules if schedule]
        if len(branches) <= 1:
            return branches[0] if branches else None
        return min(
            branches,
            key=lambda schedule: schedule_distance(
                self._root_location, schedule, distance, origin_offset
            ),
        )

    def next_stop(self, distance: DistanceFunction, origin_offset: float = 0.0) -> Optional[Stop]:
        """Return the first stop of the best schedule (``None`` when empty)."""
        best = self.best_schedule(distance, origin_offset)
        if not best:
            return None
        return best[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"KineticTree(root={self._root_location}, schedules={len(self._schedules)})"


def _stop_signature(schedule: Sequence[Stop]) -> Tuple[Tuple[int, str, str, int], ...]:
    """Return an order-independent signature of a schedule's stops."""
    return tuple(
        sorted((stop.vertex, stop.request_id, stop.kind.value, stop.riders) for stop in schedule)
    )
