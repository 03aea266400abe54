"""Kinetic trees of valid vehicle trip schedules (Section 3.2.2, Fig. 3).

A vehicle with ``k`` unfinished requests generally has many valid orders in
which it can visit the outstanding pick-ups and drop-offs.  Following Huang
et al. (the *Noah* system, reference [7] of the paper) PTRider keeps **all**
valid orders per vehicle, organised as a tree whose root is the vehicle's
current location and whose branches are the valid schedules.  The paper adds
three annotations to every tree node:

* the vehicle's occupancy after the node's stop,
* the minimum remaining detour slack over the requests still being served,
* ``dist_tr`` -- the travel distance from the current location to the node.

:class:`KineticTree` stores the schedule set (the authoritative data) and
materialises the annotated prefix-sharing tree on demand for inspection, the
website interface and the benchmarks.  Keeping the schedule set explicit makes
insertion, pruning and arrival handling straightforward and testable; the
combinatorial size is bounded in practice by the vehicle capacity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import InvalidScheduleError
from repro.model.stops import Stop, StopKind
from repro.vehicles.schedule import (
    DistanceFunction,
    RequestState,
    evaluate_schedule,
    schedule_distance,
)

__all__ = ["KineticTreeNode", "KineticTree"]


@dataclass
class KineticTreeNode:
    """One node of the materialised kinetic tree.

    Attributes:
        stop: the stop represented by the node (``None`` for the root, which
            stands for the vehicle's current location).
        occupancy: riders on board immediately after serving the stop.
        dist_from_root: travel distance from the vehicle's current location.
        detour_slack: minimum remaining detour budget over every request
            served on the path from the root to this node (the paper's
            "minimal detour distance allowed").
        children: child nodes, one per distinct next stop.
    """

    stop: Optional[Stop]
    occupancy: int = 0
    dist_from_root: float = 0.0
    detour_slack: float = float("inf")
    children: List["KineticTreeNode"] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        """``True`` when the node ends a schedule."""
        return not self.children

    def node_count(self) -> int:
        """Total number of nodes in the subtree rooted here (including self)."""
        return 1 + sum(child.node_count() for child in self.children)

    def branch_count(self) -> int:
        """Number of leaves (i.e. schedules) below this node."""
        if self.is_leaf:
            return 1
        return sum(child.branch_count() for child in self.children)

    def iter_branches(self) -> Iterable[Tuple[Stop, ...]]:
        """Yield every root-to-leaf stop sequence of the subtree."""
        if self.is_leaf:
            yield tuple() if self.stop is None else (self.stop,)
            return
        for child in self.children:
            for branch in child.iter_branches():
                if self.stop is None:
                    yield branch
                else:
                    yield (self.stop,) + branch


class KineticTree:
    """The set of all valid trip schedules of one vehicle.

    The tree is rooted at the vehicle's current location; every schedule is a
    tuple of :class:`~repro.model.stops.Stop` objects.  An *empty* tree (no
    schedules other than the trivial empty one) corresponds to an empty
    vehicle.

    The class is deliberately ignorant of feasibility rules: callers (the
    insertion module and the dispatcher) decide which schedules are valid and
    hand them over via :meth:`set_schedules` / :meth:`replace`.
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
    @property
    def root_location(self) -> int:
        """The vehicle's current location (the root of the tree)."""
        return self._root_location

    def set_root_location(self, vertex: int) -> None:
        """Move the root (called when the vehicle's current vertex changes)."""
        self._root_location = vertex
        self.revision += 1

    @property
    def is_empty(self) -> bool:
        """``True`` when the vehicle has no outstanding stops."""
        return not self._schedules or all(not schedule for schedule in self._schedules)

    def schedules(self) -> List[Tuple[Stop, ...]]:
        """Return every valid schedule (each a tuple of stops)."""
        return list(self._schedules)

    def schedule_count(self) -> int:
        """Number of valid schedules (branches of the tree)."""
        return len(self._schedules)

    def stops(self) -> List[Stop]:
        """Return the distinct stops appearing in the schedules."""
        seen: Dict[Tuple[int, str, str], Stop] = {}
        for schedule in self._schedules:
            for stop in schedule:
                seen.setdefault((stop.vertex, stop.request_id, stop.kind.value), stop)
        return list(seen.values())

    def stop_vertices(self) -> List[int]:
        """Return the distinct vertices visited by any schedule."""
        return sorted({stop.vertex for schedule in self._schedules for stop in schedule})

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

    def to_payload(self) -> Dict[str, object]:
        """JSON-able form of the tree (root vertex + flat schedules).

        The durability snapshot format (:mod:`repro.service.recovery`):
        each stop becomes a ``[vertex, request_id, kind, riders]`` list, so
        the payload survives a JSON round-trip and
        :meth:`from_payload` rebuilds an equal tree.
        """
        return {
            "root": self._root_location,
            "schedules": [
                [
                    [stop.vertex, stop.request_id, stop.kind.value, stop.riders]
                    for stop in schedule
                ]
                for schedule in self._schedules
            ],
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "KineticTree":
        """Rebuild a tree from a :meth:`to_payload` dictionary."""
        schedules = [
            [
                Stop(
                    vertex=int(stop[0]),
                    request_id=str(stop[1]),
                    kind=StopKind(stop[2]),
                    riders=int(stop[3]),
                )
                for stop in schedule
            ]
            for schedule in payload["schedules"]
        ]
        return cls(root_location=int(payload["root"]), schedules=schedules)

    def clear(self) -> None:
        """Drop every schedule (the vehicle becomes empty)."""
        self._schedules = []
        self.revision += 1

    def replace(self, schedules: Iterable[Sequence[Stop]]) -> None:
        """Alias of :meth:`set_schedules` kept for dispatcher readability."""
        self.set_schedules(schedules)

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

    def prune(self, keep: Iterable[Tuple[Stop, ...]]) -> None:
        """Keep only the schedules listed in ``keep`` (used by re-validation)."""
        keep_set = {tuple(schedule) for schedule in keep}
        self._schedules = [schedule for schedule in self._schedules if schedule in keep_set]
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

    def total_distance(self, distance: DistanceFunction, origin_offset: float = 0.0) -> float:
        """Return the travel distance of the best schedule (0 when empty)."""
        best = self.best_schedule(distance, origin_offset)
        if not best:
            return origin_offset
        return schedule_distance(self._root_location, best, distance, origin_offset)

    # ------------------------------------------------------------------
    # materialised tree (Fig. 3)
    # ------------------------------------------------------------------
    def build_tree(
        self,
        distance: DistanceFunction,
        capacity: int,
        onboard_riders: int = 0,
        request_states: Optional[Mapping[str, RequestState]] = None,
    ) -> KineticTreeNode:
        """Materialise the annotated, prefix-sharing tree of Fig. 3.

        Args:
            distance: shortest-path distance callback.
            capacity: the vehicle capacity (used for the occupancy annotation).
            onboard_riders: riders already on board at the root.
            request_states: per-request constraint state; when provided the
                ``detour_slack`` annotation reflects the true remaining
                budgets, otherwise it stays infinite.

        Returns:
            The root :class:`KineticTreeNode`.
        """
        root = KineticTreeNode(stop=None, occupancy=onboard_riders, dist_from_root=0.0)
        states = dict(request_states or {})
        for schedule in self._schedules:
            node = root
            previous_vertex = self._root_location
            travelled = 0.0
            occupancy = onboard_riders
            for stop in schedule:
                travelled += distance(previous_vertex, stop.vertex)
                occupancy += stop.occupancy_delta
                child = _find_child(node, stop)
                if child is None:
                    slack = _detour_slack(states, stop, travelled)
                    child = KineticTreeNode(
                        stop=stop,
                        occupancy=occupancy,
                        dist_from_root=travelled,
                        detour_slack=slack,
                    )
                    node.children.append(child)
                node = child
                previous_vertex = stop.vertex
        return root

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"KineticTree(root={self._root_location}, schedules={len(self._schedules)}, "
            f"stops={len(self.stops())})"
        )


def _stop_signature(schedule: Sequence[Stop]) -> Tuple[Tuple[int, str, str, int], ...]:
    """Return an order-independent signature of a schedule's stops."""
    return tuple(
        sorted((stop.vertex, stop.request_id, stop.kind.value, stop.riders) for stop in schedule)
    )


def _find_child(node: KineticTreeNode, stop: Stop) -> Optional[KineticTreeNode]:
    for child in node.children:
        if child.stop == stop:
            return child
    return None


def _detour_slack(
    states: Mapping[str, RequestState], stop: Stop, travelled: float
) -> float:
    """Remaining detour budget of the request served at ``stop`` (annotation only)."""
    state = states.get(stop.request_id)
    if state is None:
        return float("inf")
    return max(0.0, state.remaining_service_budget() - travelled)
