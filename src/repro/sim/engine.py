"""The discrete-time simulation loop.

The demonstration (Section 4) drives PTRider with a day of taxi trips: the
vehicles are initialised uniformly over the road network, follow their
planned schedule when serving riders and wander randomly when idle, all at a
constant speed; requests arrive over time, are answered by the matcher and,
once a rider accepts an option, the serving vehicle's schedule and the
indexes are updated; pick-ups and drop-offs fire as vehicles reach the
corresponding stops.

:class:`SimulationEngine` reproduces that loop in discrete ticks:

1. release every request whose submission time falls inside the tick and
   dispatch it (matching latency and option counts are recorded);
2. advance every vehicle by ``speed * tick`` distance units along its best
   schedule (or along a random walk when idle), firing pick-up / drop-off
   events as stops are reached and keeping the grid's vehicle lists fresh.

The engine is deterministic for a fixed seed, workload and fleet
initialisation, which the regression tests rely on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.dispatcher import Dispatcher, OptionPolicy
from repro.counters import counters
from repro.errors import SimulationError
from repro.model.stops import Stop
from repro.sim.stats import SimulationStatistics
from repro.sim.workload import RequestWorkload
from repro.vehicles.movement import MotionState, drive_route, plan_route, step_along_route
from repro.vehicles.vehicle import Vehicle

__all__ = ["SimulationReport", "SimulationEngine"]


@dataclass(frozen=True)
class SimulationReport:
    """Summary of one simulation run."""

    simulated_time: float
    ticks: int
    statistics: SimulationStatistics
    matcher_statistics: Dict[str, float]
    fleet_statistics: Dict[str, float]

    def panel(self) -> Dict[str, float]:
        """The demo website panel plus run metadata."""
        panel = self.statistics.panel()
        panel["simulated_time"] = self.simulated_time
        panel["ticks"] = float(self.ticks)
        return panel


@dataclass
class _AssignmentRecord:
    """Per-request bookkeeping needed to measure waiting distances."""

    vehicle_id: str
    planned_pickup_distance: float
    driven_at_assignment: float

    #: snapshots store a record as a list of its fields
    _durable_positional = True


class SimulationEngine:
    """Replays a request workload against a moving fleet."""

    def __init__(
        self,
        dispatcher: Dispatcher,
        workload: RequestWorkload,
        speed: float = 1.0,
        tick: float = 1.0,
        policy: OptionPolicy = OptionPolicy.CHEAPEST,
        seed: Optional[int] = None,
        idle_wander: bool = True,
        statistics: Optional[SimulationStatistics] = None,
    ) -> None:
        if speed <= 0:
            raise SimulationError(f"speed must be positive, got {speed}")
        if tick <= 0:
            raise SimulationError(f"tick must be positive, got {tick}")
        self._dispatcher = dispatcher
        self._fleet = dispatcher.fleet
        self._network = self._fleet.grid.network
        self._workload = workload
        self._speed = speed
        self._tick = tick
        self._policy = policy
        self._rng = random.Random(seed)
        self._idle_wander = idle_wander
        self.statistics = statistics or SimulationStatistics()
        self._time = 0.0
        self._ticks = 0
        self._motions: Dict[str, MotionState] = {}
        self._targets: Dict[str, Optional[int]] = {}
        self._assignments: Dict[str, _AssignmentRecord] = {}

    # ------------------------------------------------------------------
    @property
    def _oracle(self):
        # Read through the fleet so admin-panel routing-backend swaps
        # (PTRiderService.set_parameters) take effect mid-run.
        return self._fleet.oracle

    @property
    def time(self) -> float:
        """Current simulation time."""
        return self._time

    @property
    def dispatcher(self) -> Dispatcher:
        """The dispatcher answering the requests."""
        return self._dispatcher

    def run(self, until: Optional[float] = None, max_ticks: Optional[int] = None) -> SimulationReport:
        """Run the simulation until ``until`` (or until the workload drains).

        Args:
            until: simulated time to stop at; defaults to the workload
                duration plus a drain margin so the last riders are delivered.
            max_ticks: hard cap on the number of ticks (safety valve for
                tests and benchmarks).
        """
        if until is None:
            until = self._workload.duration + 100.0 * self._tick
        ticks_budget = max_ticks if max_ticks is not None else int(until / self._tick) + 1
        while self._time < until and ticks_budget > 0:
            self.step()
            ticks_budget -= 1
        return self.report()

    def report(self) -> SimulationReport:
        """Return the current statistics without advancing the simulation."""
        return SimulationReport(
            simulated_time=self._time,
            ticks=self._ticks,
            statistics=self.statistics,
            matcher_statistics=counters(self._dispatcher.matcher.statistics),
            fleet_statistics=self._fleet.occupancy_statistics(),
        )

    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance the simulation by one tick."""
        self._time += self._tick
        self._ticks += 1
        self._release_requests()
        for vehicle in self._fleet.vehicles():
            self._advance_vehicle(vehicle, self._speed * self._tick)

    def _release_requests(self) -> None:
        # All requests whose submission time falls inside this tick are
        # simultaneous in the sense of Section 2.5, so they go through the
        # dispatcher's greedy pipeline as one batch (shared routing contexts)
        # instead of one dispatch call each; the outcomes are identical to
        # the request-by-request loop.
        # Bookkeeping runs through ``on_outcome`` as each commit lands, so a
        # request with broken endpoints raising mid-batch cannot discard its
        # predecessors' records -- the failure surfaces exactly as it did
        # when the engine dispatched request by request.
        due = list(self._workload.due(self._time))
        if not due:
            return
        self._dispatcher.dispatch_batch(
            due, policy=self._policy, on_outcome=self._record_outcome
        )

    def _record_outcome(self, outcome) -> None:
        """Record one dispatch outcome (statistics, assignment, idle route)."""
        request = outcome.request
        chosen = outcome.chosen
        self.statistics.record_submission(
            request_id=request.request_id,
            submit_time=request.submit_time,
            option_count=outcome.option_count,
            response_seconds=outcome.match_seconds,
            matched=outcome.matched,
            planned_pickup_distance=chosen.pickup_distance if chosen else 0.0,
            # the dispatcher carries the context's direct distance, so no
            # routing-engine re-query (which could grow a fresh tree) here
            direct_distance=outcome.direct_distance,
        )
        if chosen is not None:
            vehicle = self._fleet.get(chosen.vehicle_id)
            self._assignments[request.request_id] = _AssignmentRecord(
                vehicle_id=chosen.vehicle_id,
                planned_pickup_distance=chosen.pickup_distance,
                driven_at_assignment=vehicle.distance_driven,
            )
            # A newly assigned vehicle must head for its (possibly new)
            # first stop, so drop its cached idle route / target.
            self._targets.pop(chosen.vehicle_id, None)

    def register_assignment(
        self, request_id: str, vehicle_id: str, planned_pickup_distance: float
    ) -> None:
        """Register an assignment made outside the engine (e.g. by the service layer).

        The engine uses the record to measure the rider's waiting distance when
        the pick-up eventually fires, and to clear the vehicle's idle route.
        """
        vehicle = self._fleet.get(vehicle_id)
        self._assignments[request_id] = _AssignmentRecord(
            vehicle_id=vehicle_id,
            planned_pickup_distance=planned_pickup_distance,
            driven_at_assignment=vehicle.distance_driven,
        )
        self._targets.pop(vehicle_id, None)

    # ------------------------------------------------------------------
    # vehicle movement
    # ------------------------------------------------------------------
    def _advance_vehicle(self, vehicle: Vehicle, budget: float) -> None:
        if vehicle.is_empty and not self._idle_wander:
            return  # parked: travels nothing, changes no cell
        cell_of = self._fleet.grid.vertex_cells
        previous_cell = cell_of[vehicle.location]
        guard = 0
        while budget > 1e-9 and not vehicle.is_empty:
            guard += 1
            if guard > 10_000:  # pragma: no cover - defensive guard
                raise SimulationError(f"vehicle {vehicle.vehicle_id} made no progress")
            travelled = self._advance_serving(vehicle, budget)
            if travelled <= 0:
                break
            budget -= travelled
        else:
            # Empty now (nothing is assigned while the fleet moves, so for the
            # rest of the tick): wander on with whatever budget is left.
            if budget > 1e-9 and self._idle_wander:
                self._wander(vehicle, budget, guard)
        if cell_of[vehicle.location] != previous_cell:
            self._fleet.refresh_vehicle(vehicle.vehicle_id)

    def _wander(self, vehicle: Vehicle, budget: float, guard: int) -> None:
        """Spend an empty vehicle's ``budget`` on the random walk of Section 4.

        The walk goes in legs of three hops, each drawn ``rng.choice`` over the
        current vertex's neighbours when the previous leg is used up (a dead
        end stops the draw early); a leg the tick ends inside carries its
        remaining hops to the next tick in ``_motions``.  Within a leg the
        driven distance is summed edge by edge (:func:`drive_route`), and the
        leg's sum is what leaves the budget and reaches
        :meth:`Vehicle.record_progress` -- the per-leg float path every
        digest is pinned to.  The motion state, the vehicle's ``(location,
        offset)`` and its kinetic-tree root are written once, at the end.
        """
        network = self._network
        adjacency = network.adjacency
        choice = self._rng.choice
        vehicle_id = vehicle.vehicle_id
        motion = self._motions.get(vehicle_id)
        if motion is None:
            location, route, offset = vehicle.location, (), 0.0
        else:
            location, route, offset = motion.location, motion.route, motion.offset
        index = 0
        while budget > 1e-9:
            guard += 1
            if guard > 10_000:  # pragma: no cover - defensive guard
                raise SimulationError(f"vehicle {vehicle_id} made no progress")
            if index == len(route):
                route = []
                current = location
                for _ in range(3):
                    neighbours = list(adjacency[current])
                    if not neighbours:
                        break
                    current = choice(neighbours)
                    route.append(current)
                index, offset = 0, 0.0
                self._targets[vehicle_id] = None
            location, index, offset, travelled = drive_route(
                network, location, route, index, offset, budget
            )
            vehicle.record_progress(travelled)
            if travelled <= 0:
                break
            budget -= travelled
        motion = MotionState(location=location, route=tuple(route[index:]), offset=offset)
        self._motions[vehicle_id] = motion
        self._sync_vehicle_location(vehicle, motion)

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
            # Already standing at the stop: serve it without consuming budget.
            self._motions[vehicle.vehicle_id] = motion
            self._sync_vehicle_location(vehicle, motion)
            self._serve_stops_at_current_vertex(vehicle)
            self._targets[vehicle.vehicle_id] = None
            # Signal the caller that progress was made even though no distance
            # was travelled, by restarting the loop with a tiny epsilon cost.
            return min(budget, 1e-9) if budget > 1e-9 else 0.0
        new_motion, travelled = step_along_route(self._network, motion, budget)
        self._motions[vehicle.vehicle_id] = new_motion
        self._sync_vehicle_location(vehicle, new_motion)
        vehicle.record_progress(travelled)
        if not new_motion.has_route and new_motion.location == next_stop.vertex:
            self._serve_stops_at_current_vertex(vehicle)
            self._targets[vehicle.vehicle_id] = None
        return travelled

    def _plan_towards(self, motion: MotionState, target: int) -> MotionState:
        """Plan a route to ``target``, finishing the current edge first if mid-edge."""
        if motion.offset > 0 and motion.has_route:
            head = motion.route[0]
            rest = plan_route(self._oracle, head, target)
            return MotionState(location=motion.location, route=(head,) + rest.route, offset=motion.offset)
        return plan_route(self._oracle, motion.location, target)

    def _sync_vehicle_location(self, vehicle: Vehicle, motion: MotionState) -> None:
        """Mirror a motion state into the vehicle's (next-vertex, offset) location."""
        if motion.has_route:
            next_vertex = motion.route[0]
            remaining = self._network.edge_weight(motion.location, next_vertex) - motion.offset
            vehicle.set_location(next_vertex, offset=max(0.0, remaining))
        else:
            vehicle.set_location(motion.location, offset=0.0)

    # ------------------------------------------------------------------
    # stop handling
    # ------------------------------------------------------------------
    def _serve_stops_at_current_vertex(self, vehicle: Vehicle) -> None:
        """Fire every pick-up / drop-off whose stop is the vehicle's current vertex."""
        while True:
            next_stop = vehicle.kinetic_tree.next_stop(self._oracle.distance, vehicle.offset)
            if next_stop is None or next_stop.vertex != vehicle.location or vehicle.offset > 1e-9:
                break
            self._serve_stop(vehicle, next_stop)

    def _serve_stop(self, vehicle: Vehicle, stop: Stop) -> None:
        vehicle.arrive_at_stop(stop)
        if stop.is_pickup:
            self._handle_pickup(vehicle, stop)
        else:
            self._handle_dropoff(vehicle, stop)

    def _handle_pickup(self, vehicle: Vehicle, stop: Stop) -> None:
        # Sharing: everyone already on board shares with the newcomer.
        already_onboard = list(vehicle.onboard_requests)
        if already_onboard:
            self.statistics.record_shared(stop.request_id)
            for other in already_onboard:
                self.statistics.record_shared(other)
        self._dispatcher.notify_pickup(vehicle.vehicle_id, stop.request_id)
        record = self._assignments.get(stop.request_id)
        actual_distance = 0.0
        if record is not None:
            actual_distance = vehicle.distance_driven - record.driven_at_assignment
            self.statistics.record_pickup(stop.request_id, self._time, actual_distance)
        else:
            self.statistics.record_pickup(stop.request_id, self._time, 0.0)

    def _handle_dropoff(self, vehicle: Vehicle, stop: Stop) -> None:
        onboard = vehicle.onboard_requests.get(stop.request_id)
        travelled = onboard.travelled_since_pickup if onboard is not None else 0.0
        self._dispatcher.notify_dropoff(vehicle.vehicle_id, stop.request_id)
        self.statistics.record_dropoff(stop.request_id, self._time, travelled)
        self._assignments.pop(stop.request_id, None)
