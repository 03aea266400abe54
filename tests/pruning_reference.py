"""The vehicle screening the grid searches had before the start tree became a
bound, kept as the reference the screened matchers are compared against.

Until PR 19 every bound a vehicle was screened with came from the indexes:
``u.min + lb(cell, cell) + v.min`` from the grid, tightened by the engine's
ALT (or table) bound.  The matchers now read the start-side legs off the
request's start tree instead, and claim that nothing a rider is shown moved:
option lists -- vehicle ids and floats -- are ``==``.  The classes below are
the old single-side, dual-side and T-Share searches, expansion loop and
``_consider`` included, copied from that commit with :func:`index_lower_bound`
written out here; they share with the code under test only what the change
did not touch (``Matcher._verify_vehicle``, ``added_distance_lower_bound``
with its ``bound`` handed in, the grid's expansion order).

Like the searches they were copied from they inherit the inadmissible
empty-vehicle price probe (ROADMAP item 1), so they are the reference for
*identity with the parent*, not for correctness: that reference is the naive
matcher.

:class:`SortedListWalk` is the other walk kept here: the single-side cell
walk as it was before the pick-up cap moved in front of the per-cell lists.
Each cell's two lists are built whole (:func:`empty_vehicles_in_cell` and
:func:`nonempty_vehicles_in_cell`, the fleet's list builders of that time:
sorted by id, filtered to the vehicles the fleet holds), every vehicle
on them goes to ``_consider`` -- seen, beyond the cap or not -- and both dominance probes
run in every cell, skyline empty or not.  Mixed into today's single-side and
dual-side matchers (:class:`ListWalkSingleSideMatcher`,
:class:`ListWalkDualSideMatcher`) it shares their screening, so it pins the
walk alone (``tests/property/test_cap_first_walk.py``).
"""

from __future__ import annotations

import math
from typing import List, Optional, Set

from repro.core.context import MatchContext
from repro.core.dual_side import DualSideSearchMatcher
from repro.core.matcher import Matcher, added_distance_lower_bound
from repro.core.single_side import SingleSideSearchMatcher
from repro.model.options import RideOption, Skyline
from repro.vehicles.vehicle import Vehicle


def empty_vehicles_in_cell(fleet, cell_id) -> List[Vehicle]:
    """The empty vehicles ``fleet`` holds in ``cell_id``, sorted by id."""
    vehicles = fleet.by_id
    ids = fleet.grid.cell(cell_id).empty_vehicles
    return [vehicles[vid] for vid in sorted(ids) if vid in vehicles]


def nonempty_vehicles_in_cell(fleet, cell_id) -> List[Vehicle]:
    """The non-empty vehicles ``fleet`` holds in ``cell_id``, sorted by id."""
    vehicles = fleet.by_id
    ids = fleet.grid.cell(cell_id).nonempty_vehicles
    return [vehicles[vid] for vid in sorted(ids) if vid in vehicles]


def index_lower_bound(context: MatchContext, source: int, target: int) -> float:
    """``MatchContext.lower_bound`` as it was: grid cells vs the engine's bound."""
    engine_bound = context.engine.distance_lower_bound(source, target)
    bound = context.grid.distance_lower_bound(source, target)
    return engine_bound if engine_bound > bound else bound


class _IndexScreening(Matcher):
    """The two probes of the old screening, index bounds only."""

    def _pickup_lower_bound(self, vehicle: Vehicle, context: MatchContext) -> float:
        return index_lower_bound(context, vehicle.location, context.request.start) + vehicle.offset

    def _added_lower_bound(self, vehicle: Vehicle, vertex: int, context: MatchContext) -> float:
        return added_distance_lower_bound(
            vehicle,
            vertex,
            self._grid,
            self._engine,
            bound=lambda source, target: index_lower_bound(context, source, target),
            distance=context.distance,
        )

    def _price_lower_bound(self, vehicle: Vehicle, context: MatchContext) -> float:
        request, direct = context.request, context.direct
        if vehicle.is_empty:
            pickup_lb = self._pickup_lower_bound(vehicle, context)
            return self._price_model.price(request.riders, pickup_lb + direct, direct)
        added_lb = self._added_lower_bound(vehicle, request.start, context)
        return self._price_model.price(request.riders, added_lb, direct)


class ReferenceSingleSideMatcher(_IndexScreening):
    """``SingleSideSearchMatcher`` with the old screening."""

    name = "reference_single_side"

    def _collect_options(self, context: MatchContext) -> List[RideOption]:
        fleet = self._fleet
        request, direct = context.request, context.direct
        start_cell = self._grid.cell_of_vertex(request.start).cell_id
        start_min = self._grid.vertex_min(request.start)
        max_pickup = self._config.max_pickup_distance
        max_pickup_value = math.inf if max_pickup is None else max_pickup
        price_floor = self._price_model.price(request.riders, 0.0, direct)

        skyline = Skyline()
        seen: Set[str] = set()
        skip_empty_lists = False

        for cell_bound, cell in self._grid.expand_from(start_cell):
            self.statistics.cells_visited += 1
            cell_pickup_lb = 0.0 if cell.cell_id == start_cell else cell_bound + start_min
            if cell_pickup_lb > max_pickup_value:
                break
            if skyline.would_be_dominated(cell_pickup_lb, price_floor):
                break
            if not skip_empty_lists and skyline.would_be_dominated(
                cell_pickup_lb,
                self._price_model.price(request.riders, cell_pickup_lb + direct, direct),
            ):
                skip_empty_lists = True
            if not skip_empty_lists:
                for vehicle in empty_vehicles_in_cell(fleet, cell.cell_id):
                    self._consider(vehicle, context, max_pickup_value, seen, skyline)
            for vehicle in nonempty_vehicles_in_cell(fleet, cell.cell_id):
                self._consider(vehicle, context, max_pickup_value, seen, skyline)
        return skyline.options()

    def _consider(
        self,
        vehicle: Vehicle,
        context: MatchContext,
        max_pickup: float,
        seen: Set[str],
        skyline: Skyline,
    ) -> None:
        if vehicle.vehicle_id in seen:
            return
        seen.add(vehicle.vehicle_id)
        self.statistics.vehicles_considered += 1
        pickup_lb = self._pickup_lower_bound(vehicle, context)
        if pickup_lb > max_pickup + 1e-9:
            self.statistics.vehicles_pruned += 1
            return
        price_lb = self._price_lower_bound(vehicle, context)
        if skyline.would_be_dominated(pickup_lb, price_lb):
            self.statistics.vehicles_pruned += 1
            return
        skyline.extend(self._verify_vehicle(vehicle, context))


class ReferenceDualSideMatcher(ReferenceSingleSideMatcher):
    """``DualSideSearchMatcher`` with the old screening."""

    name = "reference_dual_side"

    def _price_lower_bound(self, vehicle: Vehicle, context: MatchContext) -> float:
        if vehicle.is_empty:
            return super()._price_lower_bound(vehicle, context)
        request = context.request
        added_lb = max(
            self._added_lower_bound(vehicle, request.start, context),
            self._added_lower_bound(vehicle, request.destination, context),
        )
        return self._price_model.price(request.riders, added_lb, context.direct)


class ReferenceTShareMatcher(_IndexScreening):
    """``TShareStyleMatcher`` with the old screening."""

    name = "reference_tshare"

    def _collect_options(self, context: MatchContext) -> List[RideOption]:
        fleet = self._fleet
        request = context.request
        start_cell = self._grid.cell_of_vertex(request.start).cell_id
        start_min = self._grid.vertex_min(request.start)
        max_pickup = self._config.max_pickup_distance
        best: Optional[RideOption] = None
        seen: Set[str] = set()

        for cell_bound, cell in self._grid.expand_from(start_cell):
            self.statistics.cells_visited += 1
            cell_pickup_lb = 0.0 if cell.cell_id == start_cell else cell_bound + start_min
            if best is not None and cell_pickup_lb >= best.pickup_distance:
                break
            if max_pickup is not None and cell_pickup_lb > max_pickup:
                break
            vehicles = empty_vehicles_in_cell(fleet, cell.cell_id)
            vehicles += nonempty_vehicles_in_cell(fleet, cell.cell_id)
            for vehicle in vehicles:
                if vehicle.vehicle_id in seen:
                    continue
                seen.add(vehicle.vehicle_id)
                self.statistics.vehicles_considered += 1
                pickup_lb = self._pickup_lower_bound(vehicle, context)
                if best is not None and pickup_lb >= best.pickup_distance:
                    self.statistics.vehicles_pruned += 1
                    continue
                if max_pickup is not None and pickup_lb > max_pickup + 1e-9:
                    self.statistics.vehicles_pruned += 1
                    continue
                for option in self._verify_vehicle(vehicle, context):
                    if best is None or option.pickup_distance < best.pickup_distance:
                        best = option
        return [best] if best is not None else []


class SortedListWalk:
    """``SingleSideSearchMatcher._collect_options`` with the fleet's sorted lists."""

    def _collect_options(self, context: MatchContext) -> List[RideOption]:
        fleet = self._fleet
        request, direct = context.request, context.direct
        start_cell = self._grid.cell_of_vertex(request.start).cell_id
        start_min = self._grid.vertex_min(request.start)
        max_pickup = self._config.max_pickup_distance
        max_pickup_value = math.inf if max_pickup is None else max_pickup
        price_floor = self._price_model.price(request.riders, 0.0, direct)

        skyline = Skyline()
        seen: Set[str] = set()
        skip_empty_lists = False

        for cell_bound, cell in self._grid.expand_from(start_cell):
            self.statistics.cells_visited += 1
            cell_pickup_lb = 0.0 if cell.cell_id == start_cell else cell_bound + start_min
            if cell_pickup_lb > max_pickup_value:
                break
            if skyline.would_be_dominated(cell_pickup_lb, price_floor):
                break
            if not skip_empty_lists and skyline.would_be_dominated(
                cell_pickup_lb,
                self._price_model.price(request.riders, cell_pickup_lb + direct, direct),
            ):
                skip_empty_lists = True
            if not skip_empty_lists:
                for vehicle in empty_vehicles_in_cell(fleet, cell.cell_id):
                    self._consider(vehicle, context, max_pickup_value, seen, skyline)
            for vehicle in nonempty_vehicles_in_cell(fleet, cell.cell_id):
                self._consider(vehicle, context, max_pickup_value, seen, skyline)
        return skyline.options()


class ListWalkSingleSideMatcher(SortedListWalk, SingleSideSearchMatcher):
    """Today's single-side screening over the sorted-list walk."""

    name = "list_walk_single_side"


class ListWalkDualSideMatcher(SortedListWalk, DualSideSearchMatcher):
    """Today's dual-side screening over the sorted-list walk."""

    name = "list_walk_dual_side"
