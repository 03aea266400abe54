"""A T-Share-style baseline (Ma et al., ICDE 2013).

T-Share answers each request with a single taxi found by searching grid cells
outwards from the pick-up point and choosing the first taxi that can serve
the request within its time windows -- i.e. it optimises the pick-up time and
offers no price/time trade-off.  The baseline reproduces that search shape on
PTRider's substrate: cells are expanded in ascending lower-bound order from
the start cell, vehicles are verified with the shared feasibility rules, and
the single option with the earliest pick-up is returned.

The search stops as soon as further cells provably cannot beat the best
pick-up found so far, which is the analogue of T-Share's temporal grid
filtering.
"""

from __future__ import annotations

import math
from typing import List, Optional, Set

from repro.core.context import MatchContext
from repro.core.matcher import Matcher
from repro.model.options import RideOption
from repro.vehicles.vehicle import Vehicle

__all__ = ["TShareStyleMatcher"]


class TShareStyleMatcher(Matcher):
    """Return the single feasible option with the earliest pick-up."""

    name = "tshare"
    def _collect_options(self, context: MatchContext) -> List[RideOption]:
        request = context.request
        start_cell = self._grid.cell_of_vertex(request.start).cell_id
        start_min = self._grid.vertex_min(request.start)
        max_pickup = self._config.max_pickup_distance
        max_pickup_value = math.inf if max_pickup is None else max_pickup
        vehicles = self._fleet.by_id
        best: Optional[RideOption] = None
        seen: Set[str] = set()

        for cell_bound, cell in self._grid.expand_from(start_cell):
            self.statistics.cells_visited += 1
            cell_pickup_lb = 0.0 if cell.cell_id == start_cell else cell_bound + start_min
            if best is not None and cell_pickup_lb >= best.pickup_distance:
                break
            if max_pickup is not None and cell_pickup_lb > max_pickup:
                break
            # The single-side walk's cap-first lists: empty, then serving.
            candidates: List[Vehicle] = []
            if cell.empty_vehicles:
                candidates = self._cap_survivors(
                    cell.empty_vehicles, vehicles, context, max_pickup_value, seen
                )
            if cell.nonempty_vehicles:
                candidates += self._cap_survivors(
                    cell.nonempty_vehicles, vehicles, context, max_pickup_value, seen
                )
            for vehicle in candidates:
                if vehicle.vehicle_id in seen:
                    continue
                seen.add(vehicle.vehicle_id)
                self.statistics.vehicles_considered += 1
                pickup_lb = self._pickup_lower_bound(vehicle, context)
                if best is not None and pickup_lb >= best.pickup_distance:
                    self.statistics.vehicles_pruned += 1
                    continue
                if pickup_lb > max_pickup_value + 1e-9:
                    self.statistics.vehicles_pruned += 1
                    self.statistics.vehicles_beyond_cap += 1
                    continue
                for option in self._verify_vehicle(vehicle, context):
                    if best is None or option.pickup_distance < best.pickup_distance:
                        best = option
        return [best] if best is not None else []
