"""A single-option, system-optimal baseline.

The paper's introduction characterises existing real-time ridesharing systems
(lyft, uberPOOL, T-Share, Noah, Xhare-a-Ride) as returning *one* option per
request, chosen to minimise the system-wide vehicle travel time or distance.
:class:`NearestVehicleMatcher` reproduces that behaviour on top of the same
substrate as PTRider: every vehicle is evaluated with the same feasibility
rules, but only the single assignment with the smallest **added distance**
(the system-wide objective) is returned to the rider.

Experiment E11 compares the rider-facing outcomes (price paid, pick-up time)
of this baseline against PTRider's skyline of options.
"""

from __future__ import annotations

from typing import List

from repro.core.context import MatchContext
from repro.core.matcher import Matcher
from repro.model.options import RideOption

__all__ = ["NearestVehicleMatcher"]


class NearestVehicleMatcher(Matcher):
    """Return at most one option: the feasible insertion with minimal added distance."""

    name = "nearest"
    def _collect_options(self, context: MatchContext) -> List[RideOption]:
        best: RideOption | None = None
        for vehicle in self._fleet.vehicles():
            self.statistics.vehicles_considered += 1
            for option in self._verify_vehicle(vehicle, context):
                if best is None or (option.added_distance, option.pickup_distance) < (
                    best.added_distance,
                    best.pickup_distance,
                ):
                    best = option
        return [best] if best is not None else []
