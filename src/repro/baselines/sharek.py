"""A SHAREK-style baseline (Cao et al., MDM 2015).

The paper contrasts PTRider with SHAREK on two points (Section 1):

1. **Problem definition** -- SHAREK assumes every vehicle has a fixed start
   and destination and serves only *one* group of riders per trip.  The
   baseline therefore only offers options from vehicles that currently carry
   at most one rider group, and never mixes two groups in the same vehicle.
2. **Pruning** -- SHAREK prunes candidate vehicles with Euclidean distances
   rather than road-network lower bounds.  The baseline screens vehicles with
   a Euclidean bound on the pick-up distance (admissible whenever edge
   weights are at least the Euclidean length of the edge, which holds for
   every generator in :mod:`repro.roadnet.generators`), then verifies the
   survivors exactly.

Experiment E9 measures how much more verification work the Euclidean pruning
needs compared to PTRider's grid lower bounds, and how the one-group-per-trip
rule reduces the options riders see.
"""

from __future__ import annotations

from typing import List

from repro.core.context import MatchContext
from repro.core.matcher import Matcher
from repro.model.options import RideOption, Skyline
from repro.vehicles.vehicle import Vehicle

__all__ = ["SharekStyleMatcher"]


class SharekStyleMatcher(Matcher):
    """Price-and-time options with Euclidean pruning and one group per trip."""

    name = "sharek"

    def _collect_options(self, context: MatchContext, fleet) -> List[RideOption]:
        request, direct = context.request, context.direct
        network = self._grid.network
        max_pickup = self._config.max_pickup_distance
        skyline = Skyline()

        candidates: List[Vehicle] = [
            vehicle for vehicle in fleet.vehicles() if self._eligible(vehicle)
        ]
        # SHAREK sorts candidates by Euclidean proximity to the pick-up point.
        candidates.sort(key=lambda vehicle: network.euclidean_distance(vehicle.location, request.start))
        for vehicle in candidates:
            self.statistics.vehicles_considered += 1
            euclidean_lb = (
                network.euclidean_distance(vehicle.location, request.start) + vehicle.offset
            )
            if max_pickup is not None and euclidean_lb > max_pickup + 1e-9:
                self.statistics.vehicles_pruned += 1
                self.statistics.vehicles_beyond_cap += 1
                continue
            price_lb = self._price_model.price(request.riders, 0.0, direct)
            if skyline.would_be_dominated(euclidean_lb, price_lb):
                self.statistics.vehicles_pruned += 1
                continue
            skyline.extend(self._verify_vehicle(vehicle, context))
        return skyline.options()

    @staticmethod
    def _eligible(vehicle: Vehicle) -> bool:
        """SHAREK vehicles serve one rider group per trip: only idle vehicles qualify."""
        return vehicle.is_empty
