"""The naive kinetic-tree matcher (the baseline of Section 3.3).

"A naive method can be extended directly from the kinetic tree algorithm
[7]: we evaluate every vehicle to find all possible pairs of pick-up time and
price that cannot dominate each other when inserting the request into its
kinetic tree."

The naive matcher therefore

* verifies **every** vehicle of the fleet (no grid pruning, no lower-bound
  screening), and
* verifies each one the way every matcher does -- the kinetic-tree insertion
  over exact shortest-path distances -- so it differs from the grid searches
  by screening alone.

It is the correctness reference the optimized matchers are property-tested
against, and the baseline of experiment E3.
"""

from __future__ import annotations

from typing import List

from repro.core.context import MatchContext
from repro.core.matcher import Matcher
from repro.model.options import RideOption

__all__ = ["NaiveKineticTreeMatcher"]


class NaiveKineticTreeMatcher(Matcher):
    """Evaluate every vehicle, with no pruning and no screening."""

    name = "naive"

    def _collect_options(self, context: MatchContext, fleet) -> List[RideOption]:
        options: List[RideOption] = []
        for vehicle in fleet.vehicles():
            self.statistics.vehicles_considered += 1
            options.extend(self._verify_vehicle(vehicle, context))
        return options
