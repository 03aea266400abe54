"""The single-side search algorithm (Section 3.3).

For a request ``R = <s, d, n, w, epsilon>`` the search starts from the grid
cell containing ``s`` and visits the remaining cells in ascending order of
their lower-bound distance to that cell (the pre-sorted *grid cell list* of
Fig. 1(b)).  Within each cell, the empty-vehicle list and the non-empty
vehicle list are processed separately:

* the cell's registration set is first tested against the **pick-up cap**:
  a vehicle whose pick-up lower bound (the exact ``dist(c.l, s)``, read off
  the request's start tree, plus its offset) exceeds the configured maximum
  pick-up distance is counted, marked seen and dropped before the list is
  sorted (:meth:`~repro.core.matcher.Matcher._cap_survivors`);
* the survivors, in id order, are screened with **lower bounds** on the
  pick-up distance and on the price (for a non-empty vehicle the exact
  detour through ``s``; for an empty vehicle the index-based pair
  ``_consider`` describes); a vehicle whose optimistic bounds are already
  dominated by a confirmed option is pruned without verification;
* surviving vehicles are verified by inserting the request into their kinetic
  tree over exact distances, exactly as the naive matcher verifies them:
  Section 3.3's bound estimates are spent on the screening above.

Testing the cap first moves no answer.  The cap depends on the request and
the vehicle only, never on the skyline, and dropping a list's failures before
the sort leaves the survivors in the order the full sorted list had them; so
every ``_consider`` call happens in the same order against the same skyline
as when each vehicle went through ``_consider`` whole.  Likewise the per-cell
dominance probes run only once the skyline holds an option: an empty skyline
dominates nothing.

The request's direct distance and its rooted distance tree live in the
per-request :class:`~repro.core.context.MatchContext`, so no vehicle
verification re-issues a request-side shortest-path query.  The context is
an injected argument: the batch pipeline passes the pooled contexts of its
:class:`~repro.core.batch.BatchContext`, and the search cannot tell them from
one :meth:`~repro.core.matcher.Matcher.make_context` built.

The cell expansion itself terminates early when the cell-level lower bound
proves that **no** vehicle registered in the remaining cells can contribute a
non-dominated option.  All pruning rules are admissible, so the result set is
identical to the naive matcher's (verified by property-based tests).
"""

from __future__ import annotations

import math
from typing import List, Set

from repro.core.context import MatchContext
from repro.core.matcher import Matcher
from repro.model.options import RideOption, Skyline
from repro.vehicles.vehicle import Vehicle

__all__ = ["SingleSideSearchMatcher"]


class SingleSideSearchMatcher(Matcher):
    """Grid expansion from the request's start cell with admissible pruning."""

    name = "single_side"

    def _collect_options(self, context: MatchContext) -> List[RideOption]:
        request, direct = context.request, context.direct
        start_cell = self._grid.cell_of_vertex(request.start).cell_id
        start_min = self._grid.vertex_min(request.start)
        max_pickup = self._config.max_pickup_distance
        max_pickup_value = math.inf if max_pickup is None else max_pickup
        price_floor = self._price_model.price(request.riders, 0.0, direct)
        vehicles = self._fleet.by_id

        skyline = Skyline()
        seen: Set[str] = set()
        skip_empty_lists = False

        for cell_bound, cell in self._grid.expand_from(start_cell):
            self.statistics.cells_visited += 1
            # Lower bound on dist(x, s) for ANY vertex x in this cell (and, by
            # the ascending expansion order, in every later cell).
            cell_pickup_lb = 0.0 if cell.cell_id == start_cell else cell_bound + start_min

            if cell_pickup_lb > max_pickup_value:
                # No vehicle whose current location lies this far out can offer
                # an option within the pick-up cap; vehicles registered here
                # with a *closer* current location were already encountered in
                # their own (closer) cell, so the whole expansion can stop.
                break
            # An empty skyline dominates nothing, so both probes wait for the
            # first confirmed option (``price_floor`` validated their inputs).
            if skyline:
                if skyline.would_be_dominated(cell_pickup_lb, price_floor):
                    # Even a hypothetical zero-detour vehicle in this (or any
                    # later) cell would be dominated: stop the expansion.
                    break
                if not skip_empty_lists and skyline.would_be_dominated(
                    cell_pickup_lb,
                    self._price_model.price(request.riders, cell_pickup_lb + direct, direct),
                ):
                    # Empty vehicles this far out (or further) are always
                    # dominated because their added distance is at least their
                    # pick-up distance plus the direct trip.
                    skip_empty_lists = True

            # The cap is tested before a list is sorted or probed.
            if cell.empty_vehicles and not skip_empty_lists:
                for vehicle in self._cap_survivors(
                    cell.empty_vehicles, vehicles, context, max_pickup_value, seen
                ):
                    self._consider(vehicle, context, max_pickup_value, seen, skyline)
            if cell.nonempty_vehicles:
                for vehicle in self._cap_survivors(
                    cell.nonempty_vehicles, vehicles, context, max_pickup_value, seen
                ):
                    self._consider(vehicle, context, max_pickup_value, seen, skyline)

        return skyline.options()

    # ------------------------------------------------------------------
    def _consider(
        self,
        vehicle: Vehicle,
        context: MatchContext,
        max_pickup: float,
        seen: Set[str],
        skyline: Skyline,
    ) -> None:
        """Screen one vehicle with lower bounds; verify it if it survives.

        The cap is checked against the exact pick-up floor for every vehicle;
        after :meth:`_cap_survivors` only a location the start tree does not
        hold (an index bound) can still fail it here.
        The dominance probe of an *empty* vehicle is still the index-based
        pair ``(lb + offset, price(lb + offset + direct))``: its price prices
        the offset, which the insertion's added distance does not contain, so
        it is not admissible for a taxi driving mid-edge (ROADMAP item 1,
        pinned by an xfail in ``tests/core/test_single_side.py``).  Until that
        fix lands the pair is kept whole -- mixing the exact pick-up into it
        would prune vehicles the loose pair let through, and change answers.
        """
        if vehicle.vehicle_id in seen:
            return
        seen.add(vehicle.vehicle_id)
        self.statistics.vehicles_considered += 1

        pickup_lb = self._pickup_lower_bound(vehicle, context)
        if pickup_lb > max_pickup + 1e-9:
            self.statistics.vehicles_pruned += 1
            self.statistics.vehicles_beyond_cap += 1
            return
        if vehicle.is_empty:
            pickup_lb = self._index_pickup_lower_bound(vehicle, context)
        price_lb = self._price_lower_bound(vehicle, context)
        if skyline.would_be_dominated(pickup_lb, price_lb):
            self.statistics.vehicles_pruned += 1
            return
        skyline.extend(self._verify_vehicle(vehicle, context))
