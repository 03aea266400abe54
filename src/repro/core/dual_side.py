"""The dual-side search algorithm (Section 3.3).

Single-side search only prunes with information derived from the request's
*start* location.  The paper motivates the dual-side variant with a schedule
that passes near the start but far from the destination: the vehicle looks
promising from the start side, yet serving the request forces a long detour
to the destination, so the option is expensive and usually dominated.

Dual-side search therefore screens every candidate vehicle from **both
sides**: in addition to the start-side pick-up and price bounds of the
single-side search, it computes an admissible lower bound on the detour
needed to reach the *destination* (using the combined grid / ALT lower
bounds of the :class:`~repro.core.context.MatchContext` against every branch
of the vehicle's kinetic tree) and prunes the vehicle when the combined
optimistic option is already dominated.  Like the single-side price bound,
both are computed only when a confirmed option picks up no later than the
vehicle's pick-up bound -- without one, no member can dominate the pair.  The
bounds remain admissible, so the returned skyline is identical to the
single-side and naive matchers' (property-tested); only the amount of
verification work differs.
"""

from __future__ import annotations

from repro.core.context import MatchContext
from repro.core.matcher import added_distance_lower_bound
from repro.core.single_side import SingleSideSearchMatcher
from repro.vehicles.vehicle import Vehicle

__all__ = ["DualSideSearchMatcher"]


class DualSideSearchMatcher(SingleSideSearchMatcher):
    """Single-side expansion plus destination-side price pruning."""

    name = "dual_side"

    def _price_lower_bound(self, vehicle: Vehicle, context: MatchContext) -> float:
        """Tighten the price bound with the detour needed to reach the destination.

        The added distance of any schedule serving the request is at least the
        detour needed to visit the start *and* at least the detour needed to
        visit the destination (dropping the other new stop from a schedule
        never increases its length), so the maximum of the two start-/
        destination-side bounds is admissible.
        """
        if vehicle.is_empty:
            # For an empty vehicle the start-side bound is already exact in
            # shape (pick-up leg plus direct trip); the destination adds
            # nothing because the trip ends there.
            return super()._price_lower_bound(vehicle, context)
        request = context.request
        start_side = added_distance_lower_bound(
            vehicle,
            request.start,
            self._grid,
            self._engine,
            bound=context.lower_bound,
            distance=context.distance,
        )
        destination_side = added_distance_lower_bound(
            vehicle,
            request.destination,
            self._grid,
            self._engine,
            bound=context.lower_bound,
            distance=context.distance,
        )
        added_lb = max(start_side, destination_side)
        return self._price_model.price(request.riders, added_lb, context.direct)
