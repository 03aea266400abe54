"""Ride options, dominance and skyline maintenance.

The output of a price-and-time-aware ridesharing query (Definition 4 of the
paper) is the set of all qualified, mutually non-dominated results
``<c, time, price>``.  Since a constant speed is assumed, pick-up *time* is
represented by the pick-up *distance* ``dist_pt`` from the vehicle's current
location to the request's start location, exactly as in the paper.

Dominance follows the paper (and the classic skyline operator [3]):

    ``r_i`` dominates ``r_j``  iff  (r_i.time <= r_j.time and r_i.price < r_j.price)
                                or  (r_i.time <  r_j.time and r_i.price <= r_j.price)

i.e. at least as good in both dimensions and strictly better in one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.model.stops import Stop

__all__ = ["RideOption", "dominates", "skyline_of", "Skyline"]

#: Tolerance used when comparing prices / distances that went through
#: floating-point arithmetic.  Two values closer than this are "equal".
COMPARISON_EPSILON = 1e-9


@dataclass(frozen=True)
class RideOption:
    """One result offered to a rider: a vehicle, a pick-up distance and a price.

    Attributes:
        vehicle_id: identifier of the offering vehicle ``c``.
        pickup_distance: ``dist_pt``, the travel distance from the vehicle's
            current location to the request start along the offered schedule
            (proportional to the pick-up time at constant speed).
        price: the price of the option under the paper's price model.
        request_id: the request the option answers.
        schedule: the full stop sequence the vehicle would follow if the rider
            accepts; kept so the dispatcher can commit the choice without
            re-planning.
        added_distance: the extra distance the vehicle drives compared to its
            schedule before the insertion (used by statistics and baselines).
    """

    vehicle_id: str
    pickup_distance: float
    price: float
    request_id: str = ""
    schedule: Tuple[Stop, ...] = ()
    added_distance: float = 0.0

    def __post_init__(self) -> None:
        if self.pickup_distance < 0:
            raise ValueError(f"pickup_distance must be non-negative, got {self.pickup_distance}")
        if self.price < 0:
            raise ValueError(f"price must be non-negative, got {self.price}")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{self.vehicle_id}, {self.pickup_distance:g}, {self.price:g}>"


def dominates(first: RideOption, second: RideOption, epsilon: float = 0.0) -> bool:
    """Return ``True`` when ``first`` dominates ``second`` (Definition 4).

    Comparisons are exact by default, which keeps dominance irreflexive,
    antisymmetric and transitive (the properties skyline maintenance relies
    on).  A positive ``epsilon`` makes the comparison tolerant: strictly
    better must then exceed the tolerance -- useful when comparing options
    coming from different floating-point code paths, but not used internally.
    """
    time_le = first.pickup_distance <= second.pickup_distance + epsilon
    time_lt = first.pickup_distance < second.pickup_distance - epsilon
    price_le = first.price <= second.price + epsilon
    price_lt = first.price < second.price - epsilon
    return (time_le and price_lt) or (time_lt and price_le)


def skyline_of(options: Iterable[RideOption]) -> List[RideOption]:
    """Return the non-dominated subset of ``options``.

    The result is sorted by ascending pick-up distance (ties broken by price
    then vehicle id) which is also the order the demo UI presents options in.
    Duplicate ``(time, price)`` points are collapsed to a single
    representative so a rider never sees two indistinguishable offers.
    """
    candidates = sorted(options, key=lambda o: (o.pickup_distance, o.price, o.vehicle_id))
    result: List[RideOption] = []
    for candidate in candidates:
        if any(dominates(kept, candidate) for kept in result):
            continue
        duplicate = any(
            kept.pickup_distance == candidate.pickup_distance and kept.price == candidate.price
            for kept in result
        )
        if duplicate:
            continue
        result.append(candidate)
    return result


class Skyline:
    """Incrementally maintained set of mutually non-dominated options.

    The matchers push candidate options as they verify vehicles; the skyline
    keeps only the non-dominated ones and can answer, for pruning, whether a
    hypothetical ``(time, price)`` lower-bound pair could still contribute.
    """

    def __init__(self, options: Optional[Iterable[RideOption]] = None) -> None:
        self._options: List[RideOption] = []
        if options:
            for option in options:
                self.add(option)

    def __len__(self) -> int:
        return len(self._options)

    def __iter__(self) -> Iterator[RideOption]:
        return iter(self.options())

    def __contains__(self, option: RideOption) -> bool:
        return option in self._options

    def options(self) -> List[RideOption]:
        """Return the current skyline sorted by ascending pick-up distance."""
        return sorted(self._options, key=lambda o: (o.pickup_distance, o.price, o.vehicle_id))

    def add(self, option: RideOption) -> bool:
        """Insert ``option``; return ``True`` when it enters the skyline.

        Dominated candidates are rejected; existing options dominated by the
        newcomer are evicted.  When the newcomer ties an existing member on
        both coordinates, the representative with the smaller ``vehicle_id``
        is kept -- making the surviving skyline independent of insertion
        order, so a matcher may add options in whatever order its search
        finds them.
        """
        for index, existing in enumerate(self._options):
            if dominates(existing, option):
                return False
            if (
                existing.pickup_distance == option.pickup_distance
                and existing.price == option.price
            ):
                if option.vehicle_id < existing.vehicle_id:
                    self._options[index] = option
                    return True
                return False
        self._options = [existing for existing in self._options if not dominates(option, existing)]
        self._options.append(option)
        return True

    def extend(self, options: Iterable[RideOption]) -> int:
        """Add many options; return how many entered the skyline."""
        return sum(1 for option in options if self.add(option))

    @classmethod
    def merge(cls, skylines: Iterable[Iterable[RideOption]]) -> "Skyline":
        """Merge several (per-shard) skylines into one by dominance.

        The result only depends on the *set* of options across all inputs,
        never on how they were partitioned: options are folded in the global
        ``(pickup, price, vehicle_id)`` order and equal points collapse to the
        smallest ``vehicle_id``, so merging the per-shard skylines of a
        partitioned fleet reproduces exactly the skyline a single matcher
        would compute over the whole fleet.
        """
        merged = cls()
        pooled = sorted(
            (option for skyline in skylines for option in skyline),
            key=lambda o: (o.pickup_distance, o.price, o.vehicle_id),
        )
        for option in pooled:
            merged.add(option)
        return merged

    def would_be_dominated(self, pickup_lower_bound: float, price_lower_bound: float) -> bool:
        """Return ``True`` when *no* option at least as bad as the bounds can survive.

        Matchers call this with admissible lower bounds for a candidate
        vehicle: if a skyline member dominates the (optimistic) bound pair it
        also dominates every real option the vehicle could produce, so the
        vehicle can be pruned without verification.
        """
        pickup = max(pickup_lower_bound, 0.0)
        price = max(price_lower_bound, 0.0)
        for existing in self._options:
            # :func:`dominates`, on the bare pair: no worse in both, better in one
            if (
                existing.pickup_distance <= pickup
                and existing.price <= price
                and (existing.pickup_distance < pickup or existing.price < price)
            ):
                return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Skyline({self.options()!r})"
