"""Synthetic Shanghai-like trip datasets.

The demonstration replays 432,327 trips extracted from 17,000 Shanghai taxis
over one day (May 29, 2009).  That dataset is not redistributable, so this
module generates a *statistically similar* substitute at any scale:

* a **bimodal daily demand profile** with a morning and an evening rush hour
  (plus a smaller lunchtime bump), matching published Shanghai taxi demand
  curves;
* **hot spots**: a configurable number of attraction centres (business
  districts, transport hubs); origins and destinations are drawn near hot
  spots with higher probability than uniformly at random, and flows reverse
  between the morning and evening peaks (home -> work, then work -> home);
* **trip lengths** whose distribution is right-skewed (many short urban hops,
  a long tail of cross-city trips);
* **group sizes** dominated by single riders with occasional groups, matching
  the demo's rider-count input.

Every generator is deterministic for a given seed, so experiments are
reproducible.  The matchers never look at anything beyond the trip tuples
``(origin, destination, riders, departure_time)``, which is why this
substitution preserves the behaviour the paper evaluates.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.roadnet.graph import RoadNetwork

__all__ = ["TripRecord", "DailyDemandProfile", "ShanghaiLikeTripGenerator"]

#: Number of simulation seconds in one day.
SECONDS_PER_DAY = 86_400.0

#: Size of the real dataset the demo uses, kept for documentation.
SHANGHAI_TRIPS = 432_327
SHANGHAI_TAXIS = 17_000


@dataclass(frozen=True)
class TripRecord:
    """One historical trip: where and when a rider group travelled."""

    trip_id: str
    origin: int
    destination: int
    riders: int
    departure_time: float

    def __post_init__(self) -> None:
        if self.origin == self.destination:
            raise ConfigurationError(f"trip {self.trip_id}: origin equals destination")
        if self.riders < 1:
            raise ConfigurationError(f"trip {self.trip_id}: riders must be >= 1")
        if self.departure_time < 0:
            raise ConfigurationError(f"trip {self.trip_id}: departure_time must be non-negative")


@dataclass(frozen=True)
class DailyDemandProfile:
    """Piecewise demand intensity over a day.

    The default profile has a strong morning peak (07:30--09:30), a lunch
    bump, and the strongest evening peak (17:00--20:00), on top of a low
    night-time base -- the classic urban taxi demand shape.
    """

    #: ``(hour_of_day, relative_intensity)`` control points; linearly interpolated.
    control_points: Tuple[Tuple[float, float], ...] = (
        (0.0, 0.25),
        (3.0, 0.10),
        (6.0, 0.35),
        (8.0, 1.00),
        (10.0, 0.55),
        (12.5, 0.70),
        (15.0, 0.55),
        (18.0, 1.20),
        (20.0, 0.85),
        (22.5, 0.45),
        (24.0, 0.25),
    )

    def intensity(self, time_of_day_seconds: float) -> float:
        """Relative demand intensity at a time of day (seconds since midnight)."""
        hour = (time_of_day_seconds % SECONDS_PER_DAY) / 3600.0
        points = self.control_points
        for (h0, v0), (h1, v1) in zip(points, points[1:]):
            if h0 <= hour <= h1:
                if h1 == h0:
                    return v1
                fraction = (hour - h0) / (h1 - h0)
                return v0 + fraction * (v1 - v0)
        return points[-1][1]

    def cumulative_weights(self, buckets: int = 288) -> List[float]:
        """Cumulative intensity over ``buckets`` equal slices of the day."""
        step = SECONDS_PER_DAY / buckets
        weights: List[float] = []
        total = 0.0
        for bucket in range(buckets):
            total += self.intensity((bucket + 0.5) * step)
            weights.append(total)
        return weights


class ShanghaiLikeTripGenerator:
    """Generate a day of taxi trips with Shanghai-like structure.

    Args:
        network: the road network trips are drawn on.
        seed: RNG seed (the generator is fully deterministic per seed).
        hotspot_count: number of attraction centres.
        hotspot_bias: probability that a trip endpoint is drawn near a hot
            spot rather than uniformly.
        mean_group_size_decay: geometric decay of group sizes (larger means
            more single riders).
        demand_profile: daily demand intensity; defaults to the bimodal
            profile described in the module docstring.
    """

    def __init__(
        self,
        network: RoadNetwork,
        seed: Optional[int] = None,
        hotspot_count: int = 6,
        hotspot_bias: float = 0.6,
        mean_group_size_decay: float = 0.65,
        demand_profile: Optional[DailyDemandProfile] = None,
    ) -> None:
        if hotspot_count < 1:
            raise ConfigurationError(f"hotspot_count must be >= 1, got {hotspot_count}")
        if not 0.0 <= hotspot_bias <= 1.0:
            raise ConfigurationError(f"hotspot_bias must be in [0, 1], got {hotspot_bias}")
        if not 0.0 < mean_group_size_decay < 1.0:
            raise ConfigurationError(
                f"mean_group_size_decay must be in (0, 1), got {mean_group_size_decay}"
            )
        self._network = network
        self._rng = random.Random(seed)
        self._hotspot_bias = hotspot_bias
        self._group_decay = mean_group_size_decay
        self._profile = demand_profile or DailyDemandProfile()
        self._vertices = network.vertices()
        if len(self._vertices) < 2:
            raise ConfigurationError("the network needs at least two vertices to generate trips")
        self._hotspots = self._pick_hotspots(hotspot_count)
        self._hotspot_neighbourhoods = {
            hotspot: self._neighbourhood(hotspot) for hotspot in self._hotspots
        }

    # ------------------------------------------------------------------
    @property
    def hotspots(self) -> List[int]:
        """The chosen hot-spot vertices (for plotting / documentation)."""
        return list(self._hotspots)

    def generate(
        self,
        trip_count: int,
        max_riders: int = 4,
        day_seconds: float = SECONDS_PER_DAY,
    ) -> List[TripRecord]:
        """Return ``trip_count`` trips spread over one day.

        Trips are sorted by departure time.  Departure times follow the
        demand profile; origins/destinations follow the hot-spot model with
        direction reversal between the morning and the evening.
        """
        if trip_count < 0:
            raise ConfigurationError(f"trip_count must be non-negative, got {trip_count}")
        if max_riders < 1:
            raise ConfigurationError(f"max_riders must be >= 1, got {max_riders}")
        cumulative = self._profile.cumulative_weights()
        total_weight = cumulative[-1]
        bucket_width = day_seconds / len(cumulative)

        trips: List[TripRecord] = []
        for index in range(trip_count):
            target = self._rng.uniform(0.0, total_weight)
            bucket = bisect.bisect_left(cumulative, target)
            departure = min(
                day_seconds,
                bucket * bucket_width + self._rng.uniform(0.0, bucket_width),
            )
            origin, destination = self._draw_endpoints(departure, day_seconds)
            riders = self._draw_group_size(max_riders)
            trips.append(
                TripRecord(
                    trip_id=f"T{index + 1}",
                    origin=origin,
                    destination=destination,
                    riders=riders,
                    departure_time=departure,
                )
            )
        trips.sort(key=lambda trip: trip.departure_time)
        return trips

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _pick_hotspots(self, count: int) -> List[int]:
        count = min(count, len(self._vertices))
        return self._rng.sample(self._vertices, count)

    def _neighbourhood(self, hotspot: int, size: int = 12) -> List[int]:
        """Vertices near a hot spot (breadth-first by hop count)."""
        frontier = [hotspot]
        seen = {hotspot}
        order = [hotspot]
        while frontier and len(order) < size:
            nxt: List[int] = []
            for vertex in frontier:
                for neighbour in self._network.neighbours_view(vertex):
                    if neighbour not in seen:
                        seen.add(neighbour)
                        order.append(neighbour)
                        nxt.append(neighbour)
                        if len(order) >= size:
                            break
                if len(order) >= size:
                    break
            frontier = nxt
        return order

    def _draw_near_hotspot(self) -> int:
        hotspot = self._rng.choice(self._hotspots)
        return self._rng.choice(self._hotspot_neighbourhoods[hotspot])

    def _draw_endpoints(self, departure: float, day_seconds: float) -> Tuple[int, int]:
        """Draw an (origin, destination) pair respecting the commuting direction."""
        hour = (departure / day_seconds) * 24.0
        morning = 6.0 <= hour < 12.0
        towards_hotspot = morning  # commute into the centres in the morning
        for _ in range(32):
            if self._rng.random() < self._hotspot_bias:
                hotspot_end = self._draw_near_hotspot()
                other_end = self._rng.choice(self._vertices)
                origin, destination = (
                    (other_end, hotspot_end) if towards_hotspot else (hotspot_end, other_end)
                )
            else:
                origin = self._rng.choice(self._vertices)
                destination = self._rng.choice(self._vertices)
            if origin != destination:
                return origin, destination
        # Extremely small networks may need a deterministic fallback.
        origin = self._vertices[0]
        destination = self._vertices[1]
        return origin, destination

    def _draw_group_size(self, max_riders: int) -> int:
        """Geometric-ish group size: mostly 1, occasionally up to ``max_riders``."""
        riders = 1
        while riders < max_riders and self._rng.random() > self._group_decay:
            riders += 1
        return riders
