"""Request workloads for the simulation engine and the benchmarks.

A workload is an ordered stream of :class:`~repro.model.request.Request`
objects with submission times.  Workloads are built

* from a trip dataset (the demo replays the Shanghai trips as requests),
* from uniformly random origin/destination pairs (:func:`random_requests`),
  or
* as a synthetic high-volume day with surges, lulls and hotspot origins
  (:meth:`RequestWorkload.daily`).
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.model.request import Request
from repro.roadnet.graph import RoadNetwork
from repro.sim.trips import DailyDemandProfile, TripRecord

__all__ = ["RequestWorkload", "requests_from_trips", "random_requests"]


def requests_from_trips(
    trips: Iterable[TripRecord],
    max_waiting: float,
    service_constraint: float,
    id_prefix: str = "R",
) -> List[Request]:
    """Convert trip records into ridesharing requests with global constraints."""
    requests: List[Request] = []
    for index, trip in enumerate(trips, 1):
        requests.append(
            Request(
                start=trip.origin,
                destination=trip.destination,
                riders=trip.riders,
                max_waiting=max_waiting,
                service_constraint=service_constraint,
                request_id=f"{id_prefix}{index}",
                submit_time=trip.departure_time,
            )
        )
    return requests


def random_requests(
    network: RoadNetwork,
    count: int,
    max_waiting: float,
    service_constraint: float,
    duration: float = 0.0,
    riders_range: Tuple[int, int] = (1, 2),
    seed: Optional[int] = None,
    id_prefix: str = "R",
) -> List[Request]:
    """Return ``count`` uniformly random requests on ``network``.

    With ``duration > 0`` submission times are spread uniformly over the
    window; otherwise every request is submitted at time zero (a burst).
    """
    if count < 0:
        raise ConfigurationError(f"count must be non-negative, got {count}")
    low, high = riders_range
    if low < 1 or high < low:
        raise ConfigurationError(f"invalid riders_range {riders_range}")
    rng = random.Random(seed)
    vertices = network.vertices()
    if len(vertices) < 2:
        raise ConfigurationError("the network needs at least two vertices")
    requests: List[Request] = []
    for index in range(1, count + 1):
        origin, destination = rng.sample(vertices, 2)
        submit = rng.uniform(0.0, duration) if duration > 0 else 0.0
        requests.append(
            Request(
                start=origin,
                destination=destination,
                riders=rng.randint(low, high),
                max_waiting=max_waiting,
                service_constraint=service_constraint,
                request_id=f"{id_prefix}{index}",
                submit_time=submit,
            )
        )
    requests.sort(key=lambda request: request.submit_time)
    return requests


@dataclass
class RequestWorkload:
    """An ordered request stream consumed by the simulation engine."""

    requests: List[Request] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.requests = sorted(self.requests, key=lambda request: request.submit_time)
        self._cursor = 0

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self) -> Iterator[Request]:
        return iter(self.requests)

    @property
    def duration(self) -> float:
        """Submission time of the last request (0 for an empty workload)."""
        if not self.requests:
            return 0.0
        return self.requests[-1].submit_time

    def reset(self) -> None:
        """Rewind the consumption cursor (for re-running a simulation)."""
        self._cursor = 0

    def due(self, until_time: float) -> List[Request]:
        """Pop every request submitted at or before ``until_time``."""
        released: List[Request] = []
        while self._cursor < len(self.requests) and self.requests[self._cursor].submit_time <= until_time:
            released.append(self.requests[self._cursor])
            self._cursor += 1
        return released

    @property
    def remaining(self) -> int:
        """Requests not yet released."""
        return len(self.requests) - self._cursor

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_trips(
        cls,
        trips: Iterable[TripRecord],
        max_waiting: float,
        service_constraint: float,
    ) -> "RequestWorkload":
        """Build a workload that replays a trip dataset."""
        return cls(requests_from_trips(trips, max_waiting, service_constraint))

    @classmethod
    def daily(
        cls,
        network: RoadNetwork,
        total: int,
        duration: float,
        max_waiting: float,
        service_constraint: float,
        profile: Optional[DailyDemandProfile] = None,
        hotspot_count: int = 0,
        hotspot_bias: float = 1.0,
        riders_range: Tuple[int, int] = (1, 2),
        seed: Optional[int] = None,
        id_prefix: str = "D",
    ) -> "RequestWorkload":
        """A synthetic high-volume day: surge/lull arrivals, hotspot origins.

        Exactly ``total`` requests are generated with arrival times drawn
        from the demand profile's intensity over ``[0, duration]`` (the
        replay horizon is mapped onto a 24h day, so the profile's morning
        and evening peaks become surges of the replay).  Conditioned on the
        total count, a nonhomogeneous Poisson process's arrival times are
        exactly i.i.d. draws from the normalised intensity density -- the
        inverse-CDF sampling used here -- so the stream has the surge/lull
        shape of such a process while giving benchmarks a deterministic
        request count.

        With ``hotspot_count > 0``, each origin is drawn from a pool of
        exactly that many hotspot *vertices* with probability
        ``hotspot_bias`` (uniformly random otherwise); destinations are
        always uniform.  Exact-vertex origins are what make a serving
        window's start trees shareable -- the request-collision structure
        the micro-batched ingest path amortises.

        Args:
            network: the road network requests are drawn on.
            total: number of requests to generate (>= 0).
            duration: replay horizon the day is compressed into (> 0).
            max_waiting: per-request waiting budget ``w``.
            service_constraint: per-request detour tolerance ``epsilon``.
            profile: daily demand intensity (the default bimodal profile
                when omitted).
            hotspot_count: size of the exact-vertex origin pool (0 disables
                hotspot structure).
            hotspot_bias: probability an origin comes from the hotspot pool.
            riders_range: inclusive group-size range.
            seed: RNG seed (fully deterministic per seed).
            id_prefix: request-id prefix (ids are ``{prefix}{index}``).
        """
        if total < 0:
            raise ConfigurationError(f"total must be non-negative, got {total}")
        if duration <= 0:
            raise ConfigurationError(f"duration must be positive, got {duration}")
        if not 0.0 <= hotspot_bias <= 1.0:
            raise ConfigurationError(
                f"hotspot_bias must be within [0, 1], got {hotspot_bias}"
            )
        if hotspot_count < 0:
            raise ConfigurationError(
                f"hotspot_count must be non-negative, got {hotspot_count}"
            )
        low, high = riders_range
        if low < 1 or high < low:
            raise ConfigurationError(f"invalid riders_range {riders_range}")
        vertices = network.vertices()
        if len(vertices) < 2:
            raise ConfigurationError("the network needs at least two vertices")
        rng = random.Random(seed)
        shape = profile or DailyDemandProfile()
        weights = shape.cumulative_weights()
        total_weight = weights[-1]
        hotspots = (
            rng.sample(vertices, min(hotspot_count, len(vertices)))
            if hotspot_count
            else []
        )
        bucket_width = duration / len(weights)
        times: List[float] = []
        for _ in range(total):
            pick = rng.random() * total_weight
            bucket = bisect_left(weights, pick)
            previous = weights[bucket - 1] if bucket else 0.0
            span = weights[bucket] - previous
            fraction = (pick - previous) / span if span > 0 else rng.random()
            times.append((bucket + fraction) * bucket_width)
        times.sort()
        requests: List[Request] = []
        for index, submit in enumerate(times, 1):
            if hotspots and rng.random() < hotspot_bias:
                origin = rng.choice(hotspots)
            else:
                origin = rng.choice(vertices)
            destination = rng.choice(vertices)
            while destination == origin:
                destination = rng.choice(vertices)
            requests.append(
                Request(
                    start=origin,
                    destination=destination,
                    riders=rng.randint(low, high),
                    max_waiting=max_waiting,
                    service_constraint=service_constraint,
                    request_id=f"{id_prefix}{index}",
                    submit_time=submit,
                )
            )
        return cls(requests)
