"""Simulation statistics.

The website interface of the demo (Section 4.2) shows "the current time, the
average response time, and the average sharing rate" and claims that PTRider
is *efficient* (low response time) and *effective* (high sharing rate).
:class:`SimulationStatistics` collects everything needed to reproduce that
panel and the evaluation sweeps:

* per-request matching latency (the response time);
* per-request option counts (how many non-dominated choices riders get);
* matched / unmatched counts;
* sharing: a served request counts as *shared* when, at any moment between
  its pick-up and drop-off, another request's riders were in the same
  vehicle; the **sharing rate** is the fraction of completed requests that
  were shared (the fleet-level occupancy statistics are reported too);
* waiting times (actual minus planned pick-up) and detour ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["summarise", "SimulationStatistics"]


def summarise(values: List[float]) -> Dict[str, float]:
    """Return count / mean / median / p95 / min / max of a value list."""
    if not values:
        return {"count": 0.0, "mean": 0.0, "median": 0.0, "p95": 0.0, "min": 0.0, "max": 0.0}
    ordered = sorted(values)
    count = len(ordered)

    def percentile(fraction: float) -> float:
        if count == 1:
            return ordered[0]
        position = fraction * (count - 1)
        lower = int(math.floor(position))
        upper = min(count - 1, lower + 1)
        weight = position - lower
        return ordered[lower] * (1.0 - weight) + ordered[upper] * weight

    return {
        "count": float(count),
        "mean": sum(ordered) / count,
        "median": percentile(0.5),
        "p95": percentile(0.95),
        "min": ordered[0],
        "max": ordered[-1],
    }


@dataclass
class _RequestRecord:
    """Lifecycle bookkeeping for one request."""

    submit_time: float
    planned_pickup_distance: float = 0.0
    pickup_time: Optional[float] = None
    dropoff_time: Optional[float] = None
    shared: bool = False
    direct_distance: float = 0.0
    travelled_distance: float = 0.0


@dataclass
class SimulationStatistics:
    """Aggregated measurements of one simulation run."""

    response_times: List[float] = field(
        default_factory=list, metadata={"append_only": True, "wall_clock": True}
    )
    option_counts: List[int] = field(default_factory=list, metadata={"append_only": True})
    matched_requests: int = 0
    unmatched_requests: int = 0
    completed_requests: int = 0
    shared_requests: int = 0
    pickups: int = 0
    dropoffs: int = 0
    waiting_distances: List[float] = field(default_factory=list, metadata={"append_only": True})
    detour_ratios: List[float] = field(default_factory=list, metadata={"append_only": True})
    _records: Dict[str, _RequestRecord] = field(default_factory=dict, metadata={"key": "records"})
    #: request ids whose record was created or mutated since the durable
    #: service's last snapshot point (drained by incremental deltas, which
    #: re-serialise only these instead of the whole records map); insertion
    #: order is first-dirtied order, so newly created records append to a
    #: folded state in creation order.  ``None`` -- nothing marked -- unless
    #: a snapshot chain reads them
    dirty_records: Optional[Dict[str, None]] = field(
        default=None, repr=False, compare=False, metadata={"durable": False}
    )

    # ------------------------------------------------------------------
    # event recording (called by the engine / service layer)
    # ------------------------------------------------------------------
    def record_submission(
        self,
        request_id: str,
        submit_time: float,
        option_count: int,
        response_seconds: float,
        matched: bool,
        planned_pickup_distance: float = 0.0,
        direct_distance: float = 0.0,
    ) -> None:
        """Record the outcome of one request submission.

        ``planned_pickup_distance`` and ``direct_distance`` are kept for
        matched requests only; with ``matched=False`` they are dead, so a
        caller must not pay a routing query to fill them.
        """
        self.response_times.append(response_seconds)
        self.option_counts.append(option_count)
        if matched:
            self.matched_requests += 1
            self._records[request_id] = _RequestRecord(
                submit_time=submit_time,
                planned_pickup_distance=planned_pickup_distance,
                direct_distance=direct_distance,
            )
            self._mark_dirty(request_id)
        else:
            self.unmatched_requests += 1

    def record_pickup(self, request_id: str, time: float, actual_pickup_distance: float) -> None:
        """Record that a request's riders boarded their vehicle."""
        self.pickups += 1
        record = self._records.get(request_id)
        if record is None:
            return
        record.pickup_time = time
        self._mark_dirty(request_id)
        self.waiting_distances.append(
            max(0.0, actual_pickup_distance - record.planned_pickup_distance)
        )

    def record_dropoff(self, request_id: str, time: float, travelled_distance: float) -> None:
        """Record that a request completed; compute its detour ratio."""
        self.dropoffs += 1
        record = self._records.get(request_id)
        if record is None:
            return
        record.dropoff_time = time
        record.travelled_distance = travelled_distance
        self._mark_dirty(request_id)
        self.completed_requests += 1
        if record.shared:
            self.shared_requests += 1
        if record.direct_distance > 0:
            self.detour_ratios.append(travelled_distance / record.direct_distance)

    def record_shared(self, request_id: str) -> None:
        """Mark a request as having shared its vehicle with another request."""
        record = self._records.get(request_id)
        if record is not None:
            record.shared = True
            self._mark_dirty(request_id)

    def _mark_dirty(self, request_id: str) -> None:
        if self.dirty_records is not None:
            self.dirty_records[request_id] = None

    # ------------------------------------------------------------------
    # derived metrics (the website panel)
    # ------------------------------------------------------------------
    @property
    def total_requests(self) -> int:
        """Requests submitted (matched plus unmatched)."""
        return self.matched_requests + self.unmatched_requests

    @property
    def average_response_time(self) -> float:
        """Mean matcher latency in seconds (the demo's "average response time")."""
        if not self.response_times:
            return 0.0
        return sum(self.response_times) / len(self.response_times)

    @property
    def average_option_count(self) -> float:
        """Mean number of non-dominated options offered per request."""
        if not self.option_counts:
            return 0.0
        return sum(self.option_counts) / len(self.option_counts)

    @property
    def match_rate(self) -> float:
        """Fraction of requests that accepted an option."""
        if self.total_requests == 0:
            return 0.0
        return self.matched_requests / self.total_requests

    @property
    def sharing_rate(self) -> float:
        """Fraction of completed requests that shared their vehicle."""
        if self.completed_requests == 0:
            return 0.0
        return self.shared_requests / self.completed_requests

    @property
    def average_detour_ratio(self) -> float:
        """Mean travelled / direct distance over completed requests."""
        if not self.detour_ratios:
            return 0.0
        return sum(self.detour_ratios) / len(self.detour_ratios)

    def panel(self) -> Dict[str, float]:
        """Return the statistics shown by the demo website, plus extras."""
        return {
            "requests": float(self.total_requests),
            "matched": float(self.matched_requests),
            "unmatched": float(self.unmatched_requests),
            "match_rate": self.match_rate,
            "average_response_time": self.average_response_time,
            "p95_response_time": summarise(self.response_times)["p95"],
            "average_options": self.average_option_count,
            "completed": float(self.completed_requests),
            "sharing_rate": self.sharing_rate,
            "average_detour_ratio": self.average_detour_ratio,
            "pickups": float(self.pickups),
            "dropoffs": float(self.dropoffs),
        }
