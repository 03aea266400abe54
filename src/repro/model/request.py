"""The ridesharing request of Definition 1.

A request ``R = <s, d, n, w, epsilon>`` consists of a start location, a
destination, the number of riders, the maximum waiting time ``w`` (the slack
allowed between the *planned* and the *actual* pick-up time) and the service
constraint ``epsilon`` (the relative detour allowed between start and
destination).

Because PTRider assumes a constant vehicle speed (Section 2.1), times and
distances are interchangeable; the library expresses ``w`` in the same
distance units as edge weights.  Helpers convert to wall-clock seconds when a
speed is supplied.
"""

from __future__ import annotations

import itertools
import uuid
from dataclasses import dataclass, field
from functools import cached_property
from typing import Tuple

from repro.errors import RequestError
from repro.model.stops import Stop, StopKind

__all__ = ["Request"]

_request_counter = itertools.count(1)
#: Per-process salt so generated ids never collide with explicit ids such as
#: "R1" used by callers, workload generators or the paper's examples.
_PROCESS_SALT = uuid.uuid4().hex[:6]


def _next_request_id() -> str:
    return f"req-{_PROCESS_SALT}-{next(_request_counter)}"


@dataclass(frozen=True)
class Request:
    """A ridesharing request (Definition 1 of the paper).

    Attributes:
        start: start vertex ``s`` on the road network.
        destination: destination vertex ``d``.
        riders: number of riders ``n`` travelling together (>= 1).
        max_waiting: maximum waiting time ``w`` expressed in distance units
            (the slack allowed between planned and actual pick-up).
        service_constraint: detour tolerance ``epsilon``; the travelled
            distance from ``s`` to ``d`` may not exceed
            ``(1 + epsilon) * dist(s, d)``.
        request_id: unique identifier; generated when omitted.
        submit_time: simulation time at which the request entered the system.
    """

    start: int
    destination: int
    riders: int = 1
    max_waiting: float = 5.0
    service_constraint: float = 0.2
    request_id: str = field(default_factory=_next_request_id)
    submit_time: float = 0.0

    def __post_init__(self) -> None:
        if self.start == self.destination:
            raise RequestError(
                f"request {self.request_id}: start and destination must differ, got {self.start}"
            )
        if self.riders < 1:
            raise RequestError(f"request {self.request_id}: riders must be >= 1, got {self.riders}")
        if self.max_waiting < 0:
            raise RequestError(
                f"request {self.request_id}: max_waiting must be non-negative, got {self.max_waiting}"
            )
        if self.service_constraint < 0:
            raise RequestError(
                f"request {self.request_id}: service_constraint must be non-negative, "
                f"got {self.service_constraint}"
            )
        if self.submit_time < 0:
            raise RequestError(
                f"request {self.request_id}: submit_time must be non-negative, got {self.submit_time}"
            )

    @cached_property
    def stops(self) -> Tuple[Stop, Stop]:
        """The request's pick-up and drop-off :class:`Stop`, built once.

        Every insertion candidate of the request, on every vehicle it is
        checked against, holds these two objects.  The pair is cached in the
        instance ``__dict__``, outside the dataclass fields, so equality,
        hashing and the durable encoding of a request do not see it.
        """
        return (
            Stop(self.start, self.request_id, StopKind.PICKUP, self.riders),
            Stop(self.destination, self.request_id, StopKind.DROPOFF, self.riders),
        )

    def detour_budget(self, direct_distance: float) -> float:
        """Return the maximum distance allowed from ``s`` to ``d`` in a schedule.

        Args:
            direct_distance: the shortest-path distance ``dist(s, d)``.
        """
        if direct_distance < 0:
            raise RequestError(f"direct_distance must be non-negative, got {direct_distance}")
        return (1.0 + self.service_constraint) * direct_distance

    def describe(self) -> str:
        """Return a short human-readable description (used by the CLI / service)."""
        return (
            f"{self.request_id}: {self.riders} rider(s) from {self.start} to {self.destination} "
            f"(w={self.max_waiting}, eps={self.service_constraint})"
        )
