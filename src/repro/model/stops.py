"""Trip-schedule stops.

A vehicle trip schedule (Definition 2 of the paper) is a sequence of
locations; every location after the vehicle's current position is either the
start (pick-up) or the destination (drop-off) of an unfinished request.
:class:`Stop` captures one such location together with the request it belongs
to, so feasibility checks can track occupancy and per-request constraints.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

__all__ = ["StopKind", "Stop"]


class StopKind(enum.Enum):
    """Whether a stop picks riders up or drops them off."""

    PICKUP = "pickup"
    DROPOFF = "dropoff"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Stop:
    """One stop of a vehicle trip schedule.

    Stops are immutable and are read on the hottest loops of the matcher
    (every kinetic-tree branch is flattened per insertion call, branching on
    the stop kind and summing ``occupancy_delta``; schedule tuples are hashed
    whenever a kinetic tree deduplicates its branches), so the derived values
    -- ``is_pickup`` / ``is_dropoff`` / ``occupancy_delta`` and the hash --
    are computed once at construction instead of per access.

    Attributes:
        vertex: the road-network vertex of the stop.
        request_id: the request served at the stop.
        kind: pick-up or drop-off.
        riders: how many riders board (pick-up) or alight (drop-off).
    """

    vertex: int
    request_id: str
    kind: StopKind
    riders: int = 1

    #: ``True`` for pick-up stops (precomputed attribute, not a property).
    is_pickup: bool = field(init=False, repr=False, compare=False)
    #: ``True`` for drop-off stops.
    is_dropoff: bool = field(init=False, repr=False, compare=False)
    #: Signed change in vehicle occupancy caused by this stop.
    occupancy_delta: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.riders < 1:
            raise ValueError(f"stop for {self.request_id} must move at least one rider")
        is_pickup = self.kind is StopKind.PICKUP
        object.__setattr__(self, "is_pickup", is_pickup)
        object.__setattr__(self, "is_dropoff", not is_pickup)
        object.__setattr__(
            self, "occupancy_delta", self.riders if is_pickup else -self.riders
        )
        object.__setattr__(
            self, "_hash", hash((self.vertex, self.request_id, self.kind, self.riders))
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Pickle by construction arguments, not by state: the precomputed
        # hash bakes in this process's string-hash seed, so a stop unpickled
        # in another process must recompute it under that process's seed or
        # set/dict membership silently breaks there.
        return (Stop, (self.vertex, self.request_id, self.kind, self.riders))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        sign = "+" if self.is_pickup else "-"
        return f"{self.kind.value}({self.request_id}@{self.vertex}{sign}{self.riders})"


def pickup(vertex: int, request_id: str, riders: int = 1) -> Stop:
    """Convenience constructor for a pick-up stop."""
    return Stop(vertex=vertex, request_id=request_id, kind=StopKind.PICKUP, riders=riders)


def dropoff(vertex: int, request_id: str, riders: int = 1) -> Stop:
    """Convenience constructor for a drop-off stop."""
    return Stop(vertex=vertex, request_id=request_id, kind=StopKind.DROPOFF, riders=riders)
