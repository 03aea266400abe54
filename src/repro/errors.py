"""Exception hierarchy shared by every PTRider subsystem.

All library errors derive from :class:`PTRiderError` so applications can
catch a single base class.  More specific classes exist for the situations a
caller is expected to handle programmatically (bad input, infeasible
schedules, missing vertices, ...).
"""

from __future__ import annotations


class PTRiderError(Exception):
    """Base class for every error raised by the ``repro`` package."""


class RoadNetworkError(PTRiderError):
    """Base class for road-network related errors."""


class VertexNotFoundError(RoadNetworkError, KeyError):
    """A vertex identifier does not exist in the road network."""

    def __init__(self, vertex: object) -> None:
        super().__init__(f"vertex {vertex!r} is not part of the road network")
        self.vertex = vertex


class EdgeNotFoundError(RoadNetworkError, KeyError):
    """An edge does not exist in the road network."""

    def __init__(self, u: object, v: object) -> None:
        super().__init__(f"edge ({u!r}, {v!r}) is not part of the road network")
        self.u = u
        self.v = v


class DisconnectedError(RoadNetworkError):
    """No path exists between two vertices."""

    def __init__(self, source: object, target: object) -> None:
        super().__init__(f"no path connects {source!r} and {target!r}")
        self.source = source
        self.target = target


class InvalidNetworkError(RoadNetworkError, ValueError):
    """The road network violates a structural requirement."""


class GridIndexError(PTRiderError):
    """Base class for grid-index errors."""


class VehicleError(PTRiderError):
    """Base class for vehicle / fleet errors."""


class CapacityExceededError(VehicleError, ValueError):
    """A schedule would carry more riders than the vehicle capacity."""


class InvalidScheduleError(VehicleError, ValueError):
    """A trip schedule violates one of the validity conditions."""


class UnknownVehicleError(VehicleError, KeyError):
    """A vehicle identifier is not registered with the fleet."""

    def __init__(self, vehicle_id: object) -> None:
        super().__init__(f"vehicle {vehicle_id!r} is not registered")
        self.vehicle_id = vehicle_id


class RequestError(PTRiderError, ValueError):
    """A ridesharing request is malformed."""


class MatchingError(PTRiderError):
    """Base class for matcher errors."""


class SimulationError(PTRiderError):
    """Base class for simulation-engine errors."""


class ServiceError(PTRiderError):
    """Base class for the in-memory PTRider service layer."""


class UnknownOptionError(ServiceError, KeyError):
    """A rider chose an option that the service never offered."""


class ConfigurationError(PTRiderError, ValueError):
    """A configuration value is out of its valid range."""
