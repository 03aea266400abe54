"""The commit ``Dispatcher.commit`` ran before it installed carried verifications.

Kept verbatim as the reference the property tests compare against
(``tests/property/test_commit_equivalence.py``): every feasible insertion is
enumerated again through the engine's canonical-rooted ``distance``, each
survivor is measured once more by ``evaluate_schedule`` for
the promised-pick-up filter, and the direct distance is a point query.

:func:`feasible_schedules_for_commit` also serves the fixtures that assign a
request to a vehicle by hand (``tests/conftest.py``).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.insertion import insertion_candidates
from repro.errors import UnknownOptionError
from repro.model.options import RideOption
from repro.model.request import Request
from repro.model.stops import Stop
from repro.roadnet.routing import RoutingEngine
from repro.vehicles.fleet import Fleet
from repro.vehicles.schedule import evaluate_schedule
from repro.vehicles.vehicle import Vehicle


def feasible_schedules_for_commit(
    vehicle: Vehicle,
    request: Request,
    oracle: RoutingEngine,
) -> List[Tuple[Stop, ...]]:
    """Every feasible new schedule of ``vehicle`` once it also serves ``request``."""
    return [candidate.schedule for candidate in insertion_candidates(vehicle, request, oracle)]


def filter_by_promised_pickup(vehicle, request, option, schedules, engine):
    """Keep only schedules honouring the promised pick-up within ``w``."""
    budget = option.pickup_distance + request.max_waiting + 1e-9
    kept = []
    for schedule in schedules:
        metrics = evaluate_schedule(vehicle.location, schedule, engine.distance, vehicle.offset)
        if metrics.pickup_distance[request.request_id] <= budget:
            kept.append(schedule)
    return kept


def reference_commit(
    fleet: Fleet, request: Request, option: RideOption, direct: Optional[float] = None
) -> None:
    """Install ``option`` on its vehicle the way the old commit did.

    ``direct`` is what ``dispatch`` / ``dispatch_batch`` used to pass (their
    context's start-tree float); ``None`` is the old ``choose``, which asked
    the engine.

    Raises:
        UnknownOptionError: exactly where the old commit raised it.
    """
    if option.request_id and option.request_id != request.request_id:
        raise UnknownOptionError(
            f"option for request {option.request_id} cannot serve {request.request_id}"
        )
    engine = fleet.routing_engine
    vehicle = fleet.get(option.vehicle_id)
    schedules = feasible_schedules_for_commit(vehicle, request, engine)
    schedules = filter_by_promised_pickup(vehicle, request, option, schedules, engine)
    if not schedules:
        raise UnknownOptionError(
            f"vehicle {option.vehicle_id} can no longer serve request {request.request_id}"
        )
    if option.schedule and tuple(option.schedule) not in {tuple(s) for s in schedules}:
        raise UnknownOptionError(
            f"the chosen schedule of vehicle {option.vehicle_id} is no longer feasible"
        )
    if direct is None:
        direct = engine.distance(request.start, request.destination)
    vehicle.assign(
        request,
        planned_pickup_distance=option.pickup_distance,
        direct_distance=direct,
        schedules=schedules,
    )
    fleet.refresh_vehicle(vehicle.vehicle_id)
