"""Common matcher machinery.

Every matching algorithm (naive kinetic tree, single-side search, dual-side
search, and the baselines under :mod:`repro.baselines`) answers the same
query: given the current fleet state and a request, return the qualified,
non-dominated ``<vehicle, pick-up distance, price>`` options (Definition 4).
:class:`Matcher` fixes that interface, owns the shared resources (fleet, grid
index, routing engine, price model, system configuration) and provides the
per-vehicle verification step all algorithms share; subclasses only decide
*which* vehicles to verify and in what order, and which admissible lower
bounds justify skipping a vehicle.

Each ``match`` call builds one :class:`~repro.core.context.MatchContext`
carrying the request, its direct distance and the request-rooted distance
tree; every per-vehicle step receives that context instead of re-querying the
routing engine, so the request-side shortest-path work is paid exactly once
per request regardless of how many vehicles are verified.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from typing import AbstractSet, Callable, List, Mapping, Optional, Set, Tuple

from repro.core.config import SystemConfig
from repro.core.context import BOUND_SLACK, MatchContext
from repro.core.insertion import InsertionStatistics, insertion_candidates
from repro.core.pricing import PriceModel
from repro.model.options import RideOption, Skyline, skyline_of
from repro.model.request import Request
from repro.roadnet.grid_index import GridIndex
from repro.roadnet.routing import RoutingEngine
from repro.roadnet.shortest_path import INFINITY
from repro.vehicles.fleet import Fleet
from repro.vehicles.vehicle import Vehicle

__all__ = ["MatcherStatistics", "Matcher", "added_distance_lower_bound"]


@dataclass
class MatcherStatistics:
    """Work counters a matcher accumulates across ``match`` calls.

    The counters drive the index-ablation and matcher-comparison experiments
    (benchmarks E3 and E10) and, read by :func:`repro.counters.counters`,
    the statistics panel of the demo website.
    """

    requests_answered: int = 0
    vehicles_considered: int = 0
    vehicles_evaluated: int = 0
    vehicles_pruned: int = 0
    #: the share of ``vehicles_pruned`` whose pick-up lower bound exceeded
    #: ``max_pickup_distance`` (the rest fell to dominance)
    vehicles_beyond_cap: int = 0
    cells_visited: int = 0
    options_returned: int = 0
    insertion: InsertionStatistics = field(
        default_factory=InsertionStatistics, metadata={"panel": "insertions"}
    )


class Matcher(abc.ABC):
    """Base class of every matching algorithm.

    Args:
        fleet: the vehicle index (which also carries the grid index and the
            routing engine).
        config: global system parameters; defaults to :class:`SystemConfig`.
        price_model: price calculator; defaults to the one in ``config``.
        statistics: the work counters to add to; a fresh
            :class:`MatcherStatistics` by default (the service hands every
            matcher it builds its own, so the series outlive a rebuild).
    """

    #: human-readable algorithm name (used by the CLI, service and benchmarks)
    name = "abstract"

    def __init__(
        self,
        fleet: Fleet,
        config: Optional[SystemConfig] = None,
        price_model: Optional[PriceModel] = None,
        statistics: Optional[MatcherStatistics] = None,
    ) -> None:
        self._fleet = fleet
        self._grid: GridIndex = fleet.grid
        self._engine: RoutingEngine = fleet.routing_engine
        self._config = config or SystemConfig()
        self._price_model: PriceModel = price_model or self._config.price_model
        self.statistics = statistics or MatcherStatistics()

    # ------------------------------------------------------------------
    # public interface
    # ------------------------------------------------------------------
    @property
    def config(self) -> SystemConfig:
        """The global system parameters in effect."""
        return self._config

    def make_context(self, request: Request) -> MatchContext:
        """Build the per-request context (direct distance plus start tree)."""
        return MatchContext.create(request, self._engine, self._grid)

    def match(
        self, request: Request, context: Optional[MatchContext] = None
    ) -> List[RideOption]:
        """Return the non-dominated options answering ``request``.

        The returned list is the skyline over every option produced by
        :meth:`_collect_options`, sorted by ascending pick-up distance.  A
        caller that goes on to commit one of them passes the ``context`` it
        built with :meth:`make_context` (or took from a batch's
        :class:`~repro.core.batch.BatchContext`) and keeps it: it then holds
        what each verification found (:attr:`MatchContext.verified`).
        """
        if context is None:
            context = self.make_context(request)
        self.statistics.requests_answered += 1
        # Equal to skyline_of; perfbench's self-test expects the Skyline.merge span it times.
        result = Skyline.merge([self._collect_options(context)]).options()
        self.statistics.options_returned += len(result)
        return result

    # Kept for perfbench/trace.py, whose tests fail on an unresolved entry point.
    collect_shard = match

    @abc.abstractmethod
    def _collect_options(self, context: MatchContext) -> List[RideOption]:
        """Produce candidate options over the matcher's fleet.

        Subclasses decide which vehicles to verify and in what order.
        """

    # ------------------------------------------------------------------
    # shared verification step
    # ------------------------------------------------------------------
    def _verify_vehicle(self, vehicle: Vehicle, context: MatchContext) -> List[RideOption]:
        """Fully evaluate one vehicle and return its non-dominated options.

        Every matcher verifies the same way -- one exact scan of the
        vehicle's insertion slots through the context's distances -- so two
        matchers differ only in which vehicles they screen out before it.
        """
        self.statistics.vehicles_evaluated += 1
        request = context.request
        candidates = insertion_candidates(
            vehicle,
            request,
            self._engine,
            statistics=self.statistics.insertion,
            direct=context.direct,
            distance=context.distance,
        )
        # Everything found -- before the pick-up cap and the skyline -- is what
        # the vehicle's kinetic tree holds once the rider takes an option.
        context.verified[vehicle.vehicle_id] = (vehicle, vehicle.stamp(), candidates)
        direct = context.direct
        max_pickup = self._config.max_pickup_distance
        options: List[RideOption] = []
        for candidate in candidates:
            if max_pickup is not None and candidate.pickup_distance > max_pickup + 1e-9:
                continue
            price = self._price_model.price(request.riders, candidate.added_distance, direct)
            options.append(
                RideOption(
                    vehicle_id=vehicle.vehicle_id,
                    pickup_distance=candidate.pickup_distance,
                    price=price,
                    request_id=request.request_id,
                    schedule=candidate.schedule,
                    added_distance=candidate.added_distance,
                )
            )
        # Each vehicle offers only its own non-dominated pairs (Section 2.5).
        return skyline_of(options)

    # ------------------------------------------------------------------
    # admissible lower bounds shared by the grid-based searches
    # ------------------------------------------------------------------
    def _pickup_lower_bound(self, vehicle: Vehicle, context: MatchContext) -> float:
        """Lower bound on the pick-up distance any option of ``vehicle`` can have.

        ``dist(c.l, s)`` is read off the request's start tree, so this is the
        pick-up distance of the vehicle's earliest insertion (less the
        context's float slack), not an estimate of it.
        """
        return context.lower_bound(vehicle.location, context.request.start) + vehicle.offset

    def _cap_survivors(
        self,
        vehicle_ids: AbstractSet[str],
        vehicles: Mapping[str, Vehicle],
        context: MatchContext,
        max_pickup: float,
        seen: Set[str],
    ) -> List[Tuple[Vehicle, Optional[float]]]:
        """The vehicles of one cell's registration set that the pick-up cap
        lets through, sorted by id -- the grid walks' per-cell list -- each
        with its pick-up floor.

        Skipped without a count: ids already in ``seen`` and ids of vehicles
        no longer in ``vehicles``.  Every other vehicle is tested against the
        cap with :meth:`_pickup_lower_bound`'s own float
        expression (the start-tree value less :data:`BOUND_SLACK`, clamped at
        0, plus the offset).  One that fails is counted as considered and as
        pruned beyond the cap, and goes into ``seen``, so it is never sorted
        or screened further.  A survivor carries that float on, so the screen
        after the cap reads the start tree no second time.  A location the
        start tree does not hold is let through with ``None``: ``_consider``
        tests it on its index bound.  The cap does not depend on anything a
        search has confirmed, and the ids are unique, so the survivors come
        out in the order the full sorted list had them.
        """
        statistics = self.statistics
        start_row, index_of = context.start_row, context.index_of
        limit = max_pickup + 1e-9
        survivors: List[Tuple[Vehicle, Optional[float]]] = []
        for vehicle_id in vehicle_ids:
            if vehicle_id in seen:
                continue
            vehicle = vehicles.get(vehicle_id)
            if vehicle is None:
                continue
            index = index_of.get(vehicle.location)
            exact = INFINITY if index is None else start_row[index]
            floor: Optional[float] = None
            if exact != INFINITY:
                floor = (exact - BOUND_SLACK if exact > BOUND_SLACK else 0.0) + vehicle.offset
                if floor > limit:
                    seen.add(vehicle_id)
                    statistics.vehicles_considered += 1
                    statistics.vehicles_pruned += 1
                    statistics.vehicles_beyond_cap += 1
                    continue
            survivors.append((vehicle, floor))
        if len(survivors) > 1:
            survivors.sort(key=lambda survivor: survivor[0].vehicle_id)
        return survivors

    def _index_pickup_lower_bound(self, vehicle: Vehicle, context: MatchContext) -> float:
        """:meth:`_pickup_lower_bound` as the grid / ALT indexes alone give it.

        Only the empty-vehicle dominance probe is still built on this one
        (ARCHITECTURE.md "Single-side search" says why).  It runs on cap
        survivors, so the grid row it reads is searched out to the pick-up
        cap only; a read past the cap completes the row.
        """
        max_pickup = self._config.max_pickup_distance
        return context.index_lower_bound(
            vehicle.location,
            context.request.start,
            INFINITY if max_pickup is None else max_pickup,
        ) + vehicle.offset

    def _price_lower_bound(self, vehicle: Vehicle, context: MatchContext) -> float:
        """Lower bound on the price any option of ``vehicle`` can have.

        For an empty vehicle the added distance is ``dist(c.l, s) + dist(s,
        d)``, priced here from the *index* pick-up bound; for a non-empty
        vehicle the single-side bound only uses the start-side detour.  The
        dual-side matcher overrides this with the destination-side bound as
        well.
        """
        request, direct = context.request, context.direct
        if vehicle.is_empty:
            pickup_lb = self._index_pickup_lower_bound(vehicle, context)
            return self._price_model.price(request.riders, pickup_lb + direct, direct)
        added_lb = added_distance_lower_bound(
            vehicle,
            request.start,
            self._grid,
            self._engine,
            bound=context.lower_bound,
            distance=context.distance,
        )
        return self._price_model.price(request.riders, added_lb, direct)


def added_distance_lower_bound(
    vehicle: Vehicle,
    vertex: int,
    grid: GridIndex,
    oracle: RoutingEngine,
    bound: Optional[Callable[[int, int], float]] = None,
    distance: Optional[Callable[[int, int], float]] = None,
) -> float:
    """Admissible lower bound on the extra distance needed to visit ``vertex``.

    For every branch of the vehicle's kinetic tree and every insertion
    position, the added distance of detouring through ``vertex`` is bounded
    from below using admissible lower bounds for the new legs and exact
    (cached) distances for the replaced leg; the minimum over all positions
    and branches is an admissible bound for any schedule that additionally
    visits ``vertex`` -- including schedules that insert several new stops,
    because dropping the other new stops never increases the added distance.

    ``bound`` overrides the leg lower bound (defaults to the grid cell bound);
    the matchers pass :meth:`MatchContext.lower_bound`, which is exact on a
    leg touching the request start -- so the start-side detour is the true
    detour through ``s`` -- and elsewhere lets ALT landmark bounds tighten
    the estimate when the routing engine provides them.  ``distance``
    overrides the exact replaced-leg distance (defaults to ``oracle.distance``);
    the matchers pass :meth:`MatchContext.distance` so batched dispatch can
    answer the legs from its batch-wide memo.
    """
    bound_fn = bound if bound is not None else grid.distance_lower_bound
    distance_fn = distance if distance is not None else oracle.distance
    schedules = vehicle.kinetic_tree.schedules()
    origin = vehicle.location
    if not schedules:
        return bound_fn(origin, vertex) + vehicle.offset
    best = math.inf
    for schedule in schedules:
        previous = origin
        # bound on the leg previous -> vertex; every bound source is
        # order-symmetric, so one stop's outgoing bound is the next one's incoming
        incoming = bound_fn(previous, vertex)
        for stop in schedule:
            outgoing = bound_fn(vertex, stop.vertex)
            detour = incoming + outgoing - distance_fn(previous, stop.vertex)
            best = min(best, max(0.0, detour))
            previous, incoming = stop.vertex, outgoing
        # appending after the last stop
        best = min(best, incoming)
        if best <= 0.0:
            return 0.0
    return best
