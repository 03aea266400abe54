"""The request / options / choice cycle (Section 3.1) and the greedy strategy.

The dispatcher glues the matcher, the fleet and the price model together:

1. a rider submits a request (:meth:`Dispatcher.submit`);
2. the matcher returns the non-dominated options;
3. the rider picks one (or an :class:`OptionPolicy` picks automatically in
   simulations), and :meth:`Dispatcher.commit` installs the choice: the
   vehicle's kinetic tree is rebuilt with every schedule that remains valid
   after adding the request, the request becomes *waiting* on that vehicle,
   and the grid's vehicle lists are refreshed.

When several requests are issued simultaneously, PTRider applies a greedy
strategy (Section 2.5): requests are processed one after the other in
submission order, each seeing the fleet state left behind by its
predecessors.  :meth:`Dispatcher.dispatch_batch` runs exactly that loop with
the routing work pooled up front:

1. **normalise** every request of the batch;
2. **build a** :class:`~repro.core.batch.BatchContext` pooling the
   start-rooted distance trees and direct distances (requests sharing a start
   vertex share one tree);
3. **one turn per request**, in submission order: the matcher answers the
   request from its pooled context against the fleet as the previous turns
   left it;
4. **greedily commit** the option the policy chooses before the next turn;
5. **retain** in the engine the rows rooted at the fleet's live stops and
   at the window's starts (:meth:`Dispatcher.dispatch_batch`), so the legs
   later windows verify, the re-plans towards those stops and a start that
   recurs in the next window do not root them again.

:meth:`Dispatcher.dispatch` is a batch of one.  Pooling moves no answer: the
pipeline yields byte-identical options, choices and fleet end-state to the
literal loop (property-tested in ``tests/property/test_batch_equivalence.py``
against ``tests/dispatch_reference.py``).
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.batch import BatchContext, BatchStatistics
from repro.core.config import SystemConfig
from repro.core.context import MatchContext
from repro.core.insertion import insertion_candidates
from repro.core.matcher import Matcher
from repro.errors import MatchingError, UnknownOptionError
from repro.model.options import RideOption
from repro.model.request import Request
from repro.roadnet.graph import VertexId
from repro.vehicles.fleet import Fleet

__all__ = ["OptionPolicy", "DispatchOutcome", "Dispatcher"]

class OptionPolicy(enum.Enum):
    """Automatic option-selection policies used by simulations and examples.

    The demo lets a human pick; simulations need a stand-in rider.  The
    policies model the preference spectrum the paper motivates (cheapest ride
    versus earliest pick-up), plus a balanced compromise.
    """

    CHEAPEST = "cheapest"
    FASTEST = "fastest"
    BALANCED = "balanced"
    FIRST = "first"

    def choose(self, options: Sequence[RideOption]) -> RideOption:
        """Pick one option from a non-empty skyline.

        Raises:
            MatchingError: when ``options`` is empty.
        """
        if not options:
            raise MatchingError("cannot choose from an empty option list")
        if self is OptionPolicy.CHEAPEST:
            return min(options, key=lambda o: (o.price, o.pickup_distance, o.vehicle_id))
        if self is OptionPolicy.FASTEST:
            return min(options, key=lambda o: (o.pickup_distance, o.price, o.vehicle_id))
        if self is OptionPolicy.BALANCED:
            # Normalise each axis independently, with an explicit zero check
            # per axis: when every option ties at 0.0 on one axis (e.g. all
            # prices are 0.0 but pick-ups differ), that axis contributes
            # nothing and the other axis alone decides -- instead of a
            # truthiness guard silently rescaling one axis against the other.
            max_price = max(o.price for o in options)
            max_pickup = max(o.pickup_distance for o in options)

            def balanced_cost(option: RideOption) -> float:
                price_term = option.price / max_price if max_price > 0.0 else 0.0
                pickup_term = (
                    option.pickup_distance / max_pickup if max_pickup > 0.0 else 0.0
                )
                return price_term + pickup_term

            return min(options, key=lambda o: (balanced_cost(o), o.vehicle_id))
        return options[0]


@dataclass(frozen=True)
class DispatchOutcome:
    """What happened to one request."""

    request: Request
    options: Tuple[RideOption, ...]
    chosen: Optional[RideOption]
    match_seconds: float
    #: the request's direct distance ``dist(s, d)``, carried from the match
    #: context so consumers (e.g. the simulation statistics) need not
    #: re-query the routing engine
    direct_distance: float = 0.0

    @property
    def matched(self) -> bool:
        """``True`` when the request received at least one option and accepted one."""
        return self.chosen is not None

    @property
    def option_count(self) -> int:
        """Number of non-dominated options offered."""
        return len(self.options)


class Dispatcher:
    """Coordinates matching, rider choice and fleet updates."""

    def __init__(self, fleet: Fleet, matcher: Matcher, config: Optional[SystemConfig] = None) -> None:
        self._fleet = fleet
        self._matcher = matcher
        self._config = config or matcher.config
        #: requests currently waiting or riding, keyed by id (for the service layer)
        self._active_requests: Dict[str, str] = {}
        #: shared-tree statistics of the most recent batch call (CLI / benchmarks)
        self.last_batch_statistics: Optional[BatchStatistics] = None
        #: every stop vertex of the fleet's committed requests -> how many
        #: stops of waiting or riding requests stand there: a waiting
        #: request's start and destination, a riding one's destination.
        #: ``commit`` adds, ``notify_pickup`` / ``notify_dropoff`` remove,
        #: and the rows rooted here are what each window retains in the engine
        self._live_stops: Dict[VertexId, int] = {}
        self.count_live_stops()
        #: optional observer invoked with every committed outcome (single
        #: and batch paths alike) -- the durability journal's annotation
        #: hook; unlike ``on_outcome`` it is attached once, not per call
        self.outcome_listener: Optional[Callable[[DispatchOutcome], None]] = None

    def count_live_stops(self) -> None:
        """Count the live stops from the fleet's request states: once when
        the dispatcher is built, and again after a restore puts taxis with
        committed requests in its fleet, so a recovered or rebuilt service
        retains the rows of the stops it inherited."""
        self._live_stops = {}
        for vehicle in self._fleet.vehicles():
            for state in vehicle.waiting_requests.values():
                self._add_stop(state.request.start)
            for state in vehicle.request_states().values():
                self._add_stop(state.request.destination)

    def _add_stop(self, vertex: VertexId) -> None:
        self._live_stops[vertex] = self._live_stops.get(vertex, 0) + 1

    def _remove_stop(self, vertex: VertexId) -> None:
        count = self._live_stops.pop(vertex, 0) - 1
        if count > 0:
            self._live_stops[vertex] = count

    @property
    def fleet(self) -> Fleet:
        """The fleet being dispatched."""
        return self._fleet

    @property
    def matcher(self) -> Matcher:
        """The matching algorithm in use."""
        return self._matcher

    @property
    def config(self) -> SystemConfig:
        """The global system parameters."""
        return self._config

    # ------------------------------------------------------------------
    # the three steps of Section 3.1
    # ------------------------------------------------------------------
    def normalise(self, request: Request) -> Request:
        """Apply the global waiting-time / service-constraint defaults.

        PTRider "sets a global maximum waiting time and a global service
        constraint" (Section 3.1); riders only supply locations and group
        size.  A request whose constraints already match the globals is
        returned unchanged.
        """
        if (
            request.max_waiting == self._config.max_waiting
            and request.service_constraint == self._config.service_constraint
        ):
            return request
        return Request(
            start=request.start,
            destination=request.destination,
            riders=request.riders,
            max_waiting=self._config.max_waiting,
            service_constraint=self._config.service_constraint,
            request_id=request.request_id,
            submit_time=request.submit_time,
        )

    def submit(
        self, request: Request, context: Optional[MatchContext] = None
    ) -> List[RideOption]:
        """Step (ii): return the qualified, non-dominated options for ``request``.

        A caller that will :meth:`commit` one of them later passes the
        ``context`` it built (``matcher.make_context``) and hands the same
        object to :meth:`commit`, which then installs what this search
        verified instead of enumerating again.
        """
        return self._matcher.match(request, context)

    def commit(
        self,
        request: Request,
        option: RideOption,
        direct: Optional[float] = None,
        context: Optional[MatchContext] = None,
    ) -> None:
        """Step (iii): the rider chose ``option``; update vehicle and indexes.

        The vehicle's kinetic tree becomes every feasible insertion of the
        request that picks the rider up no later than promised plus ``w``.
        Those insertions are the list ``Matcher._verify_vehicle`` enumerated
        to price the option; when ``context`` still carries it and the
        vehicle's :meth:`~repro.vehicles.vehicle.Vehicle.stamp` is the one it
        was computed under, it is installed as found.  Otherwise (no context,
        a vehicle that moved, served a stop, took another rider or was
        replaced since, or a recovered booking) the insertions are enumerated
        again -- through the same ``MatchContext.distance``, so both ways
        decide feasibility on one float path: legs touching the request
        start come off the start tree, every other leg from the engine's
        canonical-rooted answer.

        Args:
            request: the request being committed.
            option: the option the rider accepted.
            direct: the request's direct distance; ``None`` (every caller in
                ``src/``) means the context's, read off the start tree.
            context: the context ``option`` was matched under; ``None``
                builds a fresh one (its start tree is normally a cache hit).

        Raises:
            UnknownOptionError: when the option does not belong to the request
                or its vehicle can no longer serve it.
        """
        if option.request_id and option.request_id != request.request_id:
            raise UnknownOptionError(
                f"option for request {option.request_id} cannot serve {request.request_id}"
            )
        vehicle = self._fleet.get(option.vehicle_id)
        if context is None:
            context = self._matcher.make_context(request)
        verified, stamp, candidates = context.verified.get(
            vehicle.vehicle_id, (None, None, None)
        )
        if verified is not vehicle or stamp != vehicle.stamp():
            candidates = insertion_candidates(
                vehicle,
                request,
                self._fleet.routing_engine,
                direct=context.direct,
                distance=context.distance,
            )
        # The accepted option fixes the rider's *planned* pick-up; from now on
        # the waiting-time condition (Definition 2, condition 3) applies to the
        # new request too, so schedules that would already pick the rider up
        # more than ``w`` later than promised are not valid branches.
        budget = option.pickup_distance + request.max_waiting + 1e-9
        schedules = [c.schedule for c in candidates if c.pickup_distance <= budget]
        if not schedules:
            raise UnknownOptionError(
                f"vehicle {option.vehicle_id} can no longer serve request {request.request_id}"
            )
        if option.schedule and tuple(option.schedule) not in schedules:
            # The fleet state moved on since the option was computed (another
            # rider's commit, a location update); the promise can no longer be
            # kept exactly, so refuse rather than silently degrade.
            raise UnknownOptionError(
                f"the chosen schedule of vehicle {option.vehicle_id} is no longer feasible"
            )
        vehicle.assign(
            request,
            planned_pickup_distance=option.pickup_distance,
            direct_distance=context.direct if direct is None else direct,
            schedules=schedules,
        )
        self._fleet.refresh_vehicle(vehicle.vehicle_id)
        self._active_requests[request.request_id] = vehicle.vehicle_id
        self._add_stop(request.start)
        self._add_stop(request.destination)

    # ------------------------------------------------------------------
    # automatic dispatch (simulation / examples)
    # ------------------------------------------------------------------
    def dispatch(
        self,
        request: Request,
        policy: OptionPolicy = OptionPolicy.CHEAPEST,
    ) -> DispatchOutcome:
        """Submit, auto-choose and commit one request: a batch of one.

        Returns a :class:`DispatchOutcome`; a request with no qualifying
        option is reported unmatched rather than raising.
        """
        return self.dispatch_batch([request], policy=policy)[0]

    def dispatch_batch(
        self,
        requests: Iterable[Request],
        policy: OptionPolicy = OptionPolicy.CHEAPEST,
        on_outcome: Optional[Callable[[DispatchOutcome], None]] = None,
    ) -> List[DispatchOutcome]:
        """Greedy handling of simultaneous requests (Section 2.5).

        Requests are normalised to the global constraints (Section 3.1), then
        decided in submission order, each seeing the fleet state its
        predecessors' commits produced; the batch's distinct start trees are
        prefetched in one vectorised engine call and routing contexts are
        pooled batch-wide (shared start trees, a batch-wide schedule-leg memo
        and leg trees pooled on demand).

        Once every turn is over the window names the roots whose rows the
        engine keeps beyond it -- the live stops and this window's starts --
        in one :meth:`~repro.roadnet.routing.CSREngine.retain` call, which
        takes each row from this window's pool, else from the rows it kept
        before.  No tree is rooted to keep it.  A stop served since the last
        window loses its row here, not at the event: until this call, the
        taxi that served it re-plans away from it over that row.

        Args:
            requests: the simultaneous requests, in submission order.
            policy: the stand-in rider choosing from each skyline.
            on_outcome: optional callback invoked with each outcome as soon
                as its commit lands -- callers that must record bookkeeping
                even when a *later* request of the batch raises (e.g. the
                simulation engine) hook in here, exactly as if they had run
                the loop themselves.
        """
        request_list = [self.normalise(request) for request in requests]
        if not request_list:
            return []
        engine = self._fleet.routing_engine
        batch = BatchContext.create(request_list, engine, self._fleet.grid)
        self.last_batch_statistics = batch.statistics
        outcomes: List[DispatchOutcome] = []
        try:
            for index, request in enumerate(request_list):
                # One turn: match against the fleet as the previous commits
                # left it.  The response time is the request's share of the
                # pooled context building plus the match itself.
                context = batch.context_for(index)  # re-raises recorded errors
                started = time.perf_counter()
                options = self._matcher.match(request, context)
                elapsed = batch.context_seconds(index) + (time.perf_counter() - started)
                chosen = policy.choose(options) if options else None
                if chosen is not None:
                    self.commit(request, chosen, context=context)
                outcome = DispatchOutcome(
                    request=request,
                    options=tuple(options),
                    chosen=chosen,
                    match_seconds=elapsed,
                    direct_distance=context.direct,
                )
                batch.release(index)  # drop the turn's context; the pool stays
                outcomes.append(outcome)
                if self.outcome_listener is not None:
                    self.outcome_listener(outcome)
                if on_outcome is not None:
                    on_outcome(outcome)
        finally:
            # also when a turn raised: the rest of the window, re-queued by
            # the caller, finds its starts kept
            engine.retain(
                self._live_stops.keys() | {request.start for request in request_list}, batch.pool
            )
        return outcomes

    def release_trees(self) -> None:
        """Drop the engine's retained rows (a shutdown); the next batch roots
        or fetches every tree it needs."""
        self._fleet.routing_engine.pinned = {}

    # ------------------------------------------------------------------
    # lifecycle notifications from the simulation engine
    # ------------------------------------------------------------------
    def notify_pickup(self, vehicle_id: str, request_id: str) -> None:
        """Record that ``request_id`` boarded ``vehicle_id`` (index refresh)."""
        vehicle = self._fleet.get(vehicle_id)
        state = vehicle.pickup(request_id)
        self._fleet.refresh_vehicle(vehicle_id)
        self._remove_stop(state.request.start)

    def notify_dropoff(self, vehicle_id: str, request_id: str) -> None:
        """Record that ``request_id`` alighted from ``vehicle_id`` (index refresh)."""
        vehicle = self._fleet.get(vehicle_id)
        state = vehicle.dropoff(request_id)
        self._fleet.refresh_vehicle(vehicle_id)
        self._active_requests.pop(request_id, None)
        self._remove_stop(state.request.destination)
