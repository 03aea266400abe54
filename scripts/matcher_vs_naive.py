#!/usr/bin/env python3
"""Replay a generated day and check a pruning matcher against the naive one.

Every pruning rule of the single-side and dual-side searches is meant to be
lossless: the options a rider is shown must be the ones the naive
kinetic-tree matcher finds by verifying every taxi.
The property tests check that on small hand-driven fleets; this script checks
it on a *driven* day, where taxis stand mid-edge, wander while idle and change
between empty and serving inside a tick -- the states both open correctness
bugs (the stale grid registration and the inadmissible empty-vehicle price
probe, ROADMAP item 1) need.

A jittered ``--rows`` x ``--rows`` city, ``--vehicles`` taxis and a
surge/lull day of ``--requests`` requests are generated from ``--seed`` (the
defaults are perfbench's commute day, so ``--seed 7000`` is round 0 of its
seed 7).  The day is replayed tick by tick through the service's per-request
path with idle wandering on; at every request the naive matcher answers
first, against the very fleet state the configured matcher then sees, and the
rider takes the configured matcher's cheapest option.  Each request whose two
answers differ is printed with the state of every vehicle behind a differing
option::

    D297: single_side 1 options, naive 2
      missed c164: empty=True offset=0.912 location=1203 probe=(1.4120, 5.3370)
        true=(2.1050, 5.1290) cell=(6, 9) registered=[(6, 9)]

``missed`` is an option only the naive matcher returned, ``extra`` one only
the configured matcher did (usually an option the missed one dominates).
``probe`` is the optimistic (pick-up, price) pair the vehicle was screened
with, ``true`` its real options; a probe that is not componentwise <= a true
option is the inadmissible bound, a ``cell`` missing from ``registered`` the
stale registration.  The last line counts requests and disagreements; the
exit status is 0 exactly when there were ``--expect`` of them (default 0) --
a tripwire for a known count: any change to what the matcher answers on
that day, better or worse, fails it.  ``--routing`` picks the service's
routing backend (default ``csr``) and ``--tree-cache`` its tree-cache slots
(default 1 024); the naive matcher answers on the same engine.

Usage::

    PYTHONPATH=src python scripts/matcher_vs_naive.py --seed 1000
    PYTHONPATH=src python scripts/matcher_vs_naive.py --seed 1000 --expect 6
    PYTHONPATH=src python scripts/matcher_vs_naive.py --routing csr+alt --seed 1000 --expect 24
    PYTHONPATH=src python scripts/matcher_vs_naive.py --rows 12 --grid 4 \\
        --vehicles 30 --requests 120 --matcher dual_side
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence, Tuple

from repro.core.config import SystemConfig
from repro.core.dispatcher import OptionPolicy
from repro.core.naive import NaiveKineticTreeMatcher
from repro.model.options import RideOption
from repro.roadnet.generators import grid_network
from repro.roadnet.routing import ROUTING_BACKENDS
from repro.service.api import PTRiderService, assemble_fleet
from repro.sim.workload import RequestWorkload

#: matchers that screen vehicles with the probes this script reports
MATCHERS = ("single_side", "dual_side")


def build_service(args: argparse.Namespace, **config_overrides) -> PTRiderService:
    """City, fleet and service of one day, all drawn from ``args.seed``."""
    network = grid_network(args.rows, args.rows, weight_jitter=0.3, seed=args.seed)
    config = SystemConfig(
        vehicle_capacity=args.capacity,
        max_waiting=args.max_waiting,
        service_constraint=args.service_constraint,
        speed=args.speed,
        max_pickup_distance=args.max_pickup,
        matcher_name=args.matcher,
        routing_backend=args.routing,
        **config_overrides,
    )
    fleet = assemble_fleet(
        network, config, args.vehicles, args.seed, grid_rows=args.grid, grid_columns=args.grid,
        max_cached_sources=args.tree_cache,
    )
    return PTRiderService(fleet, config=config, seed=args.seed)


def build_day(service: PTRiderService, args: argparse.Namespace) -> RequestWorkload:
    """The surge/lull request stream of ``args.seed`` on the service's network."""
    return RequestWorkload.daily(
        service.fleet.grid.network,
        total=args.requests,
        duration=args.requests / args.rate,
        max_waiting=args.max_waiting,
        service_constraint=args.service_constraint,
        hotspot_count=args.hotspots,
        hotspot_bias=1.0 if args.hotspots else 0.0,
        seed=args.seed,
    )


def option_key(option: RideOption) -> Tuple[str, float, float]:
    return (option.vehicle_id, option.pickup_distance, option.price)


def describe_vehicle(service: PTRiderService, naive, vehicle_id: str, request) -> str:
    """One vehicle's state as the matcher saw it: probe, true options, cells."""
    matcher, fleet = service.matcher, service.fleet
    vehicle = fleet.get(vehicle_id)
    context = matcher.make_context(request)
    # the pair SingleSideSearchMatcher._consider screens with
    if vehicle.is_empty:
        probe_pickup = matcher._index_pickup_lower_bound(vehicle, context)  # noqa: SLF001
    else:
        probe_pickup = matcher._pickup_lower_bound(vehicle, context)  # noqa: SLF001
    probe_price = matcher._price_lower_bound(vehicle, context)  # noqa: SLF001
    true = " ".join(
        f"({option.pickup_distance:.4f}, {option.price:.4f})"
        for option in naive._verify_vehicle(vehicle, context)  # noqa: SLF001
    )
    return (
        f"{vehicle_id}: empty={vehicle.is_empty} offset={vehicle.offset:.3f} "
        f"location={vehicle.location} probe=({probe_pickup:.4f}, {probe_price:.4f})\n"
        f"    true={true or '-'} cell={fleet.grid.cell_of_vertex(vehicle.location).cell_id} "
        f"registered={sorted(vehicle.registered_cells)}"
    )


def replay(args: argparse.Namespace, out=sys.stdout) -> int:
    """Replay the day; print each disagreement; return how many there were."""
    service = build_service(args)
    naive = NaiveKineticTreeMatcher(service.fleet, config=service.config)
    day = build_day(service, args)
    answered = disagreements = 0
    due: Sequence = ()
    tick = 0
    while day.remaining or due:
        tick += 1
        # a tick's arrivals are answered one ``advance`` later, as perfbench does
        due, arrived = day.due(float(tick)), due
        for request in arrived:
            expected = naive.match(request)
            booking = service.book_request(request)
            answered += 1
            ours = {option_key(option) for option in booking.options}
            theirs = {option_key(option) for option in expected}
            if ours != theirs:
                disagreements += 1
                print(
                    f"{request.request_id}: {args.matcher} {len(ours)} options, "
                    f"naive {len(theirs)}",
                    file=out,
                )
                for label, keys in (("missed", theirs - ours), ("extra", ours - theirs)):
                    for vehicle_id in sorted({key[0] for key in keys}):
                        print(
                            f"  {label} "
                            + describe_vehicle(service, naive, vehicle_id, request),
                            file=out,
                        )
            if booking.options:
                cheapest = OptionPolicy.CHEAPEST.choose(booking.options)
                service.choose(booking.booking_id, booking.options.index(cheapest))
            else:
                service.cancel(booking.booking_id)
        service.advance(1.0)
    print(
        f"{answered} requests, {disagreements} disagreements "
        f"(matcher {args.matcher}, seed {args.seed})",
        file=out,
    )
    return disagreements


def build_parser(description: str) -> argparse.ArgumentParser:
    """The generated day's arguments (``scripts/trees_by_caller.py`` adds its own)."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--rows", type=int, default=50, help="the city is rows x rows vertices")
    parser.add_argument("--grid", type=int, default=14, help="the grid index is grid x grid cells")
    parser.add_argument("--vehicles", type=int, default=400)
    parser.add_argument("--capacity", type=int, default=4)
    parser.add_argument("--requests", type=int, default=1000)
    parser.add_argument("--rate", type=float, default=40.0, help="mean arrivals per tick")
    parser.add_argument("--hotspots", type=int, default=320,
                        help="size of the origin pool (0 = uniform origins)")
    parser.add_argument("--max-waiting", type=float, default=8.0)
    parser.add_argument("--service-constraint", type=float, default=0.6)
    parser.add_argument("--max-pickup", type=float, default=3.0)
    parser.add_argument("--speed", type=float, default=6.0)
    parser.add_argument("--seed", type=int, default=1000)
    parser.add_argument("--matcher", choices=MATCHERS, default="single_side")
    parser.add_argument("--routing", choices=ROUTING_BACKENDS, default="csr",
                        help="routing backend of the service's engine (default csr)")
    parser.add_argument("--tree-cache", type=int, default=1024, metavar="N",
                        help="tree-cache slots of the service's engine (default 1024)")
    return parser


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = build_parser(__doc__.split("\n\n")[0])
    parser.add_argument("--expect", type=int, default=0, metavar="N",
                        help="exit 0 iff there are exactly N disagreements (default 0)")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if replay(args) == args.expect:
        return 0
    print(f"expected {args.expect} disagreements", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
