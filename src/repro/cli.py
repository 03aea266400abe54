"""Command-line interface.

Three subcommands cover the everyday uses of the reproduction:

``ptrider demo``
    Build a small system, book a trip, print the price/time options and show
    the chosen vehicle's schedules -- the smartphone flow of Section 4.1 in
    text form.

``ptrider simulate``
    Run a day-fraction simulation on a synthetic Shanghai-like workload and
    print the website statistics panel (Section 4.2).

``ptrider compare``
    Answer the same burst of requests with the naive, single-side and
    dual-side matchers and print how much verification work each needed
    (a quick view of experiment E3).
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from typing import List, Optional, Sequence

from repro.core.config import SystemConfig
from repro.core.dispatcher import Dispatcher, OptionPolicy
from repro.core.dual_side import DualSideSearchMatcher
from repro.core.naive import NaiveKineticTreeMatcher
from repro.core.single_side import SingleSideSearchMatcher
from repro.model.request import Request
from repro.roadnet.generators import grid_network
from repro.roadnet.grid_index import GridIndex
from repro.roadnet.routing import ROUTING_BACKENDS, make_engine
from repro.service.api import PTRiderService, build_system
from repro.service.journal import ServiceJournal
from repro.sim.engine import SimulationEngine
from repro.sim.trips import ShanghaiLikeTripGenerator
from repro.sim.workload import RequestWorkload, random_requests
from repro.vehicles.fleet import Fleet
from repro.vehicles.vehicle import Vehicle

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Return the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="ptrider",
        description="PTRider: price-and-time-aware ridesharing (reproduction of Chen et al., PVLDB 2018)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    demo = subparsers.add_parser("demo", help="book one trip and show the options")
    demo.add_argument("--vehicles", type=int, default=25, help="fleet size")
    demo.add_argument("--rows", type=int, default=12, help="road-network rows")
    demo.add_argument("--columns", type=int, default=12, help="road-network columns")
    demo.add_argument("--riders", type=int, default=2, help="riders in the group")
    demo.add_argument("--seed", type=int, default=7, help="random seed")
    demo.add_argument(
        "--routing", choices=ROUTING_BACKENDS, default="csr",
        help="routing backend (default: csr; csr+alt adds landmark bounds "
        "for pruning -- same distances)",
    )
    demo.add_argument(
        "--durability", choices=SystemConfig._VALID_DURABILITY, default="off",
        help="persist live service state: journal records every mutating "
        "event to a SQLite write-ahead journal, journal+snapshot adds "
        "periodic state snapshots that bound recovery replay length",
    )
    demo.add_argument(
        "--journal", default=None, metavar="DIR", dest="journal_path",
        help="journal directory (required when --durability is not off); "
        "recover a crashed service from it with PTRiderService.recover()",
    )
    demo.add_argument(
        "--snapshot-interval", type=int, default=0, metavar="N",
        help="journal records between automatic snapshots under "
        "journal+snapshot (0 keeps the config default)",
    )
    demo.add_argument(
        "--snapshot-mode", choices=SystemConfig._VALID_SNAPSHOT_MODES,
        default="full",
        help="snapshot cadence: full rewrites the whole state each time, "
        "incremental writes cheap dirty-partition deltas and compacts to a "
        "full snapshot in the background, between serving windows",
    )
    demo.add_argument(
        "--retention-horizon", type=float, default=0.0, metavar="T",
        help="prune fully-served bookings older than T time units from "
        "live state and snapshots; the journal keeps the full history "
        "(0 disables retention)",
    )
    demo.add_argument(
        "--resume", action="store_true",
        help="warm-restart from --journal's directory when it already holds "
        "state (PTRiderService.recover restores the newest snapshot and "
        "replays the tail); a fresh directory builds a new durable service",
    )

    simulate = subparsers.add_parser("simulate", help="run a workload simulation")
    simulate.add_argument("--vehicles", type=int, default=40, help="fleet size")
    simulate.add_argument("--rows", type=int, default=15, help="road-network rows")
    simulate.add_argument("--columns", type=int, default=15, help="road-network columns")
    simulate.add_argument("--trips", type=int, default=200, help="number of trips in the workload")
    simulate.add_argument("--duration", type=float, default=600.0, help="simulated duration (time units)")
    simulate.add_argument(
        "--matcher", choices=("single_side", "dual_side", "naive"), default="single_side"
    )
    simulate.add_argument("--seed", type=int, default=7, help="random seed")
    simulate.add_argument(
        "--routing", choices=ROUTING_BACKENDS, default="csr",
        help="routing backend (default: csr; csr+alt adds landmark bounds "
        "for pruning -- same distances)",
    )
    simulate.add_argument(
        "--batch-window", type=float, default=1.0,
        help="seconds the serving micro-batcher lets a window accumulate "
        "before flushing it through the batch pipeline",
    )
    simulate.add_argument(
        "--max-batch-size", type=int, default=512,
        help="request count that force-closes a micro-batch window early",
    )
    simulate.add_argument(
        "--queue-capacity", type=int, default=0,
        help="bound on admitted-but-unanswered requests the micro-batcher "
        "may hold (0 = unbounded)",
    )
    simulate.add_argument(
        "--queue-policy", choices=("shed", "block"), default="shed",
        help="what a full ingest queue does with the next admission: shed "
        "refuses it, block flushes the pending window inline to free capacity",
    )
    simulate.add_argument(
        "--latency-budget", type=float, default=0.0,
        help="force-close the ingest window when the oldest admission is "
        "within this many time units of its deadline (0 disables)",
    )
    simulate.add_argument(
        "--batch-window-mode", choices=SystemConfig._VALID_WINDOW_MODES,
        default="fixed",
        help="fixed keeps --batch-window as-is; adaptive lets a closed-loop "
        "controller resize the window from observed flush walls and arrival "
        "rates (bounded by --batch-window-min/max)",
    )
    simulate.add_argument(
        "--batch-window-min", type=float, default=0.0,
        help="adaptive controller's lower window bound "
        "(0 derives batch_window/16)",
    )
    simulate.add_argument(
        "--batch-window-max", type=float, default=0.0,
        help="adaptive controller's upper window bound "
        "(0 derives batch_window*16)",
    )

    compare = subparsers.add_parser("compare", help="compare matcher work on one request burst")
    compare.add_argument("--vehicles", type=int, default=60, help="fleet size")
    compare.add_argument("--rows", type=int, default=15, help="road-network rows")
    compare.add_argument("--columns", type=int, default=15, help="road-network columns")
    compare.add_argument("--requests", type=int, default=30, help="requests in the burst")
    compare.add_argument("--seed", type=int, default=7, help="random seed")
    compare.add_argument(
        "--routing", choices=ROUTING_BACKENDS, default="csr",
        help="routing backend (default: csr; csr+alt adds landmark bounds "
        "for pruning -- same distances)",
    )
    compare.add_argument(
        "--prefetch", action=argparse.BooleanOptionalAction, default=True,
        help="prefetch the batch's start trees in one vectorised engine call "
        "(--no-prefetch computes trees per start)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of the ``ptrider`` console script."""
    args = build_parser().parse_args(argv)
    if args.command == "demo":
        return _run_demo(args)
    if args.command == "simulate":
        return _run_simulate(args)
    return _run_compare(args)


# ----------------------------------------------------------------------
def _run_demo(args: argparse.Namespace) -> int:
    system = None
    if args.resume:
        if not args.journal_path:
            print("--resume requires --journal DIR", file=sys.stderr)
            return 2
        probe = ServiceJournal(args.journal_path)
        fresh = probe.is_fresh()
        probe.close()
        if not fresh:
            # Warm restart: the journal already holds state, so rebuild the
            # service from it (newest snapshot + tail replay) instead of
            # refusing the directory as build_system would.
            system = PTRiderService.recover(args.journal_path)
            print(
                f"Resumed from journal {args.journal_path} "
                f"(t={system.current_time:.1f}, {len(system.vehicle_ids())} vehicles)"
            )
    if system is None:
        durability = args.durability if args.durability != "off" else None
        if args.resume and durability is None:
            # --resume on a fresh directory still means "be durable": the
            # whole point is that the *next* run can warm-restart from it.
            durability = "journal"
        system = build_system(
            network_rows=args.rows,
            network_columns=args.columns,
            vehicles=args.vehicles,
            seed=args.seed,
            routing=args.routing,
            durability=durability,
            journal_path=args.journal_path,
            snapshot_interval=args.snapshot_interval or None,
            snapshot_mode=args.snapshot_mode,
            retention_horizon=args.retention_horizon or None,
        )
    try:
        rng = random.Random(args.seed)
        vertices = system.fleet.grid.network.vertices()
        start, destination = rng.sample(vertices, 2)
        booking = system.book(start, destination, riders=args.riders)
        print(f"Request: {booking.request.describe()}")
        if not booking.options:
            print("No vehicle can serve this request right now.")
            return 1
        print(f"{len(booking.options)} non-dominated option(s):")
        for index, option in enumerate(booking.options):
            print(
                f"  [{index}] vehicle {option.vehicle_id}: pick-up distance {option.pickup_distance:.2f}, "
                f"price {option.price:.2f}"
            )
        chosen = system.choose(booking.booking_id, 0)
        print(f"Chose option 0 (vehicle {chosen.vehicle_id}).")
        print("Vehicle schedules (kinetic-tree branches):")
        for schedule in system.vehicle_schedules(chosen.vehicle_id):
            print("  " + " -> ".join(f"{kind}:{request}@{vertex}" for vertex, kind, request in schedule))
        stats = system.routing_statistics()
        print(
            f"Serving window: {stats['ingest_window']:.3f} "
            f"({stats['ingest_window_mode']}; "
            f"grown {stats['ingest_window_grown']:.0f}, "
            f"shrunk {stats['ingest_window_shrunk']:.0f})"
        )
        if system.journal is not None:
            print(
                f"Snapshots: {stats['snapshot_full_count']:.0f} full "
                f"({stats['snapshot_full_bytes']:.0f} B last), "
                f"{stats['snapshot_delta_count']:.0f} delta "
                f"({stats['snapshot_delta_bytes']:.0f} B last), "
                f"background full-serialise {stats['snapshot_full_seconds']:.3f}s"
            )
        return 0
    finally:
        if system.journal is not None:
            # Snapshot at the exit position so the next --resume restores
            # without replaying this session's records.
            system.snapshot()
        system.close()


def _run_simulate(args: argparse.Namespace) -> int:
    network = grid_network(args.rows, args.columns, weight_jitter=0.25, seed=args.seed)
    grid = GridIndex(network, rows=8, columns=8)
    fleet = Fleet(
        grid,
        make_engine(network, args.routing),
    )
    rng = random.Random(args.seed)
    vertices = network.vertices()
    for index in range(args.vehicles):
        fleet.add_vehicle(Vehicle(f"c{index + 1}", location=rng.choice(vertices), capacity=4))
    config = SystemConfig(
        max_waiting=6.0, service_constraint=0.4, max_pickup_distance=12.0,
        routing_backend=args.routing,
        batch_window=args.batch_window, max_batch_size=args.max_batch_size,
        queue_capacity=args.queue_capacity or None,
        queue_policy=args.queue_policy,
        latency_budget=args.latency_budget or None,
        batch_window_mode=args.batch_window_mode,
        batch_window_min=args.batch_window_min or None,
        batch_window_max=args.batch_window_max or None,
    )
    matcher = {
        "single_side": SingleSideSearchMatcher,
        "dual_side": DualSideSearchMatcher,
        "naive": NaiveKineticTreeMatcher,
    }[args.matcher](fleet, config=config)
    dispatcher = Dispatcher(fleet, matcher, config)
    generator = ShanghaiLikeTripGenerator(network, seed=args.seed)
    trips = generator.generate(args.trips, day_seconds=args.duration)
    workload = RequestWorkload.from_trips(trips, config.max_waiting, config.service_constraint)
    engine = SimulationEngine(dispatcher, workload, speed=1.0, tick=1.0, seed=args.seed)
    report = engine.run(until=args.duration + 50.0)
    print(f"Matcher: {matcher.name} (routing={args.routing})")
    for key, value in sorted(report.panel().items()):
        print(f"  {key:>25}: {value:.4f}")
    return 0


def _run_compare(args: argparse.Namespace) -> int:
    results = []
    for matcher_class in (NaiveKineticTreeMatcher, SingleSideSearchMatcher, DualSideSearchMatcher):
        network = grid_network(args.rows, args.columns, weight_jitter=0.25, seed=args.seed)
        grid = GridIndex(network, rows=8, columns=8)
        fleet = Fleet(
            grid,
            make_engine(network, args.routing),
        )
        rng = random.Random(args.seed)
        vertices = network.vertices()
        for index in range(args.vehicles):
            fleet.add_vehicle(Vehicle(f"c{index + 1}", location=rng.choice(vertices), capacity=4))
        config = SystemConfig(
            max_waiting=6.0, service_constraint=0.4, max_pickup_distance=12.0,
            routing_backend=args.routing,
        )
        matcher = matcher_class(fleet, config=config)
        dispatcher = Dispatcher(fleet, matcher, config)
        requests = random_requests(
            network,
            args.requests,
            config.max_waiting,
            config.service_constraint,
            seed=args.seed,
        )
        started = time.perf_counter()
        dispatcher.dispatch_batch(requests, policy=OptionPolicy.CHEAPEST, prefetch=args.prefetch)
        elapsed = time.perf_counter() - started
        stats = matcher.statistics.as_dict()
        batch_stats = dispatcher.last_batch_statistics
        hit_rate = batch_stats.shared_tree_hit_rate if batch_stats is not None else 0.0
        prefetched = batch_stats.prefetched_trees if batch_stats is not None else 0
        results.append((matcher.name, elapsed, stats, hit_rate, prefetched))
    print(f"Dispatch: batched pipeline, prefetch {'on' if args.prefetch else 'off'}")
    print(
        f"{'matcher':>12} {'seconds':>9} {'evaluated':>10} {'pruned':>8} "
        f"{'options':>8} {'tree hits':>9} {'prefetched':>10}"
    )
    for name, elapsed, stats, hit_rate, prefetched in results:
        print(
            f"{name:>12} {elapsed:>9.3f} {stats['vehicles_evaluated']:>10.0f} "
            f"{stats['vehicles_pruned']:>8.0f} {stats['options_returned']:>8.0f} "
            f"{hit_rate:>8.0%} {prefetched:>10d}"
        )
    return 0


if __name__ == "__main__":  # pragma: no cover - manual invocation
    sys.exit(main())
