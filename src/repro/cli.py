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
import typing
from typing import Dict, Optional, Sequence

from repro.core.config import KNOBS, SystemConfig
from repro.core.dispatcher import Dispatcher, OptionPolicy
from repro.errors import ConfigurationError, ServiceError
from repro.roadnet.generators import grid_network
from repro.service.api import MATCHER_REGISTRY, PTRiderService, assemble_fleet, build_system
from repro.service.journal import ServiceJournal
from repro.sim.engine import SimulationEngine
from repro.sim.trips import ShanghaiLikeTripGenerator
from repro.sim.workload import RequestWorkload, random_requests

__all__ = ["main", "build_parser", "knob_arguments"]


def _flagged(command: str):
    """The knobs with a flag on ``command``: (field, argparse dest)."""
    for spec in KNOBS.values():
        if command in spec.metadata["commands"]:
            yield spec, spec.metadata["flag"].lstrip("-").replace("-", "_")


def _add_knob_flags(parser: argparse.ArgumentParser, command: str) -> None:
    """Add the flags :class:`SystemConfig` declares for ``command``."""
    hints = typing.get_type_hints(SystemConfig)
    for spec, _dest in _flagged(command):
        meta = spec.metadata
        kind = hints[spec.name]
        if spec.default is None:
            kind = typing.get_args(kind)[0]  # Optional[X] -> X
        parser.add_argument(
            meta["flag"],
            type=kind,
            choices=meta["check"].choices or None,
            default=kind(0) if meta["zero_none"] else spec.default,
            metavar=meta["metavar"],
            help=meta["help"],
        )


def knob_arguments(args: argparse.Namespace) -> Dict[str, object]:
    """The knobs ``args`` carries, by field name, as
    :meth:`SystemConfig.with_knobs` takes them."""
    return {spec.name: getattr(args, dest) for spec, dest in _flagged(args.command)}


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
    _add_knob_flags(demo, "demo")
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
    simulate.add_argument("--seed", type=int, default=7, help="random seed")
    _add_knob_flags(simulate, "simulate")

    compare = subparsers.add_parser("compare", help="compare matcher work on one request burst")
    compare.add_argument("--vehicles", type=int, default=60, help="fleet size")
    compare.add_argument("--rows", type=int, default=15, help="road-network rows")
    compare.add_argument("--columns", type=int, default=15, help="road-network columns")
    compare.add_argument("--requests", type=int, default=30, help="requests in the burst")
    compare.add_argument("--seed", type=int, default=7, help="random seed")
    _add_knob_flags(compare, "compare")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of the ``ptrider`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    run = {"demo": _run_demo, "simulate": _run_simulate, "compare": _run_compare}
    try:
        return run[args.command](args)
    except ConfigurationError as error:
        parser.error(str(error))
    except ServiceError as error:  # e.g. a journal directory that already holds state
        print(f"{parser.prog}: error: {error}", file=sys.stderr)
        return 2


# ----------------------------------------------------------------------
def _run_demo(args: argparse.Namespace) -> int:
    system = None
    if args.resume:
        if not args.journal:
            print("--resume requires --journal DIR", file=sys.stderr)
            return 2
        probe = ServiceJournal(args.journal)
        fresh = probe.is_fresh()
        probe.close()
        if not fresh:
            # Warm restart: the journal already holds state, so rebuild the
            # service from it (newest snapshot + tail replay) instead of
            # refusing the directory as build_system would.
            system = PTRiderService.recover(args.journal)
            print(
                f"Resumed from journal {args.journal} "
                f"(t={system.current_time:.1f}, {len(system.vehicle_ids())} vehicles)"
            )
    if system is None:
        knobs = knob_arguments(args)
        if args.resume and knobs["durability"] == "off":
            # --resume on a fresh directory still means "be durable": the
            # whole point is that the *next* run can warm-restart from it.
            knobs["durability"] = "journal"
        system = build_system(
            network_rows=args.rows,
            network_columns=args.columns,
            vehicles=args.vehicles,
            seed=args.seed,
            **knobs,
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


def _dispatcher(args: argparse.Namespace, matcher_name: Optional[str] = None) -> Dispatcher:
    """A dispatcher on a freshly placed fleet, as ``simulate`` and
    ``compare`` run: ``matcher_name``'s matcher, or the config's."""
    config = SystemConfig(
        max_waiting=6.0, service_constraint=0.4, max_pickup_distance=12.0,
    ).with_knobs(knob_arguments(args), running=False)
    network = grid_network(args.rows, args.columns, weight_jitter=0.25, seed=args.seed)
    fleet = assemble_fleet(network, config, args.vehicles, args.seed)
    matcher = MATCHER_REGISTRY[matcher_name or config.matcher_name](fleet, config=config)
    return Dispatcher(fleet, matcher, config)


def _run_simulate(args: argparse.Namespace) -> int:
    dispatcher = _dispatcher(args)
    config = dispatcher.config
    generator = ShanghaiLikeTripGenerator(dispatcher.fleet.grid.network, seed=args.seed)
    trips = generator.generate(args.trips, day_seconds=args.duration)
    workload = RequestWorkload.from_trips(trips, config.max_waiting, config.service_constraint)
    engine = SimulationEngine(dispatcher, workload, speed=1.0, tick=1.0, seed=args.seed)
    report = engine.run(until=args.duration + 50.0)
    print(f"Matcher: {dispatcher.matcher.name} (routing={config.routing_backend})")
    for key, value in sorted(report.panel().items()):
        print(f"  {key:>25}: {value:.4f}")
    return 0


def _run_compare(args: argparse.Namespace) -> int:
    results = []
    for name in ("naive", "single_side", "dual_side"):
        dispatcher = _dispatcher(args, name)  # a fresh fleet per matcher
        config = dispatcher.config
        requests = random_requests(
            dispatcher.fleet.grid.network,
            args.requests,
            config.max_waiting,
            config.service_constraint,
            seed=args.seed,
        )
        started = time.perf_counter()
        dispatcher.dispatch_batch(requests, policy=OptionPolicy.CHEAPEST)
        elapsed = time.perf_counter() - started
        stats = dispatcher.matcher.statistics
        batch_stats = dispatcher.last_batch_statistics
        hit_rate = batch_stats.shared_tree_hit_rate if batch_stats is not None else 0.0
        prefetched = batch_stats.prefetched_trees if batch_stats is not None else 0
        results.append((dispatcher.matcher.name, elapsed, stats, hit_rate, prefetched))
    print("Dispatch: batched pipeline")
    print(
        f"{'matcher':>12} {'seconds':>9} {'evaluated':>10} {'pruned':>8} "
        f"{'options':>8} {'tree hits':>9} {'prefetched':>10}"
    )
    for name, elapsed, stats, hit_rate, prefetched in results:
        print(
            f"{name:>12} {elapsed:>9.3f} {stats.vehicles_evaluated:>10d} "
            f"{stats.vehicles_pruned:>8d} {stats.options_returned:>8d} "
            f"{hit_rate:>8.0%} {prefetched:>10d}"
        )
    return 0


if __name__ == "__main__":  # pragma: no cover - manual invocation
    sys.exit(main())
