#!/usr/bin/env python3
"""Replay a generated day and report who asked for each distance tree.

After PR 19 cold trees -- single-source searches the routing engine has to
run because no cached tree answers the query -- are the largest span of a
commute day, and most of them are asked *outside* the matcher.  This script
names the askers.  The day is the one ``scripts/matcher_vs_naive.py``
generates (same arguments, same defaults: perfbench's commute day, so
``--seed 7001`` is round 1 of its seed 7) and is replayed through the service
as perfbench replays it: ``--path book`` answers each request with
``book_request`` then ``choose`` (or ``cancel`` when nothing was offered),
``--path batched`` with ``ingest_request`` and one ``pump`` per tick.

Every tree the engine bills (``routing.trees_computed`` =
``stats.dijkstra_runs``) and every certified walk that answered instead of a
tree (``stats.walks``; ``CSREngine.walk_distance`` and the walks inside
``distance`` and ``path``) is charged to the outermost function on the
stack named in :data:`CALLERS`, so a tree a commit's fallback roots through
``MatchContext.create`` is the commit's::

    routing.trees_computed by caller (path book, seed 1001, 1000 requests)
      caller                     trees walks
      next_stop                     37   416
      create                       291     0
      commit                         0     0
      cancel                         0     0
      plan_route                     0   438
      _verify_vehicle              232   511
      added_distance_lower_bound   173   136
      other                          0     0
      total                        733  1501
    best_schedule: 6141 calls on a non-empty tree, 5598 (91.2%) saw one branch

The last line says how often ``KineticTree.best_schedule`` had a single branch
to choose from (and therefore nothing to measure).

Usage::

    PYTHONPATH=src python scripts/trees_by_caller.py --seed 7001
    PYTHONPATH=src python scripts/trees_by_caller.py --seed 7001 --path batched
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.core.dispatcher import OptionPolicy
from repro.vehicles.kinetic_tree import KineticTree

sys.path.insert(0, str(Path(__file__).resolve().parent))
import matcher_vs_naive as day_tool  # noqa: E402  (the sibling script, not a package)

#: functions a tree is charged to; anything else is ``other``
CALLERS = (
    "next_stop",
    "create",
    "commit",
    "cancel",
    "plan_route",
    "_verify_vehicle",
    "added_distance_lower_bound",
)
#: the engine's public methods that can root a tree or walk one
ENGINE_ENTRY_POINTS = ("distance", "distances_from", "prefetch_trees", "path", "walk_distance")


def _caller() -> str:
    """The outermost function on the current stack that is in :data:`CALLERS`."""
    found = "other"
    frame = sys._getframe(2)  # noqa: SLF001 - skip this helper and the wrapper
    while frame is not None:
        if frame.f_code.co_name in CALLERS:
            found = frame.f_code.co_name
        frame = frame.f_back
    return found


class TreeLedger:
    """Counts billed trees and answering walks per caller around an engine's
    public methods."""

    def __init__(self, engine) -> None:
        self.trees: Dict[str, int] = {name: 0 for name in CALLERS + ("other",)}
        self.walks: Dict[str, int] = dict.fromkeys(self.trees, 0)
        self._engine = engine
        for name in ENGINE_ENTRY_POINTS:
            setattr(engine, name, self._counting(getattr(engine, name)))

    def _counting(self, method):
        stats, trees, walks = self._engine.stats, self.trees, self.walks

        def counted(*args, **kwargs):
            before = stats.dijkstra_runs, stats.walks
            try:
                return method(*args, **kwargs)
            finally:
                computed = stats.dijkstra_runs - before[0]
                walked = stats.walks - before[1]
                if computed or walked:
                    caller = _caller()
                    trees[caller] += computed
                    walks[caller] += walked

        return counted

    def detach(self) -> None:
        for name in ENGINE_ENTRY_POINTS:
            vars(self._engine).pop(name, None)


class BranchCounter:
    """Counts ``KineticTree.best_schedule`` calls on a non-empty tree, and
    those among them that had one branch."""

    def __init__(self) -> None:
        self.calls = self.single = 0
        self._original = KineticTree.best_schedule
        counter = self

        def best_schedule(tree, *args, **kwargs):
            branches = tree.schedule_count()
            counter.calls += branches >= 1
            counter.single += branches == 1
            return counter._original(tree, *args, **kwargs)

        KineticTree.best_schedule = best_schedule

    def detach(self) -> None:
        KineticTree.best_schedule = self._original


def _answer_by_booking(service, arrived: Sequence) -> None:
    for request in arrived:
        booking = service.book_request(request)
        if booking.options:
            cheapest = OptionPolicy.CHEAPEST.choose(booking.options)
            service.choose(booking.booking_id, booking.options.index(cheapest))
        else:
            service.cancel(booking.booking_id)


def replay(args: argparse.Namespace, out=sys.stdout) -> Dict[str, int]:
    """Replay the day; print the report; return the per-caller tree counts
    (the walks are on the report)."""
    batched = args.path == "batched"
    # one window = one tick's arrivals, closed by time, as perfbench sets it
    overrides = dict(batch_window=1.0, max_batch_size=65536) if batched else {}
    service = day_tool.build_service(args, **overrides)
    day = day_tool.build_day(service, args)
    ledger = TreeLedger(service.fleet.routing_engine)
    branches = BranchCounter()
    try:
        due: Sequence = ()
        tick = 0
        while True:
            tick += 1
            # a tick's arrivals are answered one ``advance`` later
            due, arrived = day.due(float(tick)), due
            if batched:
                service.pump(now=float(tick))
                for request in due:
                    service.ingest_request(request, now=float(tick))
            else:
                _answer_by_booking(service, arrived)
            if not (day.remaining or due):
                break  # the day ends with its last answers, as perfbench's does
            service.advance(1.0)
    finally:
        branches.detach()
        ledger.detach()
        service.close()
    print(
        f"routing.trees_computed by caller (path {args.path}, seed {args.seed}, "
        f"{args.requests} requests)",
        file=out,
    )
    print(f"  {'caller':<27}{'trees':>5} {'walks':>5}", file=out)
    for name, count in ledger.trees.items():
        print(f"  {name:<27}{count:>5} {ledger.walks[name]:>5}", file=out)
    total_trees, total_walks = sum(ledger.trees.values()), sum(ledger.walks.values())
    print(f"  {'total':<27}{total_trees:>5} {total_walks:>5}", file=out)
    share = 100.0 * branches.single / branches.calls if branches.calls else 0.0
    print(
        f"best_schedule: {branches.calls} calls on a non-empty tree, "
        f"{branches.single} ({share:.1f}%) saw one branch",
        file=out,
    )
    return ledger.trees


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = day_tool.build_parser(__doc__.split("\n\n")[0])
    parser.add_argument("--path", choices=("book", "batched"), default="book",
                        help="serving path the day is replayed through")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    replay(parse_args(argv))
    return 0


if __name__ == "__main__":
    sys.exit(main())
