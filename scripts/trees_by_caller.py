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
``stats.dijkstra_runs``), every certified walk that answered instead of a
tree (``stats.walks``; ``CSREngine.walk_distance`` and the walks inside
``distance`` and ``path``) and every read a pinned row answered
(``stats.pinned_hits``: the rows the dispatcher pins at the fleet's live
stops, read after a cache miss) is charged to the outermost function on the
stack named in :data:`CALLERS`, so a tree a commit's fallback roots through
``MatchContext.create`` is the commit's::

    routing.trees_computed by caller (path book, seed 1001, 1000 requests, 1024-tree cache)
      caller                     trees walks pinned
      next_stop                     37   416      0
      create                       291     0      0
      commit                         0     0      0
      cancel                         0     0      0
      plan_route                     0   438      0
      _verify_vehicle              337   512      0
      added_distance_lower_bound    68    49      0
      other                          0     0      0
      total                        733  1415      0
    best_schedule: 6141 calls on a non-empty tree, 5598 (91.2%) saw one branch
    grid lower-bound rows: 173 searches, 173 bounded, 0 full

The ``best_schedule`` line says how often ``KineticTree.best_schedule`` had a
single branch to choose from (and therefore nothing to measure).  The last
line counts the grid index's row searches: a single-side walk and its
empty-taxi probe search a row out to the pick-up cap (bounded), every other
reader -- and a read past a row's reach -- searches it whole (full).
``--expect-full-rows N`` exits 1 unless the day runs exactly N full
searches, a tripwire for a caller that stops passing its reach.  On a 1 024-tree cache
nothing is pinned; ``--tree-cache 8`` replays the day on ``surge_durable``'s
8-slot cache, where the pins answer.  ``--expect-trees N`` exits 0 exactly
when the day roots N trees in all, a tripwire for routing work that moved.

Usage::

    PYTHONPATH=src python scripts/trees_by_caller.py --seed 7001
    PYTHONPATH=src python scripts/trees_by_caller.py --seed 7001 --path batched
    PYTHONPATH=src python scripts/trees_by_caller.py --path batched --tree-cache 8 \
        --vehicles 40 --capacity 2 --rate 400 --requests 4000 --hotspots 80 \
        --seed 1001 --expect-trees 174 --expect-full-rows 0
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

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
    """Counts billed trees, answering walks and pinned hits per caller
    around an engine's public methods."""

    def __init__(self, engine) -> None:
        self.trees: Dict[str, int] = {name: 0 for name in CALLERS + ("other",)}
        self.walks: Dict[str, int] = dict.fromkeys(self.trees, 0)
        self.pinned: Dict[str, int] = dict.fromkeys(self.trees, 0)
        self._engine = engine
        for name in ENGINE_ENTRY_POINTS:
            setattr(engine, name, self._counting(getattr(engine, name)))

    def _counting(self, method):
        stats, trees, walks, pinned = self._engine.stats, self.trees, self.walks, self.pinned

        def counted(*args, **kwargs):
            before = stats.dijkstra_runs, stats.walks, stats.pinned_hits
            try:
                return method(*args, **kwargs)
            finally:
                computed = stats.dijkstra_runs - before[0]
                walked = stats.walks - before[1]
                hits = stats.pinned_hits - before[2]
                if computed or walked or hits:
                    caller = _caller()
                    trees[caller] += computed
                    walks[caller] += walked
                    pinned[caller] += hits

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


def replay(args: argparse.Namespace, out=sys.stdout) -> Tuple[Dict[str, int], Dict[str, int]]:
    """Replay the day; print the report; return the per-caller tree counts
    (the walks are on the report) and the grid's ``bounded`` and ``full``
    row searches."""
    batched = args.path == "batched"
    # one window = one tick's arrivals, closed by time, as perfbench sets it
    overrides = dict(batch_window=1.0, max_batch_size=65536) if batched else {}
    service = day_tool.build_service(args, **overrides)
    day = day_tool.build_day(service, args)
    grid = service.fleet.grid
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
        f"{args.requests} requests, {args.tree_cache}-tree cache)",
        file=out,
    )
    print(f"  {'caller':<27}{'trees':>5} {'walks':>5} {'pinned':>6}", file=out)
    for name, count in ledger.trees.items():
        print(f"  {name:<27}{count:>5} {ledger.walks[name]:>5} {ledger.pinned[name]:>6}", file=out)
    totals = [sum(column.values()) for column in (ledger.trees, ledger.walks, ledger.pinned)]
    print(f"  {'total':<27}{totals[0]:>5} {totals[1]:>5} {totals[2]:>6}", file=out)
    share = 100.0 * branches.single / branches.calls if branches.calls else 0.0
    print(
        f"best_schedule: {branches.calls} calls on a non-empty tree, "
        f"{branches.single} ({share:.1f}%) saw one branch",
        file=out,
    )
    rows = {"bounded": grid.bounded_row_searches, "full": grid.full_row_searches}
    print(
        f"grid lower-bound rows: {sum(rows.values())} searches, "
        f"{rows['bounded']} bounded, {rows['full']} full",
        file=out,
    )
    return ledger.trees, rows


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = day_tool.build_parser(__doc__.split("\n\n")[0])
    parser.add_argument("--path", choices=("book", "batched"), default="book",
                        help="serving path the day is replayed through")
    parser.add_argument("--expect-trees", type=int, default=None, metavar="N",
                        help="exit 0 iff the day roots exactly N trees in all")
    parser.add_argument("--expect-full-rows", type=int, default=None, metavar="N",
                        help="exit 0 iff the grid searches exactly N rows in full")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    trees, rows = replay(args)
    status = 0
    total = sum(trees.values())
    if args.expect_trees is not None and total != args.expect_trees:
        print(f"expected {args.expect_trees} trees, counted {total}", file=sys.stderr)
        status = 1
    if args.expect_full_rows is not None and rows["full"] != args.expect_full_rows:
        print(
            f"expected {args.expect_full_rows} full row searches, counted {rows['full']}",
            file=sys.stderr,
        )
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
