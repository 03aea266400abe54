"""Golden panels: every key of every statistics panel on one fixed day.

The day is a durable service (journal + incremental snapshots) that books
and chooses, advances, admits an ingest window, pumps it and advances again,
with a counting fake behind the batcher's wall clock.  The test pins every
key of ``statistics()``, ``routing_statistics()``,
``SimulationReport.matcher_statistics`` and the columns ``ptrider compare``
prints, and the value of every entry that does not read a wall clock.  A
wall entry (``*_seconds``, ``*response_time``, ``throughput``,
``ingest_latency_*``) is only asserted to be a float >= 0, and so are the
snapshot ``*_bytes``: the files they measure serialise each booking's
wall-clock ``response_seconds``.
"""

from __future__ import annotations

import itertools
import re
from pathlib import Path

from repro import build_system
from repro.cli import main


def _is_wall(key: str) -> bool:
    return (
        key.endswith("_seconds")
        or key.endswith("response_time")
        or key.endswith("throughput")
        or "ingest_latency_" in key
        or ("snapshot_" in key and key.endswith("_bytes"))
    )


def _day(directory: Path):
    system = build_system(
        vehicles=25,
        seed=11,
        durability="journal+snapshot",
        snapshot_interval=7,
        journal_path=str(directory / "journal"),
    )
    ticks = itertools.count()
    fake_clock = lambda: next(ticks) * 0.001  # noqa: E731 - one-line fake
    system._wall_clock = system._batcher._wall_clock = fake_clock
    vertices = system.fleet.grid.network.vertices()
    for start, destination in [(3, 200), (40, 120), (77, 12), (150, 31), (9, 99)]:
        booking = system.book(vertices[start], vertices[destination])
        if booking.options:
            system.choose(booking.booking_id, 0)
    system.advance(2.0)
    for start, destination in [(5, 130), (20, 100), (60, 180), (110, 7)]:
        system.ingest(vertices[start], vertices[destination])
    system.advance(1.5)
    assert len(system.pump()) == 4
    system.advance(4.0)
    return system


def _check(panel, pinned, walls):
    assert sorted(panel) == sorted(set(pinned) | set(walls))
    assert {key: value for key, value in panel.items() if key in pinned} == pinned
    for key, value in panel.items():
        assert isinstance(value, str if isinstance(pinned.get(key), str) else float), key
    for key in walls:
        assert isinstance(panel[key], float) and panel[key] >= 0.0, key


STATISTICS = {
    "average_detour_ratio": 0.0,
    "average_options": 1.2222222222222223,
    "batch_leg_sources_prefetched": 11.0,
    "batch_leg_tree_hits": 34.0,
    "batch_leg_walks": 0.0,
    "batch_prefetched_trees": 4.0,
    "batch_requests": 4.0,
    "batch_shared_tree_hit_rate": 0.0,
    "batch_shared_tree_hits": 0.0,
    "batch_trees_computed": 0.0,
    "completed": 0.0,
    "current_time": 8.0,
    "dropoffs": 0.0,
    "fleet_average_occupancy": 0.32,
    "fleet_empty": 18.0,
    "fleet_nonempty": 7.0,
    "fleet_vehicles": 25.0,
    "match_rate": 1.0,
    "matched": 9.0,
    "matcher_cells_visited": 576.0,
    "matcher_insertions_enumerated": 146.0,
    "matcher_insertions_feasible": 41.0,
    "matcher_options_returned": 11.0,
    "matcher_requests_answered": 9.0,
    "matcher_vehicles_beyond_cap": 0.0,
    "matcher_vehicles_considered": 46.0,
    "matcher_vehicles_evaluated": 37.0,
    "matcher_vehicles_pruned": 9.0,
    "pickups": 8.0,
    "requests": 9.0,
    "routing_cache_hits": 85.0,
    "routing_dijkstra_runs": 25.0,
    "routing_grid_cells": 64.0,
    "routing_grid_lower_bound_rows": 8.0,
    "routing_ingest_admitted": 4.0,
    "routing_ingest_answered": 4.0,
    "routing_ingest_cancelled": 0.0,
    "routing_ingest_close_drained": 0.0,
    "routing_ingest_deadline_closed": 0.0,
    "routing_ingest_deadline_misses": 0.0,
    "routing_ingest_errored": 0.0,
    "routing_ingest_evicted": 0.0,
    "routing_ingest_flushes": 1.0,
    "routing_ingest_forced": 0.0,
    "routing_ingest_mean_window_fill": 0.0078125,
    "routing_ingest_peak_queue_depth": 4.0,
    "routing_ingest_queue_depth": 0.0,
    "routing_ingest_retired": 0.0,
    "routing_ingest_shed": 0.0,
    "routing_ingest_size_closed": 0.0,
    "routing_ingest_window": 1.0,
    "routing_ingest_window_closed": 1.0,
    "routing_ingest_window_grown": 0.0,
    "routing_ingest_window_shrunk": 0.0,
    "routing_pinned_hits": 0.0,
    "routing_queries": 104.0,
    "routing_snapshot_delta_count": 2.0,
    "routing_snapshot_full_count": 0.0,
    "routing_walks": 0.0,
    "routing_walks_refused": 0.0,
    "sharing_rate": 0.0,
    "unmatched": 0.0,
}
STATISTICS_WALL = (
    "average_response_time",
    "batch_prefetch_seconds",
    "p95_response_time",
    "routing_build_seconds",
    "routing_grid_build_seconds",
    "routing_ingest_latency_p50",
    "routing_ingest_latency_p95",
    "routing_ingest_latency_p99",
    "routing_ingest_serving_seconds",
    "routing_ingest_throughput",
    "routing_snapshot_delta_bytes",
    "routing_snapshot_delta_seconds",
    "routing_snapshot_full_bytes",
    "routing_snapshot_full_seconds",
)

ROUTING_STATISTICS = {
    "backend": "csr",
    "cache_hits": 85.0,
    "dijkstra_runs": 25.0,
    "grid_cells": 64.0,
    "grid_lower_bound_rows": 8.0,
    "ingest_admitted": 4.0,
    "ingest_answered": 4.0,
    "ingest_cancelled": 0.0,
    "ingest_close_drained": 0.0,
    "ingest_deadline_closed": 0.0,
    "ingest_deadline_misses": 0.0,
    "ingest_errored": 0.0,
    "ingest_evicted": 0.0,
    "ingest_flushes": 1.0,
    "ingest_forced": 0.0,
    "ingest_mean_window_fill": 0.0078125,
    "ingest_peak_queue_depth": 4.0,
    "ingest_queue_depth": 0.0,
    "ingest_retired": 0.0,
    "ingest_shed": 0.0,
    "ingest_size_closed": 0.0,
    "ingest_window": 1.0,
    "ingest_window_closed": 1.0,
    "ingest_window_grown": 0.0,
    "ingest_window_mode": "fixed",
    "ingest_window_shrunk": 0.0,
    "pinned_hits": 0.0,
    "queries": 104.0,
    "snapshot_delta_count": 2.0,
    "snapshot_full_count": 0.0,
    "walks": 0.0,
    "walks_refused": 0.0,
}
ROUTING_STATISTICS_WALL = (
    "build_seconds",
    "grid_build_seconds",
    "ingest_latency_p50",
    "ingest_latency_p95",
    "ingest_latency_p99",
    "ingest_serving_seconds",
    "ingest_throughput",
    "snapshot_delta_bytes",
    "snapshot_delta_seconds",
    "snapshot_full_bytes",
    "snapshot_full_seconds",
)

MATCHER_STATISTICS = {
    "cells_visited": 576.0,
    "insertions_enumerated": 146.0,
    "insertions_feasible": 41.0,
    "options_returned": 11.0,
    "requests_answered": 9.0,
    "vehicles_beyond_cap": 0.0,
    "vehicles_considered": 46.0,
    "vehicles_evaluated": 37.0,
    "vehicles_pruned": 9.0,
}
MATCHER_STATISTICS_WALL = ()


def test_statistics_panel(tmp_path):
    system = _day(tmp_path)
    try:
        _check(system.statistics(), STATISTICS, STATISTICS_WALL)
    finally:
        system.close()


def test_routing_statistics_panel(tmp_path):
    system = _day(tmp_path)
    try:
        _check(system.routing_statistics(), ROUTING_STATISTICS, ROUTING_STATISTICS_WALL)
    finally:
        system.close()


def test_simulation_report_matcher_statistics(tmp_path):
    system = _day(tmp_path)
    try:
        report = system._engine.report()
        _check(report.matcher_statistics, MATCHER_STATISTICS, MATCHER_STATISTICS_WALL)
    finally:
        system.close()


def test_compare_columns(capsys):
    argv = ["compare", "--vehicles", "10", "--rows", "6", "--columns", "6", "--requests", "5"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "Dispatch: batched pipeline"
    assert lines[1].split() == [
        "matcher", "seconds", "evaluated", "pruned", "options", "tree", "hits", "prefetched",
    ]
    rows = [line.split() for line in lines[2:]]
    assert [row[0] for row in rows] == ["naive", "single_side", "dual_side"]
    for row in rows:
        assert re.fullmatch(r"\d+\.\d{3}", row[1]), row
    assert [row[2:] for row in rows] == [
        ["50", "0", "6", "0%", "5"],
        ["12", "3", "6", "0%", "5"],
        ["12", "3", "6", "0%", "5"],
    ]
