"""Metric names, units and directions -- one table, read by the harness, the
self-tests (which hold ``BENCHMARK.json`` to it) and ``perfbench.compare``.

``README.md`` carries the prose: definitions, which layer metric should move
which end-to-end metric on which workload, and the "must not move" cells.
"""

from __future__ import annotations

from typing import Dict, Tuple

#: (name, unit, better): emitted by every untraced run of every workload.
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("serve_rps", "req/s", "higher"),
    ("answer_ms_p50", "ms", "lower"),
    ("flush_ms_p50", "ms", "lower"),
    ("flush_ms_p90", "ms", "lower"),
    ("day_wall_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("matched_share", "ratio", "higher"),
)

#: (name, unit, better, bound): end-to-end metrics that exist on one workload
#: only.  The benchmark contract wants every end-to-end metric from every
#: workload, so these ride in the suite's result file (``python -m perfbench
#: --out``) instead of ``BENCHMARK.json``; ``perfbench.compare`` holds them to
#: these bounds.  ``answer_ms_p95`` is here because only the per-request path
#: has the samples for it: on the batched path all requests of a window share
#: one ``pump`` wall, a run holds 60-240 windows, and the p95 read 15% apart
#: between quartiles over thirty seeds.
WORKLOAD_END_TO_END: Dict[str, Tuple[Tuple[str, str, str, float], ...]] = {
    "commute_book": (
        ("answer_ms_p95", "ms", "lower", 0.25),
    ),
    "surge_durable": (
        ("recover_s", "s", "lower", 0.25),
        ("journal_bytes_per_request", "B", "lower", 0.02),
    ),
}

#: Span name -> which of calls / busy_s / self_s are reported for it.
SPAN_METRICS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("api.book", ("calls", "busy_s", "self_s")),
    ("api.choose", ("busy_s",)),
    ("api.ingest", ("calls", "busy_s")),
    ("api.pump", ("busy_s", "self_s")),
    ("api.advance", ("busy_s",)),
    ("ingest.flush", ("calls", "busy_s", "self_s")),
    ("dispatcher.batch", ("calls", "busy_s", "self_s")),
    ("dispatcher.dispatch", ("busy_s",)),
    ("dispatcher.commit", ("calls", "busy_s")),
    ("dispatcher.merge", ("busy_s",)),
    ("batch.create", ("busy_s", "self_s")),
    ("matcher.collect", ("calls", "busy_s", "self_s")),
    ("insertion", ("calls", "busy_s", "self_s")),
    ("routing.prefetch", ("calls", "busy_s")),
    ("routing.distance", ("calls", "busy_s")),
    ("sim.step", ("calls", "busy_s", "self_s")),
    ("movement.plan_route", ("calls", "busy_s")),
    ("shortest_path", ("calls", "busy_s")),
    ("journal.append", ("calls", "busy_s")),
    ("recovery.snapshot", ("calls", "busy_s")),
)

_UNITS = {"calls": "count", "busy_s": "s", "self_s": "s"}

#: (name, unit, better) of the per-layer metrics that are not span aggregates:
#: counts read from the program's own statistics objects (they repeat exactly
#: in the untraced run), ratios of those counts, and harness timings.
COUNT_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("ingest.window_fill_mean", "req", "higher"),
    ("ingest.peak_queue_depth", "count", "lower"),
    ("ingest.shed", "count", "lower"),
    ("ingest.errored", "count", "lower"),
    ("batch.prefetched_trees", "count", "lower"),
    ("batch.shared_tree_hit_rate", "ratio", "higher"),
    ("matcher.vehicles_considered", "count", "lower"),
    ("matcher.vehicles_evaluated", "count", "lower"),
    ("matcher.vehicles_pruned", "count", "higher"),
    ("matcher.options_returned", "count", "higher"),
    ("matcher.useful_eval_ratio", "ratio", "higher"),
    ("insertion.enumerated", "count", "lower"),
    ("insertion.feasible", "count", "higher"),
    ("insertion.bound_rejected", "count", "higher"),
    ("insertion.feasible_ratio", "ratio", "higher"),
    ("routing.prefetch.trees", "count", "lower"),
    ("routing.queries", "count", "lower"),
    ("routing.cache_hit_ratio", "ratio", "higher"),
    ("routing.trees_computed", "count", "lower"),
    ("journal.bytes", "B", "lower"),
    ("recovery.snapshot.bytes", "B", "lower"),
    ("recovery.recover.busy_s", "s", "lower"),
    ("recovery.replayed_records", "count", "lower"),
    ("grid.build_s", "s", "lower"),
    ("setup.network_s", "s", "lower"),
    ("setup.engine_s", "s", "lower"),
    ("setup.fleet_s", "s", "lower"),
    ("setup.service_s", "s", "lower"),
    ("harness.generate_s", "s", "lower"),
    ("harness.warmup_s", "s", "lower"),
    ("harness.slowdown", "ratio", "lower"),
    ("trace.unaccounted_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

PER_LAYER: Tuple[Tuple[str, str, str], ...] = tuple(
    (f"{span}.{field}", _UNITS[field], "lower")
    for span, fields in SPAN_METRICS
    for field in fields
) + COUNT_METRICS

#: Per-layer metrics that are measurements (wall clock, or bytes of files that
#: embed wall-clock floats); every other one is a count or a ratio of counts
#: and must repeat exactly between runs of one commit.
TIMED_PER_LAYER = frozenset(
    name for name, unit, _ in PER_LAYER if unit in ("s", "B")
) | {"trace.overhead_ratio", "harness.slowdown"}


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
