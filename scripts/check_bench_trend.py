#!/usr/bin/env python3
"""Fail CI when benchmark wall times regress against the committed record.

``benchmarks/`` writes every session's machine-readable records to
``BENCH_results.json`` (committed at the repo root, archived per-commit as a
CI artifact).  This script compares a freshly produced set of records against
the committed previous record and exits non-zero when a monitored
experiment's best wall time regressed by more than the threshold
(default 25%), so a PR that slows the hot path fails its workflow instead of
silently shipping.

Per ``(experiment, routing backend, phase, tree provider, workers)`` an
aggregate of the wall times on each side is compared -- the records of one
experiment mix entry kinds (whole-simulation runs, routing-layer probes) and
repetitions; separating backends keeps a regression in one backend from
hiding behind a faster record of another, and separating phases, tree
providers and worker counts (records without the field form their own
unnamed group for that dimension) keeps e.g. a point-query regression from
hiding behind a faster artifact-cache disk read, a PHAST-plane regression
behind the faster SciPy plane, or an in-process dispatch regression behind
a faster multi-worker run, in the same experiment.  Records at ``workers``
absent *or 1* share the unnamed group: one worker means the pool was
bypassed and the measurement is the same in-process pipeline the historical
records timed, so the committed baseline stays comparable.  ``--skip-phases`` drops named phases from the *comparison*
(never from archiving) for measurements too noise-dominated to gate on,
such as warm-restart disk reads.  ``--rate-phases`` names phases whose
``wall_seconds`` field actually holds a *rate* (E17's serving throughput in
req/s): for those, higher is better, so the regression ratio is inverted --
a throughput drop beyond the threshold fails just like a wall-time rise
does elsewhere.  Two aggregates are offered:

* ``min`` (default) -- "how fast can this experiment go on this machine";
  the most noise-tolerant choice when each side holds a single run.
* ``median`` -- the right choice when the fresh side holds *repeated runs*
  of the same experiment (CI reruns E12 three times): the median absorbs a
  single slow outlier that would poison a mean and a single lucky run that
  would let ``min`` mask a real regression.

Pairs present on only one side are skipped, so the committed record and the
CI runs don't have to cover identical backend matrices.

Caveat: the committed baseline was produced on whatever machine last
regenerated ``BENCH_results.json``; across very different hardware the
threshold flags machine deltas, not code deltas.  Regenerate the committed
record when that happens (the CI artifact archive keeps the trajectory).

With ``--archive`` the fresh records are additionally appended to a
trajectory file (default ``BENCH_trajectory.jsonl``): one JSON line per
``(experiment, routing backend)`` aggregate, stamped with the current commit
and with the ``cpu_count`` the records carry (``benchmarks/common.record_result``
puts it on every row), so the perf history over *many* commits is readable
directly instead of only pairwise against the last committed baseline.
Every experiment present in
the fresh files is archived (not just the monitored ones), and archiving
happens regardless of the regression verdict -- a regression is exactly what
the trajectory should show.

Usage::

    python scripts/check_bench_trend.py \
        --baseline bench-records/baseline.json \
        --fresh bench-records/e2-dict.json bench-records/e8-csr.json \
        --experiments E2 E8 E12 [--threshold 0.25] [--aggregate median] \
        [--archive] [--trajectory BENCH_trajectory.jsonl] [--commit SHA]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterable, List


def load_records(paths: Iterable[Path]) -> List[dict]:
    """Concatenate the record lists of several ``BENCH_results.json`` files."""
    records: List[dict] = []
    for path in paths:
        payload = json.loads(Path(path).read_text())
        if not isinstance(payload, list):
            raise SystemExit(f"{path}: expected a JSON list of records")
        records.extend(payload)
    return records


def aggregate_wall_seconds(
    records: List[dict],
    experiments: Iterable[str],
    aggregate: str = "min",
    skip_phases: Iterable[str] = (),
) -> Dict[tuple, float]:
    """Aggregated ``wall_seconds`` per (experiment, backend, phase, provider).

    Records without a ``phase`` / ``tree_provider`` field share one unnamed
    ("") group for that dimension, so experiments that never adopted the
    fields keep their historical keys.  Both dimensions exist for the same
    reason: an ablation's slow side must never hide behind its faster
    sibling in a shared min/median (E14's point queries vs its disk reads,
    E15's PHAST planes vs its SciPy planes).  Phases named in
    ``skip_phases`` are dropped entirely.
    """
    walls: Dict[tuple, List[float]] = {}
    wanted = set(experiments)
    skipped = set(skip_phases)
    for record in records:
        experiment = record.get("experiment")
        wall = record.get("wall_seconds")
        if experiment not in wanted or not isinstance(wall, (int, float)):
            continue
        phase = str(record.get("phase") or "")
        if phase in skipped:
            continue
        provider = str(record.get("tree_provider") or "")
        workers = record.get("workers")
        # workers absent or 1 → the in-process pipeline → the historical
        # unnamed group; only real pool runs form their own aggregates.
        workers_group = "" if workers in (None, "", 0, 1) else str(workers)
        key = (
            experiment, record.get("routing_backend", "dict"), phase, provider,
            workers_group,
        )
        walls.setdefault(key, []).append(float(wall))
    reduce = min if aggregate == "min" else statistics.median
    return {key: reduce(values) for key, values in walls.items()}


def describe(key: tuple) -> str:
    """Human label of an aggregate key: ``E16 [csr w4]``, ``E15 [ch:planes@phast]``."""
    experiment, backend, phase, provider, workers = key
    suffix = f":{phase}" if phase else ""
    if provider:
        suffix += f"@{provider}"
    if workers:
        suffix += f" w{workers}"
    return f"{experiment} [{backend}{suffix}]"


def current_commit() -> str:
    """The HEAD commit id, or "unknown" outside a git checkout."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def archive_records(
    records: List[dict], trajectory: Path, commit: str, aggregate: str
) -> int:
    """Append per-(experiment, backend) aggregates as JSON lines; returns count."""
    experiments = sorted(
        {
            record["experiment"]
            for record in records
            if isinstance(record.get("experiment"), str)
        }
    )
    walls = aggregate_wall_seconds(records, experiments, aggregate)
    # One archive call holds one box's run: its records agree on cpu_count.
    cpu_count = next(
        (record["cpu_count"] for record in records if "cpu_count" in record), None
    )
    trajectory.parent.mkdir(parents=True, exist_ok=True)
    with trajectory.open("a") as handle:
        for (experiment, backend, phase, provider, workers), wall in sorted(
            walls.items()
        ):
            row = {
                "commit": commit,
                "experiment": experiment,
                "routing_backend": backend,
                "wall_seconds": round(wall, 6),
                "aggregate": aggregate,
            }
            if phase:
                row["phase"] = phase
            if provider:
                row["tree_provider"] = provider
            if workers:
                row["workers"] = int(workers)
            if cpu_count is not None:
                row["cpu_count"] = cpu_count
            handle.write(json.dumps(row, sort_keys=True) + "\n")
    return len(walls)


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline", type=Path, required=True,
        help="the committed previous BENCH_results.json",
    )
    parser.add_argument(
        "--fresh", type=Path, nargs="+", required=True,
        help="freshly produced record file(s)",
    )
    parser.add_argument(
        "--experiments", nargs="+", default=["E2", "E8", "E12"],
        help="experiments whose wall time is monitored (default: E2 E8 E12)",
    )
    parser.add_argument(
        "--threshold", type=float, default=0.25,
        help="maximum tolerated relative regression (default: 0.25 = 25%%)",
    )
    parser.add_argument(
        "--aggregate", choices=("min", "median"), default="min",
        help="per-(experiment, backend, phase) summary: 'min' for single "
        "runs, 'median' when the fresh side holds repeated runs (default: min)",
    )
    parser.add_argument(
        "--skip-phases", nargs="*", default=[],
        help="record phases excluded from the regression comparison (still "
        "archived); e.g. warm_restart, whose wall is a page-cache lottery",
    )
    parser.add_argument(
        "--rate-phases", nargs="*", default=[],
        help="record phases whose wall_seconds holds a *rate* (e.g. req/s), "
        "where higher is better: the regression ratio is inverted "
        "(baseline/fresh) so a throughput drop trips the threshold; "
        "within-key reduction still uses --aggregate on both sides",
    )
    parser.add_argument(
        "--archive", action="store_true",
        help="append the fresh aggregates (every experiment present, all "
        "backends) to the trajectory file, stamped with the current commit",
    )
    parser.add_argument(
        "--trajectory", type=Path, default=Path("BENCH_trajectory.jsonl"),
        help="trajectory file --archive appends to (default: "
        "BENCH_trajectory.jsonl)",
    )
    parser.add_argument(
        "--commit", default=None,
        help="commit id recorded in archived lines (default: git HEAD)",
    )
    args = parser.parse_args(argv)

    fresh_records = load_records(args.fresh)
    baseline = aggregate_wall_seconds(
        load_records([args.baseline]), args.experiments, args.aggregate,
        args.skip_phases,
    )
    fresh = aggregate_wall_seconds(
        fresh_records, args.experiments, args.aggregate, args.skip_phases
    )

    if args.archive:
        commit = args.commit or current_commit()
        archived = archive_records(
            fresh_records, args.trajectory, commit, args.aggregate
        )
        print(f"archived {archived} aggregate(s) to {args.trajectory} @ {commit}")

    compared = sorted(set(baseline) & set(fresh))
    for key in sorted(set(baseline) ^ set(fresh)):
        side = "fresh" if key in baseline else "committed baseline"
        print(f"{describe(key)}: no {side} record -- skipped")

    failures = []
    rate_phases = set(args.rate_phases)
    for key in compared:
        before, after = baseline[key], fresh[key]
        if key[2] in rate_phases:
            # the recorded value is a rate: a drop (after < before) is the
            # regression, so the ratio is inverted relative to wall times
            ratio = before / after if after > 0 else float("inf")
            unit = "/s"
        else:
            ratio = after / before if before > 0 else float("inf")
            unit = "s"
        verdict = "OK" if ratio <= 1.0 + args.threshold else "REGRESSED"
        print(
            f"{describe(key)}: baseline {before:.4f}{unit} -> fresh "
            f"{after:.4f}{unit} ({ratio:.2f}x) {verdict}"
        )
        if verdict == "REGRESSED":
            failures.append(describe(key))

    if not compared:
        print("no overlapping (experiment, backend) records -- nothing compared")
    if failures:
        print(
            f"wall-time regression over {args.threshold:.0%} in: {', '.join(failures)}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
