"""Run one workload for ``--seconds`` and print its metrics (the benchmark
contract's entry point: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1``).

A run replays *rounds* -- each a fresh service on a city-day generated from
its own sub-seed -- until the next round would not fit in ``--seconds`` (at
least one; with ``--trace 1`` every round is replayed twice, untraced then
traced, and the two must agree on digest and counts).  Scalar metrics are
medians over the rounds, latency percentiles pool every round's samples.
The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` -- every end-to-end
metric with ``--trace 0``, every per-layer metric with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = HERE / "out"


def _bootstrap() -> None:
    """Pin the hash seed (string-keyed dicts and sets iterate, and collide,
    the same way every run) and make ``repro`` and ``perfbench`` importable
    whatever directory or ``PYTHONPATH`` the script was started with."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    # as a script, sys.path[0] is this directory, where trace.py would
    # shadow the standard library's module of the same name
    sys.path[:] = [entry for entry in sys.path if Path(entry or ".").resolve() != HERE]
    for entry in (str(ROOT / "src"), str(ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)


if __name__ == "__main__":
    _bootstrap()

from perfbench.metrics import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    WORKLOAD_END_TO_END,
)


def environment(seed: int) -> Dict[str, object]:
    """Where and on what the numbers were taken."""
    versions = {}
    for module in ("numpy", "scipy"):
        try:
            versions[module] = __import__(module).__version__
        except ImportError:
            versions[module] = None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        **versions,
        "git_commit": _git_commit(),
        "seed": seed,
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
        "load_average_1m": os.getloadavg()[0],
    }


def _git_commit() -> Optional[str]:
    """HEAD's commit id, read from ``.git`` without starting a process."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def round_seed(seed: int, index: int) -> int:
    """The sub-seed round ``index`` of a run generates its city-day from.

    A day's work differs from seed to seed (4-16% standard deviation of a
    day's insertion count, depending on the workload), so a run reports
    medians over several independent days instead of one day measured
    several times; seeds never share a day.
    """
    return seed * 1000 + index


def expected_digests(workload: str, seed: int, smoke: bool) -> List[str]:
    """``expected.json``'s digests of the first rounds of ``seed`` ([] if the
    seed is not pinned)."""
    table = json.loads((HERE / "expected.json").read_text())
    return table["smoke" if smoke else "full"].get(str(seed), {}).get(workload, [])


def measure(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool = False,
    rounds: Optional[int] = None,
) -> Dict[str, object]:
    """Replay rounds of ``workload_name`` until the next would not fit in
    ``seconds`` (or exactly ``rounds`` of them); returns the result document
    (metrics, checks, environment)."""
    from repro.service.ingest import percentiles

    from perfbench.harness import layer_metrics, run_round
    from perfbench.workloads import WORKLOADS, generate

    started = time.perf_counter()
    env = environment(seed)
    workload = WORKLOADS[workload_name]
    scratch = OUT / f"tmp-{os.getpid()}"
    untraced: List = []
    traced: List = []
    generate_s: List[float] = []
    while True:
        inputs = generate(workload, round_seed(seed, len(untraced)), smoke)
        generate_s.append(inputs.generate_s)
        untraced.append(run_round(inputs, scratch, traced=False))
        next_wall = untraced[-1].wall_s
        if trace:
            if traced:
                traced[-1].tracer = None  # keep only the newest round's spans
            traced.append(run_round(inputs, scratch, traced=True))
            next_wall += traced[-1].wall_s
        if rounds is not None:
            if len(untraced) >= rounds:
                break
        elif time.perf_counter() - started + next_wall > seconds:
            break

    failures = [
        f"round {index}{' (traced)' if result.traced else ''}: {text}"
        for group in (untraced, traced)
        for index, result in enumerate(group)
        for text in result.failures
    ]
    for index, (plain, spanned) in enumerate(zip(untraced, traced)):
        if spanned.digest != plain.digest:
            failures.append(f"round {index}: traced and untraced outcome digests differ")
        drifted = sorted(
            name for name in plain.counts if spanned.counts.get(name) != plain.counts[name]
        )
        if drifted:
            failures.append(f"round {index}: traced and untraced counts differ: {drifted}")
    digests = [result.digest for result in untraced]
    for index, (digest, expected) in enumerate(
        zip(digests, expected_digests(workload_name, seed, smoke))
    ):
        if digest != expected:
            failures.append(
                f"round {index}: outcome digest {digest} != expected.json's {expected} "
                f"(seed {seed}, {'smoke' if smoke else 'full'} size)"
            )
    every = untraced + traced
    attempted = sum(r.attempted for r in every)
    failed = sum(r.attempted - r.answered for r in every)

    answer_s = [sample for r in untraced for sample in r.answer_s]
    flush_s = [sample for r in untraced for sample in r.flush_s]
    answer, flush = percentiles(answer_s, (50, 95)), percentiles(flush_s, (50, 90))
    end_to_end = {
        "setup_s": median([r.setup_s for r in untraced]),
        "serve_rps": median([r.answered_timed / r.serve_s for r in untraced]),
        "answer_ms_p50": 1e3 * answer["p50"],
        "flush_ms_p50": 1e3 * flush["p50"],
        "flush_ms_p90": 1e3 * flush["p90"],
        "day_wall_s": median([r.day_wall_s for r in untraced]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "matched_share": sum(r.matched for r in untraced)
        / sum(r.answered for r in untraced),
    }
    document: Dict[str, object] = {
        "workload": workload_name,
        "seed": seed,
        "smoke": smoke,
        "trace": trace,
        "correct": not failures,
        "failures": failures,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "digests": digests,
        # per untraced round: the raw clock reading and what it was divided by
        "raw_day_wall_s": [r.raw_day_wall_s for r in untraced],
        "slowdown": [r.slowdown for r in untraced],
        "environment": {
            **env,
            "rounds": len(untraced),
            "requests_per_round": workload.request_count(smoke),
            "windows": len(flush_s),
            "answer_samples": len(answer_s),
        },
        "end_to_end": end_to_end,
    }
    on_one_workload = {
        "answer_ms_p95": lambda: 1e3 * answer["p95"],
        "recover_s": lambda: median([r.recover_s for r in untraced]),
        "journal_bytes_per_request": lambda: median(
            [r.journal_bytes / r.admitted for r in untraced]
        ),
    }
    document["workload_end_to_end"] = {
        name: on_one_workload[name]()
        for name, _, _, _ in WORKLOAD_END_TO_END.get(workload_name, ())
    }
    if trace:
        per_round = [layer_metrics(r) for r in traced]
        per_layer = {
            name: median([values[name] for values in per_round]) for name in per_round[0]
        }
        per_layer["harness.generate_s"] = median(generate_s)
        per_layer["trace.overhead_ratio"] = median(
            [spanned.day_wall_s / plain.day_wall_s for plain, spanned in zip(untraced, traced)]
        )
        document["per_layer"] = per_layer
        tracer = traced[-1].tracer
        tracer.write(OUT / f"trace-{workload_name}.jsonl")
        if tracer.unresolved:
            document["unresolved_entry_points"] = tracer.unresolved
            print(
                "warning: entry points not found, their spans read zero: "
                + ", ".join(tracer.unresolved),
                file=sys.stderr,
            )
    return document


def print_report(document: Dict[str, object]) -> None:
    """Every metric by name with its unit, then the contract's result line."""
    env = document["environment"]
    print(
        f"{document['workload']}  seed {document['seed']}  {env['rounds']} rounds"
        f"{' (each untraced, then traced)' if document['trace'] else ''} x "
        f"{env['requests_per_round']} requests  ({env['answer_samples']} answers,"
        f" {env['windows']} windows timed)"
    )
    print(
        f"  cpu_count {env['cpu_count']}  python {env['python']}  numpy {env['numpy']}"
        f"  scipy {env['scipy']}  commit {env['git_commit']}  load {env['load_average_1m']:.2f}"
    )
    print(f"  failed_share {document['failed_share']:.4f}  digests "
          + " ".join(digest[:12] for digest in document["digests"]))
    units = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}
    for name, unit, _, _ in WORKLOAD_END_TO_END.get(document["workload"], ()):
        units[name] = unit
    sections = [("end_to_end", document["end_to_end"])]
    if document["workload_end_to_end"]:
        sections.append(("end_to_end (this workload only)", document["workload_end_to_end"]))
    if "per_layer" in document:
        sections.append(("per_layer", document["per_layer"]))
    for title, values in sections:
        print(f"  {title}:")
        for name, value in values.items():
            text = f"{value:.6g}" if isinstance(value, float) else str(value)
            print(f"    {name:<32} {text:>14} {units[name]}")
    for failure in document["failures"]:
        print(f"  CHECK FAILED [{document['workload']}]: {failure}")
    section = "per_layer" if document["trace"] else "end_to_end"
    print(
        json.dumps(
            {
                "correct": document["correct"],
                "attempted": document["attempted"],
                "failed": document["failed"],
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in document[section].items()
                },
            }
        )
    )


def main(argv: Optional[List[str]] = None) -> int:
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--rounds", type=int,
                        help="replay exactly this many rounds instead of filling --seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="quarter-size days (the self-tests' mode)")
    parser.add_argument("--detail", type=Path,
                        help="also write the full result document to this file")
    args = parser.parse_args(argv)
    document = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, args.rounds
    )
    if args.detail is not None:
        args.detail.parent.mkdir(parents=True, exist_ok=True)
        args.detail.write_text(json.dumps(document, indent=1) + "\n")
    print_report(document)
    return 0 if document["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
