"""Run the whole benchmark: ``PYTHONPATH=src python -m perfbench``.

Each workload runs in a fresh child process (``perfbench/run.py``: one
thread, ``PYTHONHASHSEED=0``), one at a time, for a fixed number of rounds so
that every count repeats exactly from run to run; by default each workload
then runs again with tracing on for the per-layer numbers.  End-to-end
metrics always come from the untraced run.  ``--repeats K`` interleaves K
runs per workload (A B C D A B ...) and reports median, min and max.
Exits non-zero, naming the workload and the check, when any output check
fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from statistics import median
from pathlib import Path
from typing import Dict, List

from perfbench.metrics import END_TO_END, PER_LAYER, WORKLOAD_END_TO_END
from perfbench.run import HERE, OUT, environment
from perfbench.workloads import WORKLOADS

#: rounds per run: fixed, so medians over rounds are medians over the same days
ROUNDS = 6
#: rounds per seed and size whose digests ``expected.json`` pins
EXPECTED_ROUNDS = 12
#: the seeds ``expected.json`` pins
EXPECTED_SEEDS = (1, 2)


def run_child(workload: str, seed: int, rounds: int, smoke: bool, trace: bool) -> Dict:
    """One ``run.py`` child; prints its report, returns its result document."""
    detail = OUT / f"detail-{workload}-{int(trace)}.json"
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--rounds", str(rounds), "--trace", str(int(trace)),
        "--detail", str(detail),
    ] + (["--smoke"] if smoke else [])
    finished = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = finished.stdout.splitlines()
    print("\n".join(lines[:-1]))  # all but the contract's JSON line
    if not detail.exists():
        raise SystemExit(f"{workload}: run.py exited {finished.returncode} without a result")
    document = json.loads(detail.read_text())
    detail.unlink()
    return document


def update_expected() -> int:
    """Rewrite ``expected.json`` from what the program answers now."""
    table: Dict[str, Dict[str, Dict[str, List[str]]]] = {}
    for size, smoke in (("full", False), ("smoke", True)):
        for seed in EXPECTED_SEEDS:
            for name in WORKLOADS:
                document = run_child(name, seed, EXPECTED_ROUNDS, smoke, trace=False)
                if not document["correct"]:
                    raise SystemExit(f"{name}: {document['failures']}")
                table.setdefault(size, {}).setdefault(str(seed), {})[name] = document["digests"]
    (HERE / "expected.json").write_text(json.dumps(table, indent=1) + "\n")
    return 0


def summarise(values: List[float], unit: str) -> Dict[str, object]:
    return {
        "median": median(values), "min": min(values), "max": max(values),
        "values": values, "unit": unit,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="run only this workload (repeatable; default: all four)")
    parser.add_argument("--no-trace", action="store_true",
                        help="skip the traced runs (no per-layer metrics)")
    parser.add_argument("--smoke", action="store_true",
                        help="quarter-size days, one round (the self-tests' mode)")
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--out", type=Path, help="write the results to this JSON file")
    parser.add_argument("--update-expected", action="store_true",
                        help="rewrite expected.json from the current answers and exit "
                             "(benchmark-only changes; never alongside a claimed gain)")
    args = parser.parse_args()
    if args.update_expected:
        return update_expected()
    names = args.workload or list(WORKLOADS)
    rounds = 1 if args.smoke else ROUNDS
    env = environment(args.seed)  # the load average is the one at the start

    runs: Dict[str, List[Dict]] = {name: [] for name in names}
    traced: Dict[str, List[Dict]] = {name: [] for name in names}
    for _ in range(args.repeats):
        for name in names:
            runs[name].append(run_child(name, args.seed, rounds, args.smoke, trace=False))
        if not args.no_trace:
            for name in names:
                traced[name].append(run_child(name, args.seed, rounds, args.smoke, trace=True))

    failures: List[str] = []
    units = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}
    results: Dict[str, object] = {}
    for name in names:
        for document in runs[name] + traced[name]:
            failures += [f"{name}: {text}" for text in document["failures"]]
            if document["digests"] != runs[name][0]["digests"]:
                failures.append(f"{name}: outcome digests differ between runs")
        end_to_end = {
            metric: summarise([run["end_to_end"][metric] for run in runs[name]], unit)
            for metric, unit, _ in END_TO_END
        }
        for metric, unit, _, _ in WORKLOAD_END_TO_END.get(name, ()):
            end_to_end[metric] = summarise(
                [run["workload_end_to_end"][metric] for run in runs[name]], unit
            )
        results[name] = {
            "why": WORKLOADS[name].why,
            "digests": runs[name][0]["digests"],
            "failed_share": max(run["failed_share"] for run in runs[name]),
            "rounds": rounds,
            "requests_per_round": runs[name][0]["environment"]["requests_per_round"],
            "windows": runs[name][0]["environment"]["windows"],
            "answer_samples": runs[name][0]["environment"]["answer_samples"],
            "end_to_end": end_to_end,
            "per_layer": {
                metric: summarise([run["per_layer"][metric] for run in traced[name]], units[metric])
                for metric in (traced[name][0]["per_layer"] if traced[name] else ())
            },
        }
    if {"commute_book", "commute_batched"} <= set(names) and (
        results["commute_book"]["digests"] != results["commute_batched"]["digests"]
    ):
        failures.append("commute_book and commute_batched answered differently (digests differ)")

    print(f"\nperfbench summary  seed {args.seed}  {args.repeats} run(s) per workload"
          f"  {rounds} round(s) per run{'  SMOKE' if args.smoke else ''}")
    for name in names:
        print(f"  {name}")
        for metric, summary in results[name]["end_to_end"].items():
            print(f"    {metric:<28} {summary['median']:>12.6g} {summary['unit']:<6}"
                  f" (min {summary['min']:.6g}, max {summary['max']:.6g})")
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({
            # this process's, but for the hash seed every child pinned for itself
            "environment": {
                **env,
                "PYTHONHASHSEED": runs[names[0]][0]["environment"]["PYTHONHASHSEED"],
            },
            "smoke": args.smoke,
            "repeats": args.repeats,
            "failures": failures,
            "workloads": results,
        }, indent=1) + "\n")
    for failure in failures:
        print(f"CHECK FAILED {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
