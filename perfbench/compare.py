"""Compare two result files: ``python -m perfbench.compare A.json B.json``.

``A`` is the base (the parent commit, or the earlier set of runs), ``B`` the
candidate; both are ``python -m perfbench --out`` files.  Per workload and
end-to-end metric it prints both medians, the ratio B/A, the regression bound
and a verdict:

``ok``          B's median is not worse than A's by more than the bound;
``worse``       it is;
``unresolved``  it is not, but the run-to-run spread of either side is wider
                than the bound, so "unchanged" would be a guess -- unless
                every run of B reads better than every run of A.

Outcome digests must be equal (a speed comparison at different answers
compares nothing); count-type layer metrics are listed when they differ.
Exits non-zero on any ``worse`` or on differing outcomes.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

from perfbench.metrics import TIMED_PER_LAYER, WORKLOAD_END_TO_END

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def bounds_for(workload: str) -> Dict[str, Tuple[str, float]]:
    """``{metric: (better, bound)}`` of every end-to-end metric of ``workload``."""
    declared = json.loads(BENCHMARK.read_text())["end_to_end"]
    table = {entry["name"]: (entry["better"], entry["bound"]) for entry in declared}
    for name, _, better, bound in WORKLOAD_END_TO_END.get(workload, ()):
        table[name] = (better, bound)
    return table


def verdict(base: Dict, candidate: Dict, better: str, bound: float) -> str:
    change = (candidate["median"] - base["median"]) / base["median"]
    if (change if better == "lower" else -change) > bound:
        return "worse"
    if better == "lower":
        dominates = max(candidate["values"]) < min(base["values"])
    else:
        dominates = min(candidate["values"]) > max(base["values"])
    if dominates:
        return "ok"  # every candidate run beats every base run
    if max(_spread(base["values"]), _spread(candidate["values"])) > bound:
        return "unresolved"
    return "ok"


def _spread(values: List[float]) -> float:
    """Distance between the quartiles as a share of the median (the benchmark
    contract's steadiness measure); with fewer than four runs, the full range."""
    if len(values) >= 4:
        first, _, third = statistics.quantiles(values, n=4)
    else:
        first, third = min(values), max(values)
    middle = statistics.median(values)
    return (third - first) / middle if middle else 0.0


def compare(base: Dict, candidate: Dict) -> int:
    """Print the comparison; returns the process exit code."""
    bad = 0
    for name, ours in base["workloads"].items():
        theirs = candidate["workloads"].get(name)
        if theirs is None:
            print(f"{name}: missing from the candidate file")
            continue
        print(f"{name}  ({len(next(iter(ours['end_to_end'].values()))['values'])} vs "
              f"{len(next(iter(theirs['end_to_end'].values()))['values'])} runs)")
        if ours["digests"] != theirs["digests"]:
            print("  OUTCOMES DIFFER: the digests are not equal; timings are not comparable")
            bad += 1
        if ours["failed_share"] != theirs["failed_share"]:
            print(f"  failed_share {ours['failed_share']} -> {theirs['failed_share']}")
        for metric, (better, bound) in bounds_for(name).items():
            a, b = ours["end_to_end"][metric], theirs["end_to_end"][metric]
            result = verdict(a, b, better, bound)
            bad += result == "worse"
            print(f"  {metric:<28} {a['median']:>12.6g} -> {b['median']:>12.6g} {a['unit']:<6}"
                  f" x{b['median'] / a['median']:.3f} of base  ({better} is better,"
                  f" bound {bound:.0%})  {result}")
        differing = [
            metric
            for metric, a in ours["per_layer"].items()
            if metric not in TIMED_PER_LAYER
            and metric in theirs["per_layer"]
            and a["median"] != theirs["per_layer"][metric]["median"]
        ]
        if ours["per_layer"] and theirs["per_layer"]:
            print("  count-type layer metrics: "
                  + ("identical" if not differing else "differ: " + ", ".join(differing)))
    return 1 if bad else 0


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    base, candidate = (json.loads(Path(path).read_text()) for path in sys.argv[1:])
    return compare(base, candidate)


if __name__ == "__main__":
    sys.exit(main())
