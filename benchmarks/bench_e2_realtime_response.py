"""E2 -- real-time response under a high request/update workload (Section 4).

Paper claim: PTRider answers every ridesharing request "in real time" while
17,000 taxis move and a day of 432,327 trips is replayed -- the website panel
shows a low average response time.  At reproduction scale (a pure-Python
substrate, a laptop-sized city) the claim becomes: per-request matching
latency stays in the low milliseconds while the whole simulation (movement,
pick-ups, drop-offs, index updates) runs, and latency does not blow up as the
fleet gets busier during the run.
"""

from __future__ import annotations

import time

import pytest

from common import build_city, format_table, record_result, run_trip_simulation


@pytest.mark.parametrize("matcher_name", ["single_side", "dual_side"])
def test_e2_day_fraction_simulation(benchmark, matcher_name):
    def run():
        city = build_city(rows=12, columns=12, vehicles=40, seed=17)
        return run_trip_simulation(city, trips=120, duration=240.0, matcher_name=matcher_name)

    started = time.perf_counter()
    report = benchmark.pedantic(run, rounds=1, iterations=1)
    wall = time.perf_counter() - started
    stats = report.statistics

    # Real-time at this scale: well under 100 ms per request on any laptop.
    assert stats.average_response_time < 0.1
    assert stats.total_requests == 120
    assert stats.match_rate > 0.5

    benchmark.extra_info["average_response_ms"] = round(stats.average_response_time * 1000.0, 3)
    benchmark.extra_info["p95_response_ms"] = round(
        sorted(stats.response_times)[int(0.95 * (len(stats.response_times) - 1))] * 1000.0, 3
    )
    benchmark.extra_info["match_rate"] = round(stats.match_rate, 3)
    benchmark.extra_info["sharing_rate"] = round(stats.sharing_rate, 3)
    record_result(
        "E2",
        wall,
        vehicles_evaluated=report.matcher_statistics["vehicles_evaluated"],
        matcher=matcher_name,
        average_response_ms=round(stats.average_response_time * 1000.0, 3),
    )


def test_e2_summary_table(capsys):
    """Print the website-panel style summary (run with -s to see it)."""
    rows = []
    for matcher_name in ("single_side", "dual_side", "naive"):
        city = build_city(rows=12, columns=12, vehicles=40, seed=17)
        report = run_trip_simulation(city, trips=80, duration=160.0, matcher_name=matcher_name)
        stats = report.statistics
        rows.append(
            (
                matcher_name,
                f"{stats.average_response_time * 1000:.2f}",
                f"{stats.match_rate:.2f}",
                f"{stats.sharing_rate:.2f}",
                f"{stats.average_option_count:.2f}",
            )
        )
    table = format_table(
        ("matcher", "avg response [ms]", "match rate", "sharing rate", "avg options"), rows
    )
    print("\nE2 -- real-time response (website statistics panel)\n" + table)
    # the optimized matchers must not be slower than the naive baseline
    naive_ms = float(rows[2][1])
    assert float(rows[0][1]) <= naive_ms * 1.5
