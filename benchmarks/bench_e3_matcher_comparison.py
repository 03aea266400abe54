"""E3 -- single-side and dual-side search vs. the naive kinetic-tree matcher.

Paper claim (Section 3.3): the naive method "can be improved in two ways" --
filtering unqualified vehicles in advance and reducing shortest-path
computations -- which is exactly what the single-side and dual-side searches
do.  The benchmark answers the same probe requests with all three matchers on
an identical fleet snapshot and compares (a) matching latency and (b) the
number of vehicles fully verified; the result sets are asserted equal, so the
speed-up is not bought with missing options.  Each matcher's pass is recorded
(``BENCH_results.json``, phase = matcher name) with the vehicles it
considered, the cells it visited and the options it got per verified vehicle
beside the verification count.
"""

from __future__ import annotations

import time

import pytest

from common import (
    build_city,
    format_table,
    matcher_work,
    option_points,
    probe_requests,
    record_result,
    warm_up_fleet,
)


def build_busy_city(vehicles: int = 60, seed: int = 23):
    city = build_city(rows=14, columns=14, vehicles=vehicles, grid_rows=7, grid_columns=7, seed=seed)
    warm_up_fleet(city, requests=18, seed=seed)
    return city


@pytest.mark.parametrize("matcher_name", ["naive", "single_side", "dual_side"])
def test_e3_matching_latency(benchmark, matcher_name):
    city = build_busy_city()
    matcher = city.matcher(matcher_name)
    requests = probe_requests(city, count=20, seed=41)

    def answer_all():
        return [matcher.match(request) for request in requests]

    results = benchmark(answer_all)
    stats = matcher.statistics
    benchmark.extra_info["vehicles_evaluated_per_request"] = round(
        stats.vehicles_evaluated / max(1, stats.requests_answered), 2
    )
    benchmark.extra_info["vehicles_pruned_per_request"] = round(
        stats.vehicles_pruned / max(1, stats.requests_answered), 2
    )
    benchmark.extra_info["options_per_request"] = round(
        sum(len(options) for options in results) / len(results), 2
    )


def test_e3_equivalence_and_work_reduction():
    city = build_busy_city()
    requests = probe_requests(city, count=25, seed=43)
    matchers = {name: city.matcher(name) for name in ("naive", "single_side", "dual_side")}

    walls = dict.fromkeys(matchers, 0.0)
    for request in requests:
        answers = {}
        for name, matcher in matchers.items():
            started = time.perf_counter()
            options = matcher.match(request)
            walls[name] += time.perf_counter() - started
            answers[name] = option_points(options)
        assert answers["single_side"] == answers["naive"]
        assert answers["dual_side"] == answers["naive"]
    for name, matcher in matchers.items():
        record_result(
            "E3", walls[name], city.routing_backend, phase=name, **matcher_work(matcher)
        )

    naive_work = matchers["naive"].statistics.vehicles_evaluated
    single_work = matchers["single_side"].statistics.vehicles_evaluated
    dual_work = matchers["dual_side"].statistics.vehicles_evaluated
    # The paper's ordering: dual-side <= single-side << naive.
    assert single_work < naive_work
    assert dual_work <= single_work

    rows = [
        (
            name,
            matcher.statistics.vehicles_considered,
            matcher.statistics.vehicles_evaluated,
            matcher.statistics.vehicles_pruned,
            matcher.statistics.cells_visited,
            matcher_work(matcher)["options_per_evaluated_vehicle"],
        )
        for name, matcher in matchers.items()
    ]
    print("\nE3 -- verification work per matcher (25 requests, 60 vehicles)\n"
          + format_table(
              ("matcher", "considered", "verified", "pruned", "cells", "options/verified"), rows
          ))
