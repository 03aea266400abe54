"""E8 -- scalability with the number of taxis (admin panel, Fig. 4(c)).

The demo exposes the fleet size as an administrator knob; the underlying
research claim is that the indexed matchers stay fast as the fleet grows
because the grid prunes most vehicles, whereas the naive matcher's work grows
linearly with the fleet.  The benchmark sweeps the fleet size and compares the
average number of vehicles each matcher verifies per request.
"""

from __future__ import annotations

import time

import pytest

from common import build_city, format_table, probe_requests, record_result, warm_up_fleet


def verification_work(matcher_name: str, vehicles: int, seed: int = 61):
    city = build_city(
        rows=14, columns=14, vehicles=vehicles, grid_rows=7, grid_columns=7, seed=seed
    )
    warm_up_fleet(city, requests=max(6, vehicles // 6), seed=seed)
    matcher = city.matcher(matcher_name)
    requests = probe_requests(city, count=15, seed=seed + 1)
    for request in requests:
        matcher.match(request)
    stats = matcher.statistics
    return stats.vehicles_evaluated / len(requests)


@pytest.mark.parametrize("matcher_name", ["naive", "single_side", "dual_side"])
@pytest.mark.parametrize("vehicles", [30, 90])
def test_e8_work_per_request(benchmark, matcher_name, vehicles):
    started = time.perf_counter()
    work = benchmark.pedantic(
        lambda: verification_work(matcher_name, vehicles), rounds=1, iterations=1
    )
    wall = time.perf_counter() - started
    benchmark.extra_info["vehicles"] = vehicles
    benchmark.extra_info["verified_per_request"] = round(work, 2)
    record_result(
        "E8", wall, vehicles_evaluated=round(work, 2), matcher=matcher_name, vehicles=vehicles
    )


def test_e8_indexed_matchers_scale_sublinearly():
    sizes = (30, 60, 120)
    table = {}
    for matcher_name in ("naive", "single_side", "dual_side"):
        table[matcher_name] = [verification_work(matcher_name, size) for size in sizes]

    # the naive matcher verifies every vehicle: work is (essentially) the fleet size
    for size, work in zip(sizes, table["naive"]):
        assert work == pytest.approx(size, rel=0.01)
    # the indexed matchers verify a small fraction of a large fleet
    assert table["single_side"][-1] < 0.6 * table["naive"][-1]
    assert table["dual_side"][-1] <= table["single_side"][-1]
    # growth factor from the smallest to the largest fleet is much smaller than naive's
    naive_growth = table["naive"][-1] / table["naive"][0]
    single_growth = table["single_side"][-1] / max(table["single_side"][0], 1e-9)
    assert single_growth < naive_growth

    rows = [
        (matcher, *(f"{value:.1f}" for value in values)) for matcher, values in table.items()
    ]
    print("\nE8 -- vehicles verified per request vs fleet size\n"
          + format_table(("matcher", *(f"{size} taxis" for size in sizes)), rows))
