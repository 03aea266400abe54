"""E10 -- index ablation: grid granularity and lower-bound pruning (Section 3.2).

The paper's design bets on two index structures: the grid over the road
network (with cell-pair lower bounds) and the kinetic tree over vehicles.
This ablation quantifies the first bet:

* sweep the grid granularity and measure verification work and index build
  time -- too coarse a grid prunes nothing, too fine a grid costs more to
  build while pruning little extra.  What the grid buys is the *order* taxis
  are looked at in (nearest cells first, so the skyline is strong before most
  taxis are probed), the early stop of that expansion and the bounds on legs
  that do not touch the request's start.  The per-vehicle pick-up bound is
  not its job: that is the exact distance out of the request's start tree,
  whatever the granularity (a 1x1 grid, which orders nothing, still verifies
  only ~29 of 50 taxis a request on that bound alone).
  ``vehicles_considered`` and ``cells_visited`` are recorded beside
  ``vehicles_evaluated`` so the two effects can be told apart;
* take the index away altogether (the naive matcher, which verifies a
  vehicle exactly as the searches do and differs from them by screening
  alone) and count the verifications the index spares at identical options.
"""

from __future__ import annotations

import time

import pytest

from repro.core.config import SystemConfig
from repro.roadnet.grid_index import GridIndex

from common import (
    DEFAULT_CONFIG,
    build_city,
    format_table,
    matcher_work,
    option_points,
    probe_requests,
    record_result,
    warm_up_fleet,
)


def work_for_granularity(cells_per_side: int, seed: int = 83):
    city = build_city(
        rows=14, columns=14, vehicles=50,
        grid_rows=cells_per_side, grid_columns=cells_per_side, seed=seed,
    )
    warm_up_fleet(city, requests=15, seed=seed)
    matcher = city.matcher("single_side")
    requests = probe_requests(city, count=15, seed=seed + 1)
    started = time.perf_counter()
    for request in requests:
        matcher.match(request)
    record_result(
        "E10", time.perf_counter() - started, city.routing_backend,
        phase=f"match_{cells_per_side}x{cells_per_side}", **matcher_work(matcher),
    )
    return matcher.statistics.vehicles_evaluated / len(requests)


@pytest.mark.parametrize("cells_per_side", [2, 7])
def test_e10_grid_granularity(benchmark, cells_per_side):
    work = benchmark.pedantic(lambda: work_for_granularity(cells_per_side), rounds=1, iterations=1)
    benchmark.extra_info["cells_per_side"] = cells_per_side
    benchmark.extra_info["verified_per_request"] = round(work, 2)


def test_e10_finer_grids_prune_more():
    series = [(side, work_for_granularity(side)) for side in (1, 4, 8)]
    work = [w for _, w in series]
    # a 1x1 grid cannot prune anything beyond per-vehicle bounds; finer grids only help
    assert work[-1] <= work[0]
    rows = [(f"{side}x{side}", f"{w:.1f}") for side, w in series]
    print("\nE10 -- vehicles verified per request vs grid granularity (50 vehicles)\n"
          + format_table(("grid", "verified per request"), rows))


def test_e10_index_build_cost_grows_with_granularity():
    city = build_city(rows=14, columns=14, vehicles=1, seed=83)
    timings = []
    for side in (2, 6, 12):
        started = time.perf_counter()
        index = GridIndex(city.network, rows=side, columns=side, precompute=True)
        elapsed = time.perf_counter() - started
        timings.append((side, elapsed, index.summary()["border_vertices"]))
        record_result("E10", elapsed, phase=f"index_build_{side}x{side}")
    # build cost and border-vertex count increase with granularity
    assert timings[-1][1] >= timings[0][1] * 0.5  # noisy, but must not collapse
    assert timings[-1][2] >= timings[0][2]
    rows = [(f"{side}x{side}", f"{seconds * 1000:.1f}", int(borders)) for side, seconds, borders in timings]
    print("\nE10 -- index build time vs granularity\n"
          + format_table(("grid", "build time [ms]", "border vertices"), rows))


def test_e10_index_spares_verifications_at_identical_options():
    """What the index buys: the options of the naive matcher for fewer verified vehicles."""
    config = DEFAULT_CONFIG.with_updates(service_constraint=0.3)
    city = build_city(rows=14, columns=14, vehicles=50, grid_rows=7, grid_columns=7, seed=89,
                      config=config)
    warm_up_fleet(city, requests=18, seed=89)
    requests = probe_requests(city, count=20, seed=90)

    indexed, exhaustive = city.matcher("single_side"), city.matcher("naive")
    for request in requests:
        assert option_points(indexed.match(request)) == option_points(exhaustive.match(request))
    verified = indexed.statistics.vehicles_evaluated
    everything = exhaustive.statistics.vehicles_evaluated
    assert verified < everything
    print(
        f"\nE10 -- with the index {verified} of {everything} vehicle verifications "
        f"({indexed.statistics.insertion.candidates_enumerated} of "
        f"{exhaustive.statistics.insertion.candidates_enumerated} candidate schedules) "
        f"for identical options"
    )
