"""Evening rush hour: replay a Shanghai-like demand peak against a small fleet.

The paper's motivating scenario is a couple at the seaside after dinner: few
vehicles are nearby, so getting picked up quickly costs extra, while waiting
longer is cheaper.  This example reproduces that situation statistically: a
synthetic evening peak (17:00--20:00) is replayed against a deliberately
undersized fleet, and the script reports

* the website-panel statistics (response time, match rate, sharing rate),
* the distribution of skyline sizes (how often riders actually get a choice),
* a concrete "wait longer, pay less" example pulled from the run.

Run with::

    python examples/evening_rush.py
"""

from __future__ import annotations

import random

from repro.core.config import SystemConfig
from repro.core.dispatcher import Dispatcher, OptionPolicy
from repro.core.single_side import SingleSideSearchMatcher
from repro.roadnet.generators import grid_network
from repro.roadnet.grid_index import GridIndex
from repro.roadnet.routing import make_engine
from repro.sim.engine import SimulationEngine
from repro.sim.trips import ShanghaiLikeTripGenerator
from repro.sim.workload import RequestWorkload
from repro.vehicles.fleet import Fleet
from repro.vehicles.vehicle import Vehicle

SEED = 7
FLEET_SIZE = 14
TRIPS = 160
PEAK_DURATION = 400.0  # simulated time units covering the evening peak


def build_world():
    network = grid_network(14, 14, weight_jitter=0.3, seed=SEED)
    grid = GridIndex(network, rows=7, columns=7)
    fleet = Fleet(grid, make_engine(network))
    rng = random.Random(SEED)
    for index in range(FLEET_SIZE):
        fleet.add_vehicle(Vehicle(f"taxi-{index + 1}", location=rng.choice(network.vertices())))
    config = SystemConfig(max_waiting=10.0, service_constraint=0.8, max_pickup_distance=18.0)
    matcher = SingleSideSearchMatcher(fleet, config=config)
    dispatcher = Dispatcher(fleet, matcher, config)
    return network, dispatcher, config


def main() -> None:
    network, dispatcher, config = build_world()

    # Concentrated evening demand: strong hot-spot bias, everything within the peak window.
    generator = ShanghaiLikeTripGenerator(network, seed=SEED, hotspot_bias=0.85)
    trips = generator.generate(TRIPS, day_seconds=PEAK_DURATION)
    workload = RequestWorkload.from_trips(trips, config.max_waiting, config.service_constraint)

    engine = SimulationEngine(
        dispatcher, workload, speed=1.0, tick=1.0, seed=SEED, policy=OptionPolicy.BALANCED
    )
    report = engine.run(until=PEAK_DURATION + 300.0)
    stats = report.statistics

    print(f"Evening rush: {TRIPS} requests, {FLEET_SIZE} taxis, {PEAK_DURATION:.0f} time units")
    print(f"  match rate            : {stats.match_rate:.2f}")
    print(f"  completed trips       : {stats.completed_requests}")
    print(f"  sharing rate          : {stats.sharing_rate:.2f}")
    print(f"  average detour ratio  : {stats.average_detour_ratio:.3f}")
    print(f"  average response time : {stats.average_response_time * 1000:.2f} ms")
    print(f"  average options/req   : {stats.average_option_count:.2f}")

    sizes = sorted(set(stats.option_counts))
    print("\nSkyline sizes offered to riders:")
    for size in sizes:
        count = sum(1 for value in stats.option_counts if value == size)
        print(f"  {size:>2} option(s): {count:>4} requests")

    # Pull one concrete price/time trade-off from a fresh probe on the ending state.
    matcher = dispatcher.matcher
    rng = random.Random(SEED + 1)
    for _ in range(200):
        start, destination = rng.sample(network.vertices(), 2)
        from repro.model.request import Request

        probe = Request(start=start, destination=destination, riders=2,
                        max_waiting=config.max_waiting, service_constraint=config.service_constraint)
        options = matcher.match(probe)
        if len(options) >= 2:
            print("\nA concrete trade-off (the seaside-couple situation):")
            for option in options:
                print(
                    f"  vehicle {option.vehicle_id:>8}: pick-up in {option.pickup_distance:6.2f}"
                    f" distance units, price {option.price:6.2f}"
                )
            fastest = min(options, key=lambda o: o.pickup_distance)
            cheapest = min(options, key=lambda o: o.price)
            saving = (fastest.price - cheapest.price) / fastest.price * 100.0
            extra_wait = cheapest.pickup_distance - fastest.pickup_distance
            print(
                f"  -> waiting {extra_wait:.2f} longer saves {saving:.0f}% of the fare"
            )
            break
    else:
        print("\n(no multi-option probe found on the final state)")


if __name__ == "__main__":
    main()
