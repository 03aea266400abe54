"""A fleet operator's day: run a scaled day of demand and inspect the operation.

This example takes the website-interface perspective (Section 4.2 of the
paper): the operator watches live statistics, inspects individual taxis'
kinetic trees and tunes global parameters.  It runs a scaled-down day of
Shanghai-like demand twice -- once with the default service constraint and
once with a looser one -- and prints the operator-facing comparison.

Run with::

    python examples/fleet_operations_day.py
"""

from __future__ import annotations

import random

from repro.core.config import SystemConfig
from repro.core.dispatcher import Dispatcher, OptionPolicy
from repro.core.dual_side import DualSideSearchMatcher
from repro.roadnet.generators import grid_network
from repro.roadnet.grid_index import GridIndex
from repro.roadnet.routing import make_engine
from repro.sim.engine import SimulationEngine
from repro.sim.trips import ShanghaiLikeTripGenerator
from repro.sim.workload import RequestWorkload
from repro.vehicles.fleet import Fleet
from repro.vehicles.vehicle import Vehicle

SEED = 42
FLEET_SIZE = 25
TRIPS = 260
DAY = 700.0  # compressed "day" in simulation time units


def run_day(service_constraint: float) -> dict:
    network = grid_network(15, 15, weight_jitter=0.3, seed=SEED)
    grid = GridIndex(network, rows=7, columns=7)
    fleet = Fleet(grid, make_engine(network))
    rng = random.Random(SEED)
    for index in range(FLEET_SIZE):
        fleet.add_vehicle(Vehicle(f"taxi-{index + 1}", location=rng.choice(network.vertices())))

    config = SystemConfig(
        max_waiting=10.0, service_constraint=service_constraint, max_pickup_distance=16.0
    )
    dispatcher = Dispatcher(fleet, DualSideSearchMatcher(fleet, config=config), config)
    trips = ShanghaiLikeTripGenerator(network, seed=SEED).generate(TRIPS, day_seconds=DAY)
    workload = RequestWorkload.from_trips(trips, config.max_waiting, config.service_constraint)
    engine = SimulationEngine(dispatcher, workload, speed=1.0, tick=1.0, seed=SEED,
                              policy=OptionPolicy.CHEAPEST)
    report = engine.run(until=DAY + 300.0)
    stats = report.statistics

    occupied = sum(vehicle.occupied_distance for vehicle in fleet.vehicles())
    driven = sum(vehicle.distance_driven for vehicle in fleet.vehicles())
    busiest = max(fleet.vehicles(), key=lambda vehicle: vehicle.occupied_distance)

    return {
        "service_constraint": service_constraint,
        "match_rate": stats.match_rate,
        "completed": stats.completed_requests,
        "sharing_rate": stats.sharing_rate,
        "avg_detour": stats.average_detour_ratio,
        "avg_response_ms": stats.average_response_time * 1000.0,
        "occupied_fraction": occupied / driven if driven else 0.0,
        "busiest_taxi": busiest.vehicle_id,
        "busiest_occupied": busiest.occupied_distance,
        "fleet": fleet,
    }


def main() -> None:
    print(f"Scaled day: {TRIPS} trips, {FLEET_SIZE} taxis, {DAY:.0f} time units\n")
    results = [run_day(0.3), run_day(0.9)]

    header = (
        f"{'eps':>5} {'match rate':>11} {'completed':>10} {'sharing':>8} "
        f"{'avg detour':>11} {'occupied %':>11} {'resp [ms]':>10}"
    )
    print(header)
    print("-" * len(header))
    for result in results:
        print(
            f"{result['service_constraint']:>5.1f} {result['match_rate']:>11.2f} "
            f"{result['completed']:>10d} {result['sharing_rate']:>8.2f} "
            f"{result['avg_detour']:>11.3f} {result['occupied_fraction'] * 100:>10.1f}% "
            f"{result['avg_response_ms']:>10.2f}"
        )

    print(
        "\nLoosening the service constraint lets the matcher pool more riders per taxi:"
        "\nsharing and vehicle utilisation go up while each rider's detour grows a little."
    )

    # Operator drill-down: look at the busiest taxi of the second run.
    result = results[1]
    fleet = result["fleet"]
    busiest = fleet.get(result["busiest_taxi"])
    print(f"\nBusiest taxi of the looser run: {busiest.vehicle_id}")
    print(f"  distance driven while occupied: {busiest.occupied_distance:.1f}")
    print(f"  total distance driven        : {busiest.distance_driven:.1f}")
    print(f"  unfinished requests right now: {busiest.unfinished_request_ids() or 'none'}")
    branches = busiest.kinetic_tree.schedule_count()
    print(f"  kinetic-tree branches        : {branches}")


if __name__ == "__main__":
    main()
