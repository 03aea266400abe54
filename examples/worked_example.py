"""The worked example of Section 2 (Figure 1 of the paper), served end to end.

Two taxis stand on the paper's 17-vertex road network: ``c1`` at vertex 1
and ``c2`` at vertex 13.  Rider R1 books 2 -> 16 and takes ``c1``; then
rider R2 books 12 -> 17, and the paper lists exactly two non-dominated
options for R2:

* ``<c1, 14, 4>`` -- the shared taxi: a later pick-up, a lower price;
* ``<c2, 8, 8.8>`` -- the empty taxi: an earlier pick-up, a higher price.

The example books both riders through the smartphone flow, checks R2's
options against the paper (it exits non-zero when they differ), lets R2 take
the earlier pick-up and drives the day until both riders are delivered.

The network's weights are whole numbers, so many routes tie exactly.  The
last line shows what that does to routing: a cold distance or route is
walked over the tree already rooted at its other end when every step of the
walk wins clearly, and refused -- answered from its own tree -- on a tie.

Run with::

    python examples/worked_example.py
"""

from __future__ import annotations

from repro import (
    Fleet,
    GridIndex,
    PTRiderService,
    SystemConfig,
    Vehicle,
    figure1_network,
    make_engine,
)

#: R2's options in the paper: vehicle -> (pick-up distance, price)
PAPER_OPTIONS = {"c1": (14.0, 4.0), "c2": (8.0, 8.8)}


def main() -> None:
    network = figure1_network()
    # a tree cache smaller than the network, as a real city's is
    engine = make_engine(network, max_cached_sources=8)
    fleet = Fleet(GridIndex(network, rows=4, columns=4), engine)
    fleet.add_vehicle(Vehicle("c1", location=1, capacity=4))
    fleet.add_vehicle(Vehicle("c2", location=13, capacity=4))
    system = PTRiderService(fleet, config=SystemConfig(max_waiting=5.0, service_constraint=0.2))

    first = system.book(2, 16, riders=2)
    taken = next(i for i, option in enumerate(first.options) if option.vehicle_id == "c1")
    system.choose(first.booking_id, taken)
    print("R1 (2 -> 16, 2 riders) rides with c1")

    second = system.book(12, 17, riders=2)
    print("R2 (12 -> 17, 2 riders) is offered:")
    offered = {}
    for option in second.options:
        offered[option.vehicle_id] = (round(option.pickup_distance, 6), round(option.price, 6))
        print(f"  <{option.vehicle_id}, {option.pickup_distance:g}, {option.price:g}>")
    if offered != PAPER_OPTIONS:
        raise SystemExit(f"expected the paper's options {PAPER_OPTIONS}")
    earliest = min(
        range(len(second.options)), key=lambda i: second.options[i].pickup_distance
    )
    system.choose(second.booking_id, earliest)
    print(f"R2 takes the earlier pick-up, {second.options[earliest].vehicle_id}")

    while system.statistics()["completed"] < 2:
        system.advance(1.0)
    print(f"both riders delivered at t={system.current_time:g}")

    routing = system.routing_statistics()
    print(
        f"routing: {routing['queries']:.0f} queries, {routing['dijkstra_runs']:.0f} trees, "
        f"{routing['walks']:.0f} walks, {routing['walks_refused']:.0f} refused on a tie"
    )


if __name__ == "__main__":
    main()
