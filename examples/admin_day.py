"""An operator's day on the website interface (Section 4.2 of the paper).

The smartphone flow books rides; the website is where the operator watches
and steers the service.  This example drives every admin call through one
durable day:

1. riders book from their phones; one walks away without choosing
   (``cancel`` of an open booking);
2. trips stream in through the micro-batched ingest path; one rider cancels
   before the window flushes (``cancel`` of a pending admission);
3. the operator retunes the service mid-day: another matcher, a tighter
   waiting time and the landmark-bounded routing backend
   (``set_parameters``);
4. finished trips age out of live state (``retention_horizon``);
5. the operator takes a snapshot, and the service shuts down with a window
   still pending (``close`` drains it);
6. ``recover`` rebuilds the service from its journal and lands on the same
   state.

Run with::

    python examples/admin_day.py
"""

from __future__ import annotations

import tempfile

from repro import PTRiderService, Request, build_system

#: panel counters that read no wall clock, so a recovered service must match
STATE_KEYS = ("requests", "matched", "unmatched", "pickups", "dropoffs", "completed")
INGEST_KEYS = ("ingest_admitted", "ingest_cancelled", "ingest_retired", "ingest_close_drained")


def trip(system: PTRiderService, start: int, destination: int, request_id: str) -> Request:
    """A one-rider trip under the service's current global constraints."""
    config = system.config
    return Request(
        start=start,
        destination=destination,
        riders=1,
        max_waiting=config.max_waiting,
        service_constraint=config.service_constraint,
        request_id=request_id,
        submit_time=system.current_time,
    )


def panel(system: PTRiderService) -> dict:
    stats, routing = system.statistics(), system.routing_statistics()
    return {**{key: stats[key] for key in STATE_KEYS}, **{key: routing[key] for key in INGEST_KEYS}}


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="ptrider-admin-day-") as journal:
        system = build_system(
            network_rows=10, network_columns=10, vehicles=12, seed=11,
            durability="journal+snapshot", journal_path=journal,
            batch_window=2.0, retention_horizon=5.0,
        )
        vertices = system.fleet.grid.network.vertices()
        print(f"Service up: {len(system.vehicle_ids())} taxis, matcher {system.config.matcher_name}, "
              f"max waiting {system.config.max_waiting}")

        # --- 1. phone bookings, one rider walks away -------------------------
        for index, (start, destination) in enumerate([(3, 88), (41, 7), (60, 95), (12, 70)]):
            booking = system.book(vertices[start], vertices[destination])
            if index == 1 or not booking.options:
                system.cancel(booking.booking_id)
                print(f"  booking {booking.booking_id}: {len(booking.options)} option(s), cancelled")
            else:
                chosen = system.choose(booking.booking_id, 0)
                print(f"  booking {booking.booking_id}: {len(booking.options)} option(s), "
                      f"rides with {chosen.vehicle_id}")
        system.advance(1.0)

        # --- 2. streamed trips, one cancelled while its window is open -------
        for index, (start, destination) in enumerate([(22, 77), (90, 15), (33, 66)]):
            system.ingest_request(trip(system, vertices[start], vertices[destination], f"stream-{index}"))
        system.cancel("stream-1")
        system.advance(2.0)
        answered = system.pump()
        print(f"Ingest window flushed: {len(answered)} trip(s) answered, "
              f"{system.routing_statistics()['ingest_cancelled']:.0f} cancelled before the flush")

        # --- 3. the operator retunes the service -----------------------------
        config = system.set_parameters(
            matcher_name="dual_side", max_waiting=4.0, routing_backend="csr+alt"
        )
        print(f"Retuned: matcher {config.matcher_name}, max waiting {config.max_waiting}, "
              f"routing {config.routing_backend}")
        booking = system.book(vertices[5], vertices[50])
        if booking.options:
            system.choose(booking.booking_id, 0)
        print(f"  booking {booking.booking_id} under the new settings: "
              f"{len(booking.options)} option(s)")

        # --- 4. finished trips age out of live state -------------------------
        system.advance(60.0)
        day = panel(system)
        print(f"After 60 time units: {day['completed']:.0f} trip(s) completed, "
              f"{day['ingest_retired']:.0f} booking(s) retired from live state")

        # --- 5. admin snapshot, then a shutdown with a window pending --------
        snapshot = system.snapshot()
        print(f"Snapshot written: {snapshot.name}")
        system.ingest_request(trip(system, vertices[8], vertices[80], "late-0"))
        system.close()
        before = panel(system)
        print(f"Closed: {before['ingest_close_drained']:.0f} pending admission(s) drained on shutdown")

        # --- 6. recovery lands on the same state -----------------------------
        recovered = PTRiderService.recover(journal)
        after = panel(recovered)
        same_schedules = all(
            recovered.vehicle_schedules(vid) == system.vehicle_schedules(vid)
            for vid in system.vehicle_ids()
        )
        print(f"Recovered at t={recovered.current_time:.1f}: panel "
              f"{'identical' if after == before else 'DIFFERENT'}, "
              f"schedules {'identical' if same_schedules else 'DIFFERENT'}")
        for key in STATE_KEYS + INGEST_KEYS:
            print(f"  {key:<22} {after[key]:6.0f}")
        recovered.close()
        if after != before or not same_schedules:
            raise SystemExit("recovery diverged from the live service")


if __name__ == "__main__":
    main()
