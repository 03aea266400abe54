"""The durable records as the service wrote them before its text writers.

Every record was built as data -- dicts and lists of :func:`encode` output --
and formatted by ``json.dumps(..., separators=(",", ":"))``: the ``admit``,
``book``, ``pump`` and ``drain`` journal rows, the full snapshot and the
incremental delta.  The service now writes the same JSON text straight
from its objects (``repro.service.recovery``'s compiled text plans and the
snapshot chain's request texts); ``tests/service/test_durable_text.py``
holds every row and state file a scripted day writes byte for byte to what
these functions build from the same live state.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Mapping, Optional, Tuple

from repro.service.recovery import STATE_VERSION, durable_fields, encode
from repro.sim.stats import SimulationStatistics
from repro.vehicles.fleet import snapshot_vehicle


def _dumps(value) -> str:
    return json.dumps(value, separators=(",", ":"))


def _serving_row(payload: Dict[str, object], window: Optional[float]) -> str:
    if window is not None:
        payload["window"] = window
    return _dumps(payload)


def admit_row(request, now: float, window: Optional[float] = None) -> str:
    """The ``admit`` record of ``request`` admitted at ``now`` (with the
    adaptive window in force, when there is one)."""
    return _serving_row({"request": encode(request), "now": now}, window)


def hand_back_row(now: float, window: Optional[float] = None, close: bool = False) -> str:
    """The ``pump`` or ``drain`` record at ``now``; ``close`` marks the drain
    ``close()`` journals."""
    return _serving_row({"now": now, "close": True} if close else {"now": now}, window)


def book_row(request) -> str:
    """The ``book`` record of ``request``."""
    return _dumps({"request": encode(request)})


def _meta_small(service, pending_marker: Optional[Tuple[int, int]] = None) -> Dict:
    engine = service._engine
    batcher = service._batcher
    rng_state = engine._rng.getstate()
    entries = batcher.pending_entries()
    appended = (
        pending_marker is not None
        and pending_marker[0] == batcher.pending_epoch
        and pending_marker[1] <= len(entries)
    )
    pending = [
        [encode(request), admitted]
        for request, admitted in entries[pending_marker[1] if appended else 0:]
    ]
    return {
        "version": STATE_VERSION,
        "time": engine._time,
        "ticks": engine._ticks,
        "rng_state": [rng_state[0], list(rng_state[1]), rng_state[2]],
        "booking_next": service._next_booking,
        "ingest_answered": [b.booking_id for b in service._ingest_answered],
        "motions": {vid: encode(motion) for vid, motion in sorted(engine._motions.items())},
        "targets": dict(sorted(engine._targets.items())),
        "assignments": {
            rid: encode(record) for rid, record in sorted(engine._assignments.items())
        },
        "active_requests": dict(sorted(service._dispatcher._active_requests.items())),
        "pending": {"suffix": pending} if appended else pending,
        "window_opened": batcher.window_opened,
        "controller": batcher.controller_state(),
        "config": encode(service._config),
    }


def _statistics_delta(stats, marker: Mapping[str, int]) -> Dict[str, object]:
    payload: Dict[str, object] = {}
    suffix: Dict[str, object] = {}
    for field in durable_fields(type(stats)):
        value = getattr(stats, field.name)
        if field.append_only:
            suffix[field.key] = value[marker.get(field.key, 0):]
        elif field.key != "records":
            payload[field.key] = value
    payload["suffix"] = suffix
    if isinstance(stats, SimulationStatistics):
        records = stats._records
        payload["records"] = {
            rid: encode(records[rid]) if rid in records else None for rid in stats.dirty_records
        }
    return payload


def serialize_state(service) -> Dict[str, object]:
    """The full snapshot's body, as data."""
    state = _meta_small(service)
    state["sim_stats"] = encode(service._engine.statistics)
    state["ingest_stats"] = encode(service._batcher.statistics)
    state["bookings"] = [encode(booking) for booking in service._bookings.values()]
    state["vehicles"] = [encode(snapshot_vehicle(vehicle)) for vehicle in service._fleet.vehicles()]
    return state


def _document(header: str, body_key: str, body: Dict[str, object]) -> str:
    body_text = _dumps(body)
    checksum = hashlib.sha256(body_text.encode("utf-8")).hexdigest()
    return '{%s,"checksum":"%s","%s":%s}' % (header, checksum, body_key, body_text)


def snapshot_document(service, seq: int) -> str:
    """The text of the full snapshot file at ``seq``."""
    return _document(f'"seq":{seq}', "state", serialize_state(service))


def delta_document(service, seq: int, chain) -> str:
    """The text of the delta file ``chain`` writes at ``seq``."""
    live = service._bookings
    stats_marker = chain.stats_marker
    pending_marker = (stats_marker.get("pending_epoch", -1), stats_marker.get("pending_len", 0))
    delta = {
        "version": STATE_VERSION,
        "meta": _meta_small(service, pending_marker=pending_marker),
        "sim_stats": _statistics_delta(service._engine.statistics, stats_marker),
        "ingest_stats": _statistics_delta(service._batcher.statistics, stats_marker),
        "bookings": {
            booking_id: encode(live[booking_id]) if booking_id in live else None
            for booking_id in chain.dirty_bookings
        },
        "vehicles": {
            vehicle.vehicle_id: encode(snapshot_vehicle(vehicle))
            for vehicle in service._fleet.vehicles()
            if vehicle.vehicle_id in chain.dirty_vehicles
        },
    }
    header = f'"seq":{seq},"base":{chain.full_seq},"prev":{chain.point_seq}'
    return _document(header, "delta", delta)
