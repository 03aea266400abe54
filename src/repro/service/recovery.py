"""Snapshot + replay crash recovery for the PTRider service.

The recovery model is the classic redo-log discipline database-backed
serving systems use:

1. at journal creation the service writes a **baseline snapshot** (sequence
   position 0) capturing its full logical state;
2. every state-mutating API call appends a command record *before*
   executing (:mod:`repro.service.journal`);
3. under ``durability="journal+snapshot"`` a fresh snapshot is written
   every ``snapshot_interval`` records (atomic tmp-then-rename, old files
   pruned), bounding the replay tail;
4. :meth:`~repro.service.api.PTRiderService.recover` rebuilds the service
   from the journal's metadata (road network, grid shape, config), restores
   the newest *valid* snapshot -- a corrupt or partial snapshot file falls
   back to the previous one, at the cost of a longer replay -- and
   re-executes the tail records in sequence order.

Replay is re-execution: the service's dispatch pipeline is deterministic
given fleet state, simulated time and the engine's RNG state (all captured
in the snapshot), so re-running the journaled commands reproduces bookings,
vehicle schedules, fleet positions and statistics counters exactly.  The
journal's window-flush ``outcome`` annotation records are used as a
cross-check: recovery compares every re-derived flush outcome against the
recorded one and raises :class:`RecoveryError` on divergence rather than
silently serving a different history.

Wall-clock measurements (matcher response seconds, flush wall time,
admission latencies) are *not* part of the logical state -- two runs of the
same events never agree on them -- so :func:`canonical_state` strips them;
equality of recovered and reference services is defined over everything
else: bookings, options, chosen schedules, vehicle kinetic trees, fleet
positions, motion/assignment bookkeeping, RNG state and the deterministic
statistics counters.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import json
import os
from pathlib import Path
from typing import Collection, Dict, List, Mapping, Optional, Tuple

from repro.core.config import SystemConfig
from repro.core.pricing import LinearPriceModel
from repro.errors import ConfigurationError, PTRiderError, ServiceError
from repro.model.options import RideOption
from repro.model.request import Request
from repro.model.stops import Stop, StopKind
from repro.service.journal import JournalRecord, ServiceJournal
from repro.vehicles.fleet import restore_vehicle, snapshot_vehicle
from repro.vehicles.schedule import RequestState
from repro.vehicles.vehicle import Vehicle

__all__ = [
    "RecoveryError",
    "serialize_state",
    "restore_state",
    "canonical_state",
    "write_snapshot",
    "write_delta",
    "fold_delta",
    "load_snapshot_state",
    "replay_records",
    "serialize_config",
    "deserialize_config",
    "RETIRED_CONFIG_KEYS",
    "serialize_request",
    "deserialize_request",
    "SNAPSHOT_KEEP",
]

#: Snapshots retained after pruning (>= 2 so a corrupt newest file still
#: leaves a fallback).
SNAPSHOT_KEEP = 3

#: Bump when the snapshot payload shape changes incompatibly.
STATE_VERSION = 1


class RecoveryError(ServiceError):
    """Recovery could not restore a consistent service state."""


#: Dropped from a replayed config or ``set_parameters`` change.
_DROP = object()

#: Retired knobs that old journals and snapshots still name, and what each
#: replays as.  None of them ever changed an outcome, so the mapping is
#: exact.  The multi-process dispatch pool's ``dispatch_workers`` becomes 1
#: (the only value the config accepts; a ``set_parameters`` change, which no
#: longer takes it, drops it), and its watchdog and retry knobs are dropped.
#: The retired routing backends' knobs (``table_max_vertices``,
#: ``tree_provider``), the retired artifact cache's directory and the
#: retired fleet shard count (every shard count gave the same options) are
#: dropped, and a dict-valued entry maps retired *values* of a live knob:
#: the "dict", "table" and "ch" backends answered every query with the csr
#: backend's floats, so they replay as "csr".  Only older builds can have
#: journaled those names: ``set_parameters`` refuses an unknown backend
#: before it writes the record.
RETIRED_CONFIG_KEYS: Dict[str, object] = {
    "dispatch_workers": 1,
    "worker_timeout": _DROP,
    "max_dispatch_retries": _DROP,
    "table_max_vertices": _DROP,
    "tree_provider": _DROP,
    "routing_cache_dir": _DROP,
    "match_shards": _DROP,
    "routing_backend": {"dict": "csr", "table": "csr", "ch": "csr"},
}


def _retire_knobs(
    payload: Mapping[str, object], accepted: Collection[str], where: str
) -> Dict[str, object]:
    """``payload`` with retired knobs mapped through :data:`RETIRED_CONFIG_KEYS`.

    Raises:
        RecoveryError: for any other key outside ``accepted``.
    """
    fields: Dict[str, object] = {}
    for key, value in payload.items():
        retired = RETIRED_CONFIG_KEYS.get(key)
        if isinstance(retired, dict):
            value = retired.get(value, value)
        elif key in RETIRED_CONFIG_KEYS:
            value = retired
            if value is _DROP or key not in accepted:
                continue
        elif key not in accepted:
            raise RecoveryError(f"{where} names unknown parameter {key!r}")
        fields[key] = value
    return fields


# ----------------------------------------------------------------------
# model codecs (JSON-able payloads for the frozen dataclasses)
# ----------------------------------------------------------------------
def serialize_request(request: Request) -> Dict[str, object]:
    """JSON payload of a :class:`~repro.model.request.Request`."""
    return {
        "start": request.start,
        "destination": request.destination,
        "riders": request.riders,
        "max_waiting": request.max_waiting,
        "service_constraint": request.service_constraint,
        "request_id": request.request_id,
        "submit_time": request.submit_time,
    }


def deserialize_request(payload: Dict[str, object]) -> Request:
    """Rebuild a request (id preserved, so replay re-creates the same one)."""
    return Request(
        start=int(payload["start"]),
        destination=int(payload["destination"]),
        riders=int(payload["riders"]),
        max_waiting=float(payload["max_waiting"]),
        service_constraint=float(payload["service_constraint"]),
        request_id=str(payload["request_id"]),
        submit_time=float(payload["submit_time"]),
    )


def _serialize_stop(stop: Stop) -> List[object]:
    return [stop.vertex, stop.request_id, stop.kind.value, stop.riders]


def _deserialize_stop(payload: List[object]) -> Stop:
    return Stop(
        vertex=int(payload[0]),
        request_id=str(payload[1]),
        kind=StopKind(payload[2]),
        riders=int(payload[3]),
    )


def _serialize_schedule(schedule: Tuple[Stop, ...]) -> List[List[object]]:
    return [_serialize_stop(stop) for stop in schedule]


def _deserialize_schedule(payload: List[List[object]]) -> Tuple[Stop, ...]:
    return tuple(_deserialize_stop(stop) for stop in payload)


def serialize_option(option: RideOption) -> Dict[str, object]:
    """JSON payload of a :class:`~repro.model.options.RideOption`."""
    return {
        "vehicle_id": option.vehicle_id,
        "pickup_distance": option.pickup_distance,
        "price": option.price,
        "request_id": option.request_id,
        "schedule": _serialize_schedule(option.schedule),
        "added_distance": option.added_distance,
    }


def deserialize_option(payload: Dict[str, object]) -> RideOption:
    """Rebuild a ride option (schedule stops included)."""
    return RideOption(
        vehicle_id=str(payload["vehicle_id"]),
        pickup_distance=float(payload["pickup_distance"]),
        price=float(payload["price"]),
        request_id=str(payload["request_id"]),
        schedule=_deserialize_schedule(payload["schedule"]),
        added_distance=float(payload["added_distance"]),
    )


def _serialize_request_state(state: RequestState) -> Dict[str, object]:
    return {
        "request": serialize_request(state.request),
        "onboard": state.onboard,
        "direct_distance": state.direct_distance,
        "planned_pickup_remaining": state.planned_pickup_remaining,
        "travelled_since_pickup": state.travelled_since_pickup,
    }


def _deserialize_request_state(payload: Dict[str, object]) -> RequestState:
    return RequestState(
        request=deserialize_request(payload["request"]),
        onboard=bool(payload["onboard"]),
        direct_distance=float(payload["direct_distance"]),
        planned_pickup_remaining=float(payload["planned_pickup_remaining"]),
        travelled_since_pickup=float(payload["travelled_since_pickup"]),
    )


def serialize_vehicle(vehicle: Vehicle) -> Dict[str, object]:
    """JSON payload of one vehicle, built on PR 6's :func:`snapshot_vehicle`."""
    (
        vehicle_id,
        location,
        capacity,
        offset,
        waiting,
        onboard,
        order,
        schedules,
        distance_driven,
        occupied_distance,
    ) = snapshot_vehicle(vehicle)
    return {
        "vehicle_id": vehicle_id,
        "location": location,
        "capacity": capacity,
        "offset": offset,
        "waiting": {rid: _serialize_request_state(s) for rid, s in waiting.items()},
        "onboard": {rid: _serialize_request_state(s) for rid, s in onboard.items()},
        "order": list(order),
        "schedules": [_serialize_schedule(schedule) for schedule in schedules],
        "distance_driven": distance_driven,
        "occupied_distance": occupied_distance,
    }


def deserialize_vehicle(payload: Dict[str, object]) -> Vehicle:
    """Rebuild a vehicle through :func:`~repro.vehicles.fleet.restore_vehicle`."""
    return restore_vehicle(
        (
            str(payload["vehicle_id"]),
            int(payload["location"]),
            int(payload["capacity"]),
            float(payload["offset"]),
            {
                rid: _deserialize_request_state(state)
                for rid, state in payload["waiting"].items()
            },
            {
                rid: _deserialize_request_state(state)
                for rid, state in payload["onboard"].items()
            },
            [str(rid) for rid in payload["order"]],
            [_deserialize_schedule(schedule) for schedule in payload["schedules"]],
            float(payload["distance_driven"]),
            float(payload["occupied_distance"]),
        )
    )


def serialize_config(config: SystemConfig) -> Dict[str, object]:
    """JSON payload of a :class:`~repro.core.config.SystemConfig`."""
    price = config.price_model
    return {
        "vehicle_capacity": config.vehicle_capacity,
        "max_waiting": config.max_waiting,
        "service_constraint": config.service_constraint,
        "speed": config.speed,
        "max_pickup_distance": config.max_pickup_distance,
        "matcher_name": config.matcher_name,
        "price_model": {
            "base_ratio": getattr(price, "base_ratio", 0.3),
            "rider_increment": getattr(price, "rider_increment", 0.1),
            "booking_fee": getattr(price, "booking_fee", 0.0),
        },
        "routing_backend": config.routing_backend,
        "dispatch_workers": config.dispatch_workers,
        "batch_window": config.batch_window,
        "max_batch_size": config.max_batch_size,
        "queue_capacity": config.queue_capacity,
        "queue_policy": config.queue_policy,
        "durability": config.durability,
        "journal_path": config.journal_path,
        "snapshot_interval": config.snapshot_interval,
        "latency_budget": config.latency_budget,
        "batch_window_mode": config.batch_window_mode,
        "batch_window_min": config.batch_window_min,
        "batch_window_max": config.batch_window_max,
        "snapshot_mode": config.snapshot_mode,
        "retention_horizon": config.retention_horizon,
    }


def deserialize_config(payload: Dict[str, object]) -> SystemConfig:
    """Rebuild a config (price-model coefficients included).

    Retired knobs replay through :data:`RETIRED_CONFIG_KEYS`.

    Raises:
        RecoveryError: when the payload names any other unknown field, or a
            value the config refuses (an unknown routing backend, say).
    """
    price = payload.get("price_model") or {}
    fields = _retire_knobs(
        payload,
        [field.name for field in dataclasses.fields(SystemConfig)],
        "the journaled config",
    )
    fields["price_model"] = LinearPriceModel(
        base_ratio=float(price.get("base_ratio", 0.3)),
        rider_increment=float(price.get("rider_increment", 0.1)),
        booking_fee=float(price.get("booking_fee", 0.0)),
    )
    try:
        return SystemConfig(**fields)
    except ConfigurationError as error:
        raise RecoveryError(f"the journaled config is refused: {error}") from None


# ----------------------------------------------------------------------
# full service state
# ----------------------------------------------------------------------
#: append-only measurement lists in the two statistics partitions; they
#: grow with served history, so incremental deltas carry only the tail
#: written since the previous snapshot point
_SIM_LIST_KEYS = (
    "response_times",
    "option_counts",
    "waiting_distances",
    "detour_ratios",
)
_INGEST_LIST_KEYS = ("window_fills", "latencies")


def _serialize_record(record) -> Dict[str, object]:
    """JSON payload of one per-request lifecycle record."""
    return {
        "submit_time": record.submit_time,
        "planned_pickup_distance": record.planned_pickup_distance,
        "pickup_time": record.pickup_time,
        "dropoff_time": record.dropoff_time,
        "shared": record.shared,
        "direct_distance": record.direct_distance,
        "travelled_distance": record.travelled_distance,
    }


def _serialize_sim_statistics(stats) -> Dict[str, object]:
    return {
        "response_times": list(stats.response_times),
        "option_counts": list(stats.option_counts),
        "matched_requests": stats.matched_requests,
        "unmatched_requests": stats.unmatched_requests,
        "completed_requests": stats.completed_requests,
        "shared_requests": stats.shared_requests,
        "pickups": stats.pickups,
        "dropoffs": stats.dropoffs,
        "waiting_distances": list(stats.waiting_distances),
        "detour_ratios": list(stats.detour_ratios),
        "records": {
            rid: _serialize_record(record)
            for rid, record in stats._records.items()
        },
    }


def _serialize_sim_statistics_delta(stats, marker: Dict[str, int]) -> Dict[str, object]:
    """The sim-statistics partition, incrementally: scalars wholesale,
    measurement lists as the suffix appended since the last snapshot point
    (``marker`` holds the lengths at that point), lifecycle records only
    where dirtied.  A dirty id with no live record serialises as ``null``
    (deleted), mirroring the bookings partition's retention convention."""
    return {
        "matched_requests": stats.matched_requests,
        "unmatched_requests": stats.unmatched_requests,
        "completed_requests": stats.completed_requests,
        "shared_requests": stats.shared_requests,
        "pickups": stats.pickups,
        "dropoffs": stats.dropoffs,
        "suffix": {
            key: list(getattr(stats, key)[marker.get(key, 0):])
            for key in _SIM_LIST_KEYS
        },
        "records": {
            rid: (
                None
                if stats._records.get(rid) is None
                else _serialize_record(stats._records[rid])
            )
            for rid in stats.dirty_records
        },
    }


def _restore_sim_statistics(stats, payload: Dict[str, object]) -> None:
    from repro.sim.stats import _RequestRecord

    stats.response_times = [float(v) for v in payload["response_times"]]
    stats.option_counts = [int(v) for v in payload["option_counts"]]
    stats.matched_requests = int(payload["matched_requests"])
    stats.unmatched_requests = int(payload["unmatched_requests"])
    stats.completed_requests = int(payload["completed_requests"])
    stats.shared_requests = int(payload["shared_requests"])
    stats.pickups = int(payload["pickups"])
    stats.dropoffs = int(payload["dropoffs"])
    stats.waiting_distances = [float(v) for v in payload["waiting_distances"]]
    stats.detour_ratios = [float(v) for v in payload["detour_ratios"]]
    stats._records = {
        rid: _RequestRecord(
            submit_time=float(record["submit_time"]),
            planned_pickup_distance=float(record["planned_pickup_distance"]),
            pickup_time=(
                None if record["pickup_time"] is None else float(record["pickup_time"])
            ),
            dropoff_time=(
                None
                if record["dropoff_time"] is None
                else float(record["dropoff_time"])
            ),
            shared=bool(record["shared"]),
            direct_distance=float(record["direct_distance"]),
            travelled_distance=float(record["travelled_distance"]),
        )
        for rid, record in payload["records"].items()
    }


def _serialize_ingest_statistics(stats) -> Dict[str, object]:
    return {
        "admitted": stats.admitted,
        "answered": stats.answered,
        "shed": stats.shed,
        "evicted": stats.evicted,
        "errored": stats.errored,
        "cancelled": stats.cancelled,
        "close_drained": stats.close_drained,
        "size_closed": stats.size_closed,
        "window_closed": stats.window_closed,
        "forced": stats.forced,
        "deadline_closed": stats.deadline_closed,
        "deadline_misses": stats.deadline_misses,
        "window_grown": stats.window_grown,
        "window_shrunk": stats.window_shrunk,
        "retired": stats.retired,
        "peak_queue_depth": stats.peak_queue_depth,
        "serving_seconds": stats.serving_seconds,
        "window_fills": list(stats.window_fills),
        "latencies": list(stats.latencies),
    }


def _serialize_ingest_statistics_delta(stats, marker: Dict[str, int]) -> Dict[str, object]:
    """The ingest-statistics partition, incrementally (see the sim twin)."""
    payload = _serialize_ingest_statistics(stats)
    for key in _INGEST_LIST_KEYS:
        payload.pop(key)
    payload["suffix"] = {
        key: list(getattr(stats, key)[marker.get(key, 0):])
        for key in _INGEST_LIST_KEYS
    }
    return payload


def _restore_ingest_statistics(stats, payload: Dict[str, object]) -> None:
    stats.admitted = int(payload["admitted"])
    stats.answered = int(payload["answered"])
    stats.shed = int(payload["shed"])
    stats.evicted = int(payload.get("evicted", 0))
    stats.errored = int(payload["errored"])
    stats.cancelled = int(payload.get("cancelled", 0))
    stats.close_drained = int(payload.get("close_drained", 0))
    stats.size_closed = int(payload["size_closed"])
    stats.window_closed = int(payload["window_closed"])
    stats.forced = int(payload["forced"])
    stats.deadline_closed = int(payload.get("deadline_closed", 0))
    stats.deadline_misses = int(payload.get("deadline_misses", 0))
    stats.window_grown = int(payload.get("window_grown", 0))
    stats.window_shrunk = int(payload.get("window_shrunk", 0))
    stats.retired = int(payload.get("retired", 0))
    stats.peak_queue_depth = int(payload["peak_queue_depth"])
    stats.serving_seconds = float(payload["serving_seconds"])
    stats.window_fills = [float(v) for v in payload["window_fills"]]
    stats.latencies = [float(v) for v in payload["latencies"]]


def _serialize_booking(booking) -> Dict[str, object]:
    """JSON payload of one booking (the unit of the bookings partition)."""
    chosen_index = -1
    if booking.chosen is not None:
        chosen_index = booking.options.index(booking.chosen)
    return {
        "booking_id": booking.booking_id,
        "request": serialize_request(booking.request),
        "options": [serialize_option(option) for option in booking.options],
        "chosen_index": chosen_index,
        "response_seconds": booking.response_seconds,
    }


def _serialize_meta_small(
    service, pending_marker: Optional[Tuple[int, int]] = None
) -> Dict[str, object]:
    """The genuinely small meta keys: everything except bookings, vehicles
    and the two statistics partitions.

    Simulated time, RNG state, the engine's motion/target/assignment
    bookkeeping (bounded by the fleet and its active rides), the
    micro-batcher's pending window, the adaptive-window controller state
    and the config.  Cheap and interdependent, so every incremental delta
    carries it wholesale -- except the pending window, which can be the
    single largest partition during a surge (hundreds of queued requests
    per cadence interval).  When ``pending_marker`` is given as
    ``(epoch, length)`` from the previous snapshot point and the batcher's
    :attr:`~repro.service.ingest.MicroBatcher.pending_epoch` still matches
    (no flush / eviction / cancel happened since -- appends only), the
    payload becomes ``{"suffix": [...]}`` carrying just the newly admitted
    entries; :func:`fold_delta` extends the folded queue.  Any epoch
    mismatch falls back to the wholesale list.
    """
    engine = service._engine
    batcher = service._batcher
    rng_state = engine._rng.getstate()
    entries = batcher.pending_entries()
    pending_payload: object
    if (
        pending_marker is not None
        and pending_marker[0] == batcher.pending_epoch
        and pending_marker[1] <= len(entries)
    ):
        pending_payload = {
            "suffix": [
                [serialize_request(request), admitted]
                for request, admitted in entries[pending_marker[1]:]
            ]
        }
    else:
        pending_payload = [
            [serialize_request(request), admitted]
            for request, admitted in entries
        ]
    return {
        "version": STATE_VERSION,
        "time": engine._time,
        "ticks": engine._ticks,
        "rng_state": [rng_state[0], list(rng_state[1]), rng_state[2]],
        "booking_next": service._peek_booking_counter(),
        "ingest_answered": [b.booking_id for b in service._ingest_answered],
        "motions": {
            vid: [motion.location, list(motion.route), motion.offset]
            for vid, motion in sorted(engine._motions.items())
        },
        "targets": {vid: target for vid, target in sorted(engine._targets.items())},
        "assignments": {
            rid: [
                record.vehicle_id,
                record.planned_pickup_distance,
                record.driven_at_assignment,
            ]
            for rid, record in sorted(engine._assignments.items())
        },
        "active_requests": dict(sorted(service._dispatcher._active_requests.items())),
        "pending": pending_payload,
        "window_opened": batcher.window_opened,
        "controller": batcher.controller_state(),
        "config": serialize_config(service._config),
    }


def _serialize_meta(service) -> Dict[str, object]:
    """Every state key *except* the bookings and vehicles partitions."""
    state = _serialize_meta_small(service)
    state["sim_stats"] = _serialize_sim_statistics(service._engine.statistics)
    state["ingest_stats"] = _serialize_ingest_statistics(
        service._batcher.statistics
    )
    return state


def serialize_state(service) -> Dict[str, object]:
    """Capture the full logical state of a service as a JSON-able dict.

    Everything recovery needs to resume: bookings (requests, option
    skylines, choices), the booking counter, every vehicle (via PR 6's
    snapshot tuples), the engine's motion/target/assignment bookkeeping,
    simulated time, the idle-wander RNG state, the statistics counters,
    the micro-batcher's pending window, counters and adaptive-window
    controller state, the dispatcher's active-request map and the current
    config.  JSON round-trips Python floats exactly (shortest-repr), so
    restored state compares equal.  The layout is partitioned -- bookings
    / vehicles / everything-else -- so incremental snapshot deltas
    (:func:`write_delta`) can re-serialise only what was touched.
    """
    state = _serialize_meta(service)
    state["bookings"] = [
        _serialize_booking(booking) for booking in service._bookings.values()
    ]
    state["vehicles"] = [
        serialize_vehicle(vehicle) for vehicle in service._fleet.vehicles()
    ]
    return state


def restore_state(service, state: Dict[str, object]) -> None:
    """Overwrite ``service``'s live state with a :func:`serialize_state` dict.

    The service must already run the snapshot's config (matcher, dispatch
    knobs, routing backend); :meth:`PTRiderService.recover` guarantees that
    by constructing it from the snapshot's own config payload.
    """
    from repro.model.options import RideOption  # local alias for clarity
    from repro.sim.engine import _AssignmentRecord
    from repro.vehicles.movement import MotionState

    engine = service._engine
    fleet = service._fleet
    batcher = service._batcher

    fleet.restore_vehicles(
        deserialize_vehicle(payload) for payload in state["vehicles"]
    )

    engine._time = float(state["time"])
    engine._ticks = int(state["ticks"])
    rng_version, rng_values, rng_extra = state["rng_state"]
    engine._rng.setstate((int(rng_version), tuple(rng_values), rng_extra))
    engine._motions = {
        vid: MotionState(
            location=int(payload[0]),
            route=tuple(int(v) for v in payload[1]),
            offset=float(payload[2]),
        )
        for vid, payload in state["motions"].items()
    }
    engine._targets = {
        vid: (None if target is None else int(target))
        for vid, target in state["targets"].items()
    }
    engine._assignments = {
        rid: _AssignmentRecord(
            vehicle_id=str(payload[0]),
            planned_pickup_distance=float(payload[1]),
            driven_at_assignment=float(payload[2]),
        )
        for rid, payload in state["assignments"].items()
    }
    _restore_sim_statistics(engine.statistics, state["sim_stats"])

    service._set_booking_counter(int(state["booking_next"]))
    service._bookings.clear()
    from repro.service.api import Booking

    for payload in state["bookings"]:
        options = tuple(deserialize_option(option) for option in payload["options"])
        chosen_index = int(payload["chosen_index"])
        booking = Booking(
            booking_id=str(payload["booking_id"]),
            request=deserialize_request(payload["request"]),
            options=options,
            chosen=options[chosen_index] if chosen_index >= 0 else None,
            response_seconds=float(payload["response_seconds"]),
        )
        service._bookings[booking.booking_id] = booking
    service._ingest_answered = [
        service._bookings[bid] for bid in state["ingest_answered"]
    ]

    service._dispatcher._active_requests = {
        rid: str(vid) for rid, vid in state["active_requests"].items()
    }
    _restore_ingest_statistics(batcher.statistics, state["ingest_stats"])
    batcher.restore_pending(
        [
            (deserialize_request(request), float(admitted))
            for request, admitted in state["pending"]
        ],
        state["window_opened"],
    )
    batcher.restore_controller(state.get("controller"))


#: Keys stripped from :func:`canonical_state`: wall-clock measurements that
#: two otherwise identical runs never agree on.
_WALL_CLOCK_STATE_KEYS = ("seq",)


def canonical_state(service) -> Dict[str, object]:
    """The service's logical state with wall-clock measurements stripped.

    Two services that processed the same events -- one live, one recovered
    from a journal -- compare equal under ``==`` of their canonical states;
    this is the property the fault-injection harness asserts.
    """
    state = serialize_state(service)
    for key in _WALL_CLOCK_STATE_KEYS:
        state.pop(key, None)
    for booking in state["bookings"]:
        booking.pop("response_seconds", None)
    state["sim_stats"].pop("response_times", None)
    for key in ("serving_seconds", "latencies", "window_grown", "window_shrunk"):
        state["ingest_stats"].pop(key, None)
    # The adaptive controller's EWMAs are driven by wall-clock flush walls;
    # replay pins the recorded per-command windows instead (the journal
    # payloads carry them), so controller internals are not canonical.
    state.pop("controller", None)
    return state


# ----------------------------------------------------------------------
# snapshot files
# ----------------------------------------------------------------------
def write_snapshot(journal: ServiceJournal, service, seq: int) -> Path:
    """Atomically write the service's state as the snapshot at ``seq``.

    The payload is written to a ``.tmp`` sibling first and moved into place
    with ``os.replace``, so a crash mid-snapshot leaves only an ignored
    temp file; a SHA-256 checksum over the state JSON lets recovery detect
    a corrupt or truncated snapshot and fall back to an older one.  Old
    snapshots beyond :data:`SNAPSHOT_KEEP` are pruned.
    """
    state = serialize_state(service)
    state_text = json.dumps(state, separators=(",", ":"))
    checksum = hashlib.sha256(state_text.encode("utf-8")).hexdigest()
    # Embed the already-encoded state verbatim instead of re-encoding it
    # inside the document: the loader's checksum verification re-dumps the
    # *parsed* state, so it already relies on JSON round-trip stability,
    # and one encode instead of two is a third off the serialisation bill.
    document_text = '{"seq":%d,"checksum":"%s","state":%s}' % (
        seq, checksum, state_text,
    )
    target = journal.snapshot_path(seq)
    tmp = target.with_name(f"{target.name}.{os.getpid()}.tmp")
    tmp.write_text(document_text, encoding="utf-8")
    os.replace(tmp, target)
    journal.prune_snapshots(keep=SNAPSHOT_KEEP)
    return target


def write_delta(
    journal: ServiceJournal,
    service,
    seq: int,
    base_seq: int,
    prev_seq: int,
    dirty_bookings: Dict[str, None],
    dirty_vehicles,
    stats_marker: Dict[str, int],
) -> Path:
    """Atomically write an incremental snapshot delta at ``seq``.

    A delta re-serialises only what changed since the previous snapshot
    point: the small meta partition in full (counters, RNG, motions,
    pending window -- cheap and interdependent), the statistics
    partitions incrementally (scalar counters wholesale, measurement-list
    suffixes past ``stats_marker``, dirtied lifecycle records only), plus
    only the *dirty* bookings and vehicles.  ``dirty_bookings`` maps
    booking id -> ``None`` in creation (insertion) order so a fold
    preserves the bookings-list order of :func:`serialize_state`; ids no
    longer present in the live map serialise as ``null``
    (retention-pruned).  The delta chains on ``prev_seq`` (the previous
    snapshot point: the base full snapshot or the previous delta) under
    base full snapshot ``base_seq``; recovery folds the longest valid
    chain and journal-replays past any break.  Same atomic
    tmp-then-rename + checksum discipline as full snapshots.

    Everything here is O(changed-since-last-point), never O(history) --
    that is the whole point: the hot-path stall a cadence crossing causes
    stays a small constant fraction of a full serialisation however long
    the day has run.
    """
    bookings: Dict[str, object] = {}
    for booking_id in dirty_bookings:
        booking = service._bookings.get(booking_id)
        bookings[booking_id] = None if booking is None else _serialize_booking(booking)
    fleet = service._fleet
    vehicles: Dict[str, object] = {}
    for vehicle in fleet.vehicles():
        if vehicle.vehicle_id in dirty_vehicles:
            vehicles[vehicle.vehicle_id] = serialize_vehicle(vehicle)
    pending_marker = (
        stats_marker.get("pending_epoch", -1),
        stats_marker.get("pending_len", 0),
    )
    delta = {
        "version": STATE_VERSION,
        "meta": _serialize_meta_small(service, pending_marker=pending_marker),
        "sim_stats": _serialize_sim_statistics_delta(
            service._engine.statistics, stats_marker
        ),
        "ingest_stats": _serialize_ingest_statistics_delta(
            service._batcher.statistics, stats_marker
        ),
        "bookings": bookings,
        "vehicles": vehicles,
    }
    delta_text = json.dumps(delta, separators=(",", ":"))
    checksum = hashlib.sha256(delta_text.encode("utf-8")).hexdigest()
    # Compose the document around the already-encoded delta (see
    # write_snapshot): encoding the payload once instead of twice matters
    # most here, on the hot path.
    document_text = '{"seq":%d,"base":%d,"prev":%d,"checksum":"%s","delta":%s}' % (
        seq, base_seq, prev_seq, checksum, delta_text,
    )
    target = journal.delta_path(seq)
    tmp = target.with_name(f"{target.name}.{os.getpid()}.tmp")
    tmp.write_text(document_text, encoding="utf-8")
    os.replace(tmp, target)
    return target


def _load_delta_file(
    path: Path,
) -> Optional[Tuple[int, int, int, Dict[str, object]]]:
    """Parse + checksum-verify one delta file; ``None`` when unusable."""
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
        delta = document["delta"]
        delta_text = json.dumps(delta, separators=(",", ":"))
        checksum = hashlib.sha256(delta_text.encode("utf-8")).hexdigest()
        if checksum != document["checksum"]:
            return None
        if int(delta.get("version", -1)) != STATE_VERSION:
            return None
        return (
            int(document["seq"]),
            int(document["base"]),
            int(document["prev"]),
            delta,
        )
    except (OSError, ValueError, KeyError, TypeError):
        return None


def fold_delta(state: Dict[str, object], delta: Dict[str, object]) -> None:
    """Fold one delta into a full-snapshot ``state`` dict, in place.

    The small meta partition overwrites wholesale -- except the pending
    window, whose appends-only ``{"suffix": [...]}`` form extends the
    folded queue instead; the statistics
    partitions fold incrementally (scalars overwrite, measurement-list
    suffixes append, dirty lifecycle records replace/insert/delete by
    id); dirty vehicles replace their base entries by id (the fleet is
    fixed, so deltas never add or remove vehicles); dirty bookings
    replace-in-place, append (new bookings, in the delta's creation
    order) or delete (``null`` payload -- retention).  The fold preserves
    booking creation order, so a folded state is byte-identical to the
    :func:`serialize_state` the service would have produced at the same
    sequence position.
    """
    for key, value in delta["meta"].items():
        if key == "pending" and isinstance(value, dict):
            # Appends-only interval: the delta ships just the suffix of
            # newly admitted entries (see _serialize_meta_small).
            state[key] = list(state[key]) + list(value["suffix"])
        else:
            state[key] = value
    sim_delta = delta["sim_stats"]
    sim_state = state["sim_stats"]
    for key, value in sim_delta.items():
        if key in ("suffix", "records"):
            continue
        sim_state[key] = value
    for key, tail in sim_delta["suffix"].items():
        sim_state[key] = list(sim_state[key]) + list(tail)
    records = sim_state["records"]
    for rid, payload in sim_delta["records"].items():
        if payload is None:
            records.pop(rid, None)
        else:
            records[rid] = payload
    ingest_delta = delta["ingest_stats"]
    ingest_state = state["ingest_stats"]
    for key, value in ingest_delta.items():
        if key == "suffix":
            continue
        ingest_state[key] = value
    for key, tail in ingest_delta["suffix"].items():
        ingest_state[key] = list(ingest_state[key]) + list(tail)
    vehicles = delta["vehicles"]
    if vehicles:
        state["vehicles"] = [
            vehicles.get(payload["vehicle_id"], payload)
            for payload in state["vehicles"]
        ]
    bookings = delta["bookings"]
    if bookings:
        folded: List[object] = []
        seen = set()
        for payload in state["bookings"]:
            booking_id = payload["booking_id"]
            if booking_id in bookings:
                seen.add(booking_id)
                replacement = bookings[booking_id]
                if replacement is None:
                    continue  # retention-pruned
                folded.append(replacement)
            else:
                folded.append(payload)
        for booking_id, payload in bookings.items():
            if booking_id not in seen and payload is not None:
                folded.append(payload)
        state["bookings"] = folded


def _load_snapshot_file(path: Path) -> Optional[Tuple[int, Dict[str, object]]]:
    """Parse + checksum-verify one snapshot file; ``None`` when unusable."""
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
        state = document["state"]
        state_text = json.dumps(state, separators=(",", ":"))
        checksum = hashlib.sha256(state_text.encode("utf-8")).hexdigest()
        if checksum != document["checksum"]:
            return None
        if int(state.get("version", -1)) != STATE_VERSION:
            return None
        return int(document["seq"]), state
    except (OSError, ValueError, KeyError, TypeError):
        return None


def load_snapshot_state(
    journal: ServiceJournal, prefer_snapshot: bool = True
) -> Tuple[int, Dict[str, object]]:
    """The newest valid snapshot's ``(seq, state)``.

    Walks the snapshot files newest-first, skipping corrupt or partial
    ones (bad checksum, truncated JSON, version mismatch) -- falling back
    to an older snapshot simply means a longer replay.  When incremental
    deltas exist on top of the chosen full snapshot, the longest valid
    chain (each delta checksummed, ``base`` == the full snapshot's seq,
    ``prev`` linking snapshot -> delta -> delta without gaps) is folded in
    order; a corrupt or torn delta truncates the chain there, and journal
    replay covers the rest.  With ``prefer_snapshot=False`` only the
    baseline (sequence position 0) is considered and deltas are ignored,
    forcing a full-journal replay -- the ablation arm of the recovery
    benchmark and the reference side of the snapshot+tail == full-replay
    property.

    Raises:
        RecoveryError: when no snapshot (not even the baseline) is usable.
    """
    candidates = journal.snapshot_files()
    if not prefer_snapshot:
        candidates = [(seq, path) for seq, path in candidates if seq == 0]
    for seq, path in reversed(candidates):
        loaded = _load_snapshot_file(path)
        if loaded is not None:
            if prefer_snapshot:
                return _fold_delta_chain(journal, loaded)
            return loaded
    raise RecoveryError(
        f"no usable snapshot in {journal.directory} "
        f"(checked {len(candidates)} file(s))"
    )


def _fold_delta_chain(
    journal: ServiceJournal, loaded: Tuple[int, Dict[str, object]]
) -> Tuple[int, Dict[str, object]]:
    """Fold the longest valid delta chain over a loaded full snapshot."""
    base_seq, state = loaded
    prev_seq = base_seq
    for delta_seq, delta_path in journal.delta_files():
        if delta_seq <= base_seq:
            continue
        parsed = _load_delta_file(delta_path)
        if parsed is None:
            break  # corrupt/torn delta: journal replay covers the rest
        seq, base, prev, delta = parsed
        if seq != delta_seq or base != base_seq or prev != prev_seq:
            break  # chain gap or stale delta from an older full snapshot
        fold_delta(state, delta)
        prev_seq = seq
    return prev_seq, state


# ----------------------------------------------------------------------
# replay
# ----------------------------------------------------------------------
def apply_record(service, record: JournalRecord) -> None:
    """Re-execute one command record against ``service``.

    Skips records at or below the service's applied sequence position
    (idempotence: replaying the same tail twice is a no-op) and tolerates
    the service-level errors the original call raised live -- a command
    that failed deterministically fails identically on replay, leaving
    state untouched both times.
    """
    if record.seq <= service._applied_seq:
        return
    kind, payload = record.kind, record.payload
    # Adaptive-window commands journal the window that was in effect when
    # they executed live (wall-clock flush walls drive the controller, so a
    # replay would otherwise pick different window boundaries).  Pin it
    # before re-executing.
    if kind in ("admit", "pump", "drain"):
        window = payload.get("window")
        if window is not None:
            service._batcher.set_window(float(window))
    try:
        if kind == "book":
            service.book_request(deserialize_request(payload["request"]))
        elif kind == "book_batch":
            service._book_batch_requests(
                [deserialize_request(request) for request in payload["requests"]]
            )
        elif kind == "admit":
            service.ingest_request(
                deserialize_request(payload["request"]), now=float(payload["now"])
            )
        elif kind == "pump":
            service.pump(now=float(payload["now"]))
        elif kind == "drain":
            if payload.get("close"):
                service._close_drain(float(payload["now"]))
            else:
                service.drain(now=float(payload["now"]))
        elif kind == "choose":
            service.choose(str(payload["booking_id"]), int(payload["option_index"]))
        elif kind == "cancel":
            service.cancel(str(payload["id"]))
        elif kind == "advance":
            service.advance(float(payload["duration"]))
        elif kind == "set_parameters":
            service.set_parameters(
                **_retire_knobs(
                    payload["changes"],
                    inspect.signature(service.set_parameters).parameters,
                    f"set_parameters record {record.seq}",
                )
            )
        else:  # pragma: no cover - append() rejects unknown kinds
            raise RecoveryError(f"unknown command record kind {kind!r}")
    except RecoveryError:
        raise
    except PTRiderError:
        # The live call raised the same deterministic service error after
        # its record was already durable; state is unchanged either way.
        pass
    service._applied_seq = record.seq


def replay_records(service, records: List[JournalRecord]) -> int:
    """Re-execute a record tail in sequence-number order; returns how many.

    Records are sorted by sequence number first, so arrival order never
    matters.  Window-flush ``outcome`` annotations are collected and
    compared against the outcomes the replay re-derives: the recovered
    history must be the recorded history.

    Raises:
        RecoveryError: when a re-derived flush outcome diverges from the
            journal's recorded outcome.
    """
    ordered = sorted(records, key=lambda record: record.seq)
    expected: List[Dict[str, object]] = []
    for record in ordered:
        if record.kind == "outcome" and record.seq > service._applied_seq:
            # one annotation record per command, holding every outcome the
            # command's flush produced, in flush order
            expected.extend(record.payload.get("outcomes", []))
    replayed: List[Dict[str, object]] = []
    previous_listener = service._dispatcher.outcome_listener

    def _observe(outcome) -> None:
        replayed.append(service._outcome_payload(outcome))

    service._dispatcher.outcome_listener = _observe
    applied = 0
    try:
        for record in ordered:
            if not record.is_command:
                if record.kind == "outcome" and record.seq > service._applied_seq:
                    service._applied_seq = record.seq
                continue
            before = service._applied_seq
            apply_record(service, record)
            if service._applied_seq > before:
                applied += 1
    finally:
        service._dispatcher.outcome_listener = previous_listener
    # Cross-check: every recorded flush outcome must match the re-derived
    # one at the same position.  The replay may legitimately produce *more*
    # outcomes than were recorded (a crash between a flush's commits and
    # its annotation appends), never different ones.
    for index, recorded in enumerate(expected):
        if index >= len(replayed):
            raise RecoveryError(
                f"journal records {len(expected)} flush outcomes but replay "
                f"re-derived only {len(replayed)}"
            )
        if recorded != replayed[index]:
            raise RecoveryError(
                "replay diverged from the journaled flush outcome for request "
                f"{recorded.get('request_id')!r}: recorded {recorded}, "
                f"re-derived {replayed[index]}"
            )
    return applied
