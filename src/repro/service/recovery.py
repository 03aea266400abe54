"""Snapshot + replay crash recovery for the PTRider service.

The recovery model is the classic redo-log discipline database-backed
serving systems use:

1. at journal creation the service writes a **baseline snapshot** (sequence
   position 0) capturing its full logical state;
2. every state-mutating API call appends a command record *before*
   executing (:mod:`repro.service.journal`);
3. under ``durability="journal+snapshot"`` a delta holding the state
   dirtied since the previous snapshot point is written every
   ``snapshot_interval`` records, and a compaction between ingest windows
   replaces a long delta chain with a full snapshot (atomic
   tmp-then-rename, old files pruned), bounding the replay tail --
   :class:`SnapshotChain` is that policy and the chain's state;
4. :meth:`~repro.service.api.PTRiderService.recover` rebuilds the service
   from the journal's metadata (road network, grid shape, config), restores
   the newest *valid* full snapshot with its delta chain folded over it --
   a corrupt or partial file ends the chain early, or falls back to the
   previous full snapshot, at the cost of a longer replay -- and
   re-executes the tail records in sequence order.

Replay is re-execution: the service's dispatch pipeline is deterministic
given fleet state, simulated time and the engine's RNG state (all captured
in the snapshot), so re-running the journaled commands reproduces bookings,
vehicle schedules, fleet positions and the simulation and ingest statistics
exactly.  The journal's window-flush ``outcome`` annotation records
(:class:`OutcomeAnnotation`) are used as a cross-check: recovery compares
every re-derived flush outcome against the recorded one and raises
:class:`RecoveryError` on divergence rather than silently serving a
different history.

Everything durable is stored through one codec derived from the dataclasses
that hold it (:func:`encode` / :func:`decode`, rules on :class:`_Plan`), so
no field is listed by hand.  Records and state files are written as JSON
text straight from the objects (:func:`text`, the plans' compiled writers,
equal byte for byte to ``json.dumps`` of the encoding), and each journaled
request is formatted once per snapshot interval: :class:`SnapshotChain`
keeps the text its admission record was written with, and the next point's
pending window and bookings splice it.

Wall-clock measurements (matcher response seconds, flush wall time,
admission latencies) are *not* part of the logical state -- two runs of the
same events never agree on them -- so :func:`canonical_state` strips them;
equality of recovered and reference services is defined over everything
else: bookings, options, chosen schedules, vehicle kinetic trees, fleet
positions, motion/assignment bookkeeping, RNG state and the deterministic
simulation and ingest counters.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import time
import types
import typing
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path
from typing import Callable, Collection, Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.core.config import DROP, RETIRED_CONFIG_KEYS, RUNTIME, SystemConfig, knob_names
from repro.errors import PTRiderError, ServiceError
from repro.model.request import Request
from repro.service.ingest import IngestStatistics
from repro.service.journal import JournalRecord, ServiceJournal
from repro.sim.engine import _AssignmentRecord
from repro.sim.stats import SimulationStatistics
from repro.vehicles.fleet import VehicleSnapshot, restore_vehicle, snapshot_vehicle
from repro.vehicles.movement import MotionState

__all__ = [
    "RecoveryError",
    "encode",
    "decode",
    "text",
    "scalar_text",
    "durable_fields",
    "serialize_state",
    "restore_state",
    "canonical_state",
    "write_snapshot",
    "write_delta",
    "fold_delta",
    "load_snapshot_state",
    "SnapshotChain",
    "OutcomeAnnotation",
    "replay_records",
    "deserialize_config",
    "SNAPSHOT_KEEP",
]

#: Snapshots retained after pruning (>= 2 so a corrupt newest file still
#: leaves a fallback).
SNAPSHOT_KEEP = 3

#: Bump when the snapshot payload shape changes incompatibly.
STATE_VERSION = 1

#: Incremental snapshot deltas written before compaction (a full snapshot)
#: becomes due.  Bounds both the delta-fold work at recovery and the disk
#: held by the chain; compaction itself waits for a gap between windows.
DELTA_COMPACT_AFTER = 16


class RecoveryError(ServiceError):
    """Recovery could not restore a consistent service state."""


# ----------------------------------------------------------------------
# the codec
# ----------------------------------------------------------------------
_SCALARS = (int, float, str, bool)

#: What a stored value the codec cannot rebuild raises on the way.
_DECODE_ERRORS = (PTRiderError, TypeError, ValueError, KeyError, IndexError, AttributeError)

#: Default factories that build an empty container, the only factories a
#: missing field may fall back to.
_EMPTY_FACTORIES = (list, dict, tuple)

#: :attr:`DurableField.default` of a field that may not be missing.
_REQUIRED = object()


@dataclasses.dataclass(frozen=True)
class DurableField:
    """One stored field of a class's plan."""

    name: str
    key: str
    #: the value back from its stored form
    decode: Callable[[object], object]
    #: the stored form a missing field decodes from, or :data:`_REQUIRED`
    default: object
    append_only: bool
    wall_clock: bool


class _Plan:
    """How one dataclass is stored, compiled once from its fields.

    One rule per type hint (:func:`_source`).  A class is stored as an
    object keyed by field name, in field order, or with
    ``_durable_positional = True`` as the list of its field values.  Field
    metadata: ``"key"`` renames the stored key, ``"index_of"`` stores an
    optional field as its index in the named sibling tuple (``-1`` for
    ``None``), ``"durable": False`` leaves a field out, ``"append_only"``
    marks a list that only grows (deltas carry its new suffix) and
    ``"wall_clock"`` a measurement :func:`canonical_state` drops.  A missing
    field decodes to its default only when that is a constant or an empty
    container (``Request.request_id``'s factory would mint an identity).

    Beside ``encode`` and ``decode`` the plan compiles ``text``, the JSON
    text of ``encode``'s output written straight from the instance (rules on
    :func:`_text_source`): one ``%``-format of the class's keys over its
    field texts, equal byte for byte to ``json.dumps(encode(o),
    separators=(",", ":"))``.  :meth:`spliced` compiles the same writer
    taking one field's text as an argument.
    """

    def __init__(self, cls: type) -> None:
        self.cls = cls
        self.positional = bool(getattr(cls, "_durable_positional", False))
        hints = typing.get_type_hints(cls)
        namespace: Dict[str, object] = {"_cls": cls, **_TEXT_HELPERS}
        fields: List[DurableField] = []
        encoded: List[str] = []
        decoded: List[str] = []
        texts: List[str] = []
        for spec in dataclasses.fields(cls):
            meta = spec.metadata
            if not spec.init or meta.get("durable", True) is False:
                continue
            key = meta.get("key", spec.name)
            index_of = meta.get("index_of")
            stored = f"p[{len(fields)}]" if self.positional else f"p[{key!r}]"
            value = f"f{len(fields)}"
            if index_of is None:
                tp = hints[spec.name]
                decode_value = eval(f"lambda v: {_source(tp, 'v', namespace, True)}", namespace)
                encoded.append(_source(tp, f"o.{spec.name}", namespace))
                decoded.append(f"{value} = {_source(tp, stored, namespace, True)}")
                texts.append(_text_source(tp, value, namespace))
            else:
                decode_value = int
                chosen = f"o.{spec.name}"
                encoded.append(f"(-1 if {chosen} is None else o.{index_of}.index({chosen}))")
                sibling = f"f{[field.name for field in fields].index(index_of)}"
                decoded.append(f"{value} = int({stored})")
                decoded.append(f"{value} = None if {value} < 0 else {sibling}[{value}]")
                texts.append(f"('-1' if {value} is None else _repr({sibling}.index({value})))")
            # constant defaults are scalars or None, stored as they are
            if spec.default is not dataclasses.MISSING:
                default = -1 if index_of else spec.default
            elif spec.default_factory in _EMPTY_FACTORIES:
                default = spec.default_factory()
            else:
                default = _REQUIRED
            fields.append(DurableField(
                spec.name, key, decode_value, default,
                bool(meta.get("append_only")), bool(meta.get("wall_clock")),
            ))
        self.fields: Tuple[DurableField, ...] = tuple(fields)
        self.keys = frozenset(field.key for field in fields)
        body = ", ".join(encoded if self.positional else (
            f"{field.key!r}: {source}" for field, source in zip(fields, encoded)
        ))
        self.encode = eval(
            f"lambda o: [{body}]" if self.positional else f"lambda o: {{{body}}}", namespace
        )
        arguments = ", ".join(f"{field.name}=f{position}" for position, field in enumerate(fields))
        exec("\n    ".join([
            "def decode(p):",
            f"if len(p) != {len(fields)}: raise KeyError('a field is missing or unknown')",
            *decoded,
            f"return _cls({arguments})",
        ]), namespace)
        self._decode_complete = namespace["decode"]
        items = ["%s"] * len(fields) if self.positional else [
            _json_str(field.key).replace("%", "%%") + ":%s" for field in fields
        ]
        self._format = ("[%s]" if self.positional else "{%s}") % ",".join(items)
        self._namespace, self._texts = namespace, texts
        self._spliced: Dict[str, Callable[[object, str], str]] = {}
        self.text = self._compile_text()

    def _compile_text(self, spliced: Optional[str] = None) -> Callable:
        """``text(o)``, or with ``spliced`` naming a field ``text(o, t)``
        writing ``t`` as that field's text."""
        names = [field.name for field in self.fields]
        texts = list(self._texts)
        if spliced is not None:
            texts[names.index(spliced)] = "t"
        exec("\n    ".join([
            "def text(o):" if spliced is None else "def text(o, t):",
            *(f"f{position} = o.{name}" for position, name in enumerate(names)),
            f"return {self._format!r} % ({''.join(text + ', ' for text in texts)})",
        ]), self._namespace)
        return self._namespace.pop("text")

    def spliced(self, name: str) -> Callable[[object, str], str]:
        """The text writer with field ``name``'s text passed in: ``f(o, t)``
        writes ``t`` where ``text(o)`` would format ``o.<name>``."""
        if name not in self._spliced:
            self._spliced[name] = self._compile_text(name)
        return self._spliced[name]

    def decode(self, payload):
        try:
            return self._decode_complete(payload)
        except _DECODE_ERRORS:
            pass
        # The slow path: fill in the defaults of missing fields, and name
        # the field (or the class) that fails.
        where = self.cls.__name__
        try:
            if self.positional and len(payload) != len(self.fields):
                raise ValueError(f"holds {len(payload)} values for {len(self.fields)} fields")
            if not self.positional:
                unknown = payload.keys() - self.keys
                if unknown:
                    raise ValueError(f"names unknown field(s) {sorted(unknown)}")
                payload = {f.key: payload.get(f.key, f.default) for f in self.fields}
            for field, raw in zip(self.fields, payload if self.positional else payload.values()):
                where = f"{self.cls.__name__}.{field.name}"
                if raw is _REQUIRED:
                    raise ValueError("is missing")
                field.decode(raw)
            where = self.cls.__name__
            return self._decode_complete(payload)
        except _DECODE_ERRORS as error:
            raise RecoveryError(f"{where}: {error}") from None


def _source(
    tp, source: str, namespace: Dict[str, object], decoding: bool = False, depth: int = 0
) -> str:
    """A Python expression encoding ``source``, a value of type ``tp`` --
    or, ``decoding``, rebuilding that value from ``source``, its stored
    form; helpers it calls go into ``namespace``.  ``int`` / ``float`` /
    ``str`` / ``bool`` are stored as they are (decoding calls the type), an
    ``Enum`` as its value, ``Optional[X]`` as ``null`` or ``X``, a dataclass
    through its own plan, ``Tuple[X, ...]`` / ``List[X]`` as a list and
    ``Dict[str, X]`` as an object."""
    if tp in _SCALARS:
        return f"{tp.__name__}({source})" if decoding else source
    if isinstance(tp, type) and issubclass(tp, enum.Enum):
        namespace[tp.__name__] = tp
        return f"{tp.__name__}({source})" if decoding else f"{source}.value"
    if dataclasses.is_dataclass(tp):
        plan = _PLANS[tp]
        name = f"_{'decode' if decoding else 'encode'}_{tp.__name__}"
        namespace[name] = plan.decode if decoding else plan.encode
        return f"{name}({source})"
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType) and len(args) == 2 and type(None) in args:
        inner = args[0] if args[1] is type(None) else args[1]
        converted = _source(inner, source, namespace, decoding, depth)
        return source if converted == source else f"(None if {source} is None else {converted})"
    item = f"v{depth}"
    if origin is list or (origin is tuple and args[1:] == (Ellipsis,)):
        converted = _source(args[0], item, namespace, decoding, depth + 1)
        if converted == item:
            return f"list({source})"
        listed = f"[{converted} for {item} in {source}]"
        return f"tuple({listed})" if decoding and origin is tuple else listed
    if origin is dict and args[0] is str:
        converted = _source(args[1], item, namespace, decoding, depth + 1)
        if converted == item:
            return f"dict({source})"
        return f"{{k{depth}: {converted} for k{depth}, {item} in {source}.items()}}"
    raise TypeError(f"the durable-state codec has no rule for {tp!r}")


#: ``json.dumps(value, separators=(",", ":"))``, the encoder built once
_dumps = json.JSONEncoder(separators=(",", ":")).encode


#: The names a compiled text writer calls.
_TEXT_HELPERS: Dict[str, object] = {"_repr": repr, "_str": _json_str, "_dumps": _dumps}

#: The fast form of a scalar of each type, for the value ``{0}``; any other
#: value (a float that is not finite, an int in a float field) goes
#: through json itself.
_SCALAR_TEXTS = {
    int: "(_repr({0}) if type({0}) is int else _dumps({0}))",
    float: "(_repr({0}) if type({0}) is float and {0} - {0} == 0.0 else _dumps({0}))",
    str: "(_str({0}) if type({0}) is str else _dumps({0}))",
    bool: "('true' if {0} is True else 'false' if {0} is False else _dumps({0}))",
}


def _text_source(tp, source: str, namespace: Dict[str, object], depth: int = 0) -> str:
    """A Python expression writing the JSON text of ``source``, a value of
    type ``tp``, as json writes what :func:`_source` encodes it to:
    ``source`` is named more than once, so it must be a name.  Helpers it
    calls go into ``namespace``.  An exact ``int`` / ``str`` is its
    ``repr`` / :func:`json.encoder.encode_basestring_ascii`, a finite
    ``float`` its shortest ``repr``, and any other scalar goes through json
    (``Infinity``, ``NaN``, a subclass); an ``Enum`` member is its value's
    text, ``Optional[X]`` is ``null`` or ``X``, a dataclass goes through its
    own plan, ``Tuple[X, ...]`` / ``List[X]`` are joined item texts and
    ``Dict[str, X]`` joined key/value texts in insertion order."""
    if tp in _SCALARS:
        return _SCALAR_TEXTS[tp].format(source)
    if isinstance(tp, type) and issubclass(tp, enum.Enum):
        name = f"_enum_{tp.__name__}"
        namespace[name] = {member: _dumps(member.value) for member in tp}
        return f"({name}.get({source}) or _dumps({source}.value))"
    if dataclasses.is_dataclass(tp):
        name = f"_text_{tp.__name__}"
        namespace[name] = _PLANS[tp].text
        return f"{name}({source})"
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType) and len(args) == 2 and type(None) in args:
        inner = args[0] if args[1] is type(None) else args[1]
        return f"('null' if {source} is None else {_text_source(inner, source, namespace, depth)})"
    item, key = f"v{depth}", f"k{depth}"
    if origin is list or (origin is tuple and args[1:] == (Ellipsis,)):
        converted = _text_source(args[0], item, namespace, depth + 1)
        return f"('[%s]' % ','.join([{converted} for {item} in {source}]))"
    # Dict[str, X], the one hint left that _source accepts (a plan compiles
    # the encoder first).  json writes a non-string key as a string.
    converted = _text_source(args[1], item, namespace, depth + 1)
    return (
        f"('{{%s}}' % ','.join([(_str({key}) if type({key}) is str else _dumps({{{key}: 0}})[1:-3])"
        f" + ':' + {converted} for {key}, {item} in {source}.items()]))"
    )


def text(obj) -> str:
    """``obj`` (a dataclass instance) as the JSON text of its :func:`encode`
    output: ``json.dumps(encode(obj), separators=(",", ":"))``, written
    without building the encoded data."""
    return _PLANS[type(obj)].text(obj)


def scalar_text(value) -> str:
    """A JSON scalar's text, as json writes it (a finite float is its repr)."""
    return repr(value) if type(value) is float and value - value == 0.0 else _dumps(value)


class _Plans(dict):
    """Every class's plan, built on first use (a plan depends on nothing
    but its class, so one cache serves the process)."""

    def __missing__(self, cls: type) -> _Plan:
        plan = self[cls] = _Plan(cls)
        return plan


_PLANS = _Plans()


def durable_fields(cls: type) -> Tuple[DurableField, ...]:
    """The stored fields of dataclass ``cls``, in stored order."""
    return _PLANS[cls].fields


def encode(obj) -> object:
    """``obj`` (a dataclass instance) as JSON-able data."""
    return _PLANS[type(obj)].encode(obj)


def decode(cls: type, payload: object):
    """Rebuild a ``cls`` instance from :func:`encode`'s output.

    Raises:
        RecoveryError: naming the class and field the payload gets wrong.
    """
    return _PLANS[cls].decode(payload)


def _retire_knobs(
    payload: Mapping[str, object], accepted: Collection[str], where: str
) -> Dict[str, object]:
    """``payload`` with retired knobs mapped through
    :data:`~repro.core.config.RETIRED_CONFIG_KEYS`; a retired knob outside
    ``accepted`` is dropped.

    Raises:
        RecoveryError: for any other key outside ``accepted``.
    """
    fields: Dict[str, object] = {}
    for key, value in payload.items():
        if key in RETIRED_CONFIG_KEYS:
            retired = RETIRED_CONFIG_KEYS[key]
            value = retired.get(value, value) if isinstance(retired, dict) else retired
            if value is DROP or key not in accepted:
                continue
        elif key not in accepted:
            raise RecoveryError(f"{where} names unknown parameter {key!r}")
        fields[key] = value
    return fields


def deserialize_config(payload: Dict[str, object]) -> SystemConfig:
    """Rebuild a config from its :func:`encode` payload.

    Retired knobs replay through
    :data:`~repro.core.config.RETIRED_CONFIG_KEYS`.

    Raises:
        RecoveryError: when the payload names any other unknown field, or a
            value the config refuses (an unknown routing backend, a negative
            price coefficient, a value of the wrong type), naming the field.
    """
    known = [field.key for field in durable_fields(SystemConfig)]
    fields = _retire_knobs(payload, known, "the journaled config")
    try:
        return decode(SystemConfig, fields)
    except RecoveryError as error:
        raise RecoveryError(f"the journaled config is refused: {error}") from None


# ----------------------------------------------------------------------
# full service state
# ----------------------------------------------------------------------
def _statistics_delta(stats, marker: Mapping[str, int]) -> Dict[str, object]:
    """A statistics partition, incrementally: every counter wholesale (a
    scalar, stored as it is), the append-only lists as the ``suffix``
    appended past ``marker`` (their lengths at the last snapshot point), and
    the sim partition's lifecycle ``records`` only where dirtied (a dirty id
    with no live record as ``null``: deleted, mirroring the bookings
    partition's retention convention)."""
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


def _fold_statistics(state: Dict[str, object], delta: Dict[str, object], cls) -> None:
    """Fold a :func:`_statistics_delta` into a full statistics partition."""
    changes = dict(delta)
    suffix = changes.pop("suffix")
    records = changes.pop("records", {})
    state.update(changes)
    for field in durable_fields(cls):
        if field.append_only:
            state[field.key] = state[field.key] + suffix.get(field.key, [])
    for rid, record in records.items():
        if record is None:
            state["records"].pop(rid, None)
        else:
            state["records"][rid] = record


def _serialize_meta_small(
    service,
    chain: Optional["SnapshotChain"] = None,
    pending_marker: Optional[Tuple[int, int]] = None,
) -> Dict:
    """The genuinely small meta keys: everything except bookings, vehicles
    and the two statistics partitions.

    Simulated time, RNG state, the engine's motion/target/assignment
    bookkeeping (bounded by the fleet and its active rides), the
    micro-batcher's pending window, the adaptive-window controller state
    and the config.  Cheap and interdependent, so every incremental delta
    carries it wholesale -- except the pending window, which can be the
    single largest partition during a surge (hundreds of queued requests
    per cadence interval).

    With ``chain`` the pending window is its JSON text already (a
    :class:`_Text`), each request's text taken from the chain
    (:meth:`SnapshotChain.request_text`).  When a delta also gives
    ``pending_marker`` as ``(epoch, length)`` from the previous snapshot
    point and the batcher's
    :attr:`~repro.service.ingest.MicroBatcher.pending_epoch` still matches
    (no flush / eviction / cancel happened since -- appends only), the
    window becomes ``{"suffix": [...]}`` carrying just the newly admitted
    entries; :func:`fold_delta` extends the folded queue.  Any epoch
    mismatch falls back to the wholesale list.
    """
    engine = service._engine
    batcher = service._batcher
    rng_state = engine._rng.getstate()
    entries = batcher.pending_entries()
    if chain is None:
        pending = [[encode(request), admitted] for request, admitted in entries]
    else:
        appended = (
            pending_marker is not None
            and pending_marker[0] == batcher.pending_epoch
            and pending_marker[1] <= len(entries)
        )
        request_text = chain.request_text
        pending = _Text("[%s]" % ",".join([
            "[%s,%s]" % (request_text(request), scalar_text(admitted))
            for request, admitted in entries[pending_marker[1] if appended else 0:]
        ]))
        if appended:
            pending = _Text('{"suffix":%s}' % pending)
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
        "pending": pending,
        "window_opened": batcher.window_opened,
        "controller": batcher.controller_state(),
        "config": encode(service._config),
    }


def serialize_state(service, chain: Optional["SnapshotChain"] = None) -> Dict[str, object]:
    """Capture the full logical state of a service as a JSON-able dict.

    Everything recovery needs to resume: bookings (requests, option
    skylines, choices), the booking counter, every vehicle (as its
    :class:`~repro.vehicles.fleet.VehicleSnapshot`), the engine's
    motion/target/assignment bookkeeping, simulated time, the idle-wander
    RNG state, the statistics counters, the micro-batcher's pending window,
    counters and adaptive-window controller state, the dispatcher's
    active-request map and the current config.  JSON round-trips Python
    floats exactly (shortest-repr), so restored state compares equal.  The
    layout is partitioned -- bookings / vehicles / everything-else -- so
    incremental snapshot deltas (:func:`write_delta`) can re-serialise only
    what was touched.

    With ``chain`` the pending window, bookings and vehicles are their JSON
    text already (:class:`_Text`), for :func:`_object_text` to write as a
    full snapshot's body.  Without it they are data: what
    :func:`canonical_state` compares, whose strings are the live objects'
    own (parsing the text back would allocate every one of them again).
    """
    state = _serialize_meta_small(service, chain)
    state["sim_stats"] = encode(service._engine.statistics)
    state["ingest_stats"] = encode(service._batcher.statistics)
    bookings = service._bookings.values()
    vehicles = [snapshot_vehicle(vehicle) for vehicle in service._fleet.vehicles()]
    if chain is None:
        state["bookings"] = [encode(booking) for booking in bookings]
        state["vehicles"] = [encode(vehicle) for vehicle in vehicles]
    else:
        state["bookings"] = _Text("[%s]" % ",".join(map(chain.booking_text, bookings)))
        state["vehicles"] = _Text("[%s]" % ",".join(map(text, vehicles)))
    return state


def restore_state(service, state: Dict[str, object]) -> None:
    """Overwrite ``service``'s live state with a :func:`serialize_state` dict.

    The service must already run the snapshot's config (matcher, dispatch
    knobs, routing backend) on a fleet without taxis: the snapshot's taxis
    are added to it.  :meth:`PTRiderService.recover` guarantees both by
    building the service on the snapshot's own config payload, through
    ``assemble_fleet(..., vehicles=0)``.

    Raises:
        RecoveryError: when a stored value does not decode.
    """
    from repro.service.api import Booking

    engine = service._engine
    batcher = service._batcher
    for payload in state["vehicles"]:
        service._fleet.add_vehicle(restore_vehicle(decode(VehicleSnapshot, payload)))
    engine._time = float(state["time"])
    engine._ticks = int(state["ticks"])
    rng_version, rng_values, rng_extra = state["rng_state"]
    engine._rng.setstate((int(rng_version), tuple(rng_values), rng_extra))
    engine._motions = {vid: decode(MotionState, m) for vid, m in state["motions"].items()}
    engine._targets = {vid: None if t is None else int(t) for vid, t in state["targets"].items()}
    engine._assignments = {
        rid: decode(_AssignmentRecord, record) for rid, record in state["assignments"].items()
    }
    engine.statistics = decode(SimulationStatistics, state["sim_stats"])
    service._next_booking = int(state["booking_next"])
    service._bookings.clear()
    for payload in state["bookings"]:
        booking = decode(Booking, payload)
        service._bookings[booking.booking_id] = booking
    service._ingest_answered = [service._bookings[bid] for bid in state["ingest_answered"]]
    service._dispatcher._active_requests = {
        rid: str(vid) for rid, vid in state["active_requests"].items()
    }
    service._dispatcher.count_live_stops()
    # Into the service's own counters, which every batcher it builds adds to.
    vars(service._ingest_statistics).update(
        vars(decode(IngestStatistics, state["ingest_stats"]))
    )
    batcher.restore_pending(
        [(decode(Request, request), float(admitted)) for request, admitted in state["pending"]],
        state["window_opened"],
    )
    batcher.restore_controller(state.get("controller"))


def canonical_state(service) -> Dict[str, object]:
    """The service's logical state with wall-clock measurements stripped.

    Two services that processed the same events -- one live, one recovered
    from a journal -- compare equal under ``==`` of their canonical states;
    this is the property the fault-injection harness asserts.  The fields
    stripped are those marked ``wall_clock``.
    """
    from repro.service.api import Booking

    state = serialize_state(service)
    for payloads, cls in (
        (state["bookings"], Booking),
        ([state["sim_stats"]], SimulationStatistics),
        ([state["ingest_stats"]], IngestStatistics),
    ):
        keys = [field.key for field in durable_fields(cls) if field.wall_clock]
        for payload in payloads:
            for key in keys:
                payload.pop(key, None)
    # The adaptive controller's EWMAs are driven by wall-clock flush walls;
    # replay pins the recorded per-command windows instead (the journal
    # payloads carry them), so controller internals are not canonical.
    state.pop("controller", None)
    return state


# ----------------------------------------------------------------------
# snapshot files
# ----------------------------------------------------------------------
def write_snapshot(journal: ServiceJournal, service, seq: int) -> int:
    """Atomically write the service's state as the snapshot at ``seq``;
    returns the bytes written.

    The payload is written to a ``.tmp`` sibling first and moved into place
    with ``os.replace``, so a crash mid-snapshot leaves only an ignored
    temp file; a SHA-256 checksum over the state JSON lets recovery detect
    a corrupt or truncated snapshot and fall back to an older one.  Old
    snapshots beyond :data:`SNAPSHOT_KEEP` are pruned.
    """
    size = _write_document(
        journal.snapshot_path(seq),
        f'"seq":{seq}',
        "state",
        _object_text(serialize_state(service, service._chain)),
    )
    journal.prune_snapshots(keep=SNAPSHOT_KEEP)
    return size


class _Text(str):
    """JSON text already written, spliced into a document as it is."""


def _object_text(parts: Mapping[str, object]) -> str:
    """The JSON text of the object ``parts``: a :class:`_Text` value as it
    is, any other through json -- ``json.dumps(parts, separators=(",",
    ":"))`` had every :class:`_Text` been its data."""
    return "{%s}" % ",".join([
        "%s:%s" % (_json_str(key), value if type(value) is _Text else _dumps(value))
        for key, value in parts.items()
    ])


def _write_document(target: Path, header: str, body_key: str, body_text: str) -> int:
    """Write ``{header, "checksum": ..., body_key: body}`` to ``target``
    atomically (tmp-then-rename), the checksum taken over ``body_text``,
    the body's JSON; returns the bytes written."""
    checksum = _sha256(body_text)
    # The body is embedded verbatim, so the loader hashes these very bytes
    # back.
    tmp = target.with_name(f"{target.name}.{os.getpid()}.tmp")
    document = '{%s,"checksum":"%s","%s":%s}' % (header, checksum, body_key, body_text)
    tmp.write_text(document, encoding="utf-8")
    os.replace(tmp, target)
    return len(document)  # every writer escapes everything past ASCII: one byte a character


def _sha256(text: str) -> str:
    """The hex SHA-256 of ``text``'s UTF-8 bytes (a document's checksum)."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _load_document(path: Path, body_key: str, **header: int) -> Optional[Dict[str, object]]:
    """The checksum-verified body of a :func:`_write_document` file, or
    ``None`` when the file is unusable: unreadable, truncated, corrupt, of
    another :data:`STATE_VERSION`, or with a header other than ``header``.

    The checksum is taken over the body text as stored, which is the text
    :func:`_write_document` hashed.  A document written another way (a
    re-indented old file) does not store that text; its parsed body is
    re-encoded compactly and hashed instead."""
    try:
        text = path.read_text(encoding="utf-8")
        document = json.loads(text)
        body = document[body_key]
        checksum = document["checksum"]
        marker = '"checksum":"%s","%s":' % (checksum, body_key)
        start = text.find(marker)
        stored = text[start + len(marker) : -1] if start >= 0 else ""
        if _sha256(stored) != checksum:
            if _sha256(json.dumps(body, separators=(",", ":"))) != checksum:
                return None
        if int(body.get("version", -1)) != STATE_VERSION:
            return None
        if any(document[key] != value for key, value in header.items()):
            return None
        return body
    except (OSError, ValueError, KeyError, TypeError, AttributeError):
        return None


def write_delta(journal: ServiceJournal, service, seq: int, chain: "SnapshotChain") -> int:
    """Atomically write an incremental snapshot delta at ``seq``; returns
    the bytes written.

    A delta re-serialises only what changed since the previous snapshot
    point: the small meta partition in full, the statistics partitions
    incrementally (:func:`_statistics_delta`, past the chain's
    ``stats_marker``), and only the *dirty* bookings and vehicles.
    ``dirty_bookings`` maps booking id -> ``None`` in creation order so a
    fold preserves the bookings-list order of :func:`serialize_state`; ids
    no longer live serialise as ``null`` (retention-pruned).  The delta
    chains on the previous snapshot point under the newest full snapshot;
    recovery folds the longest valid chain and journal-replays past any
    break.

    Everything here is O(changed-since-last-point), never O(history) --
    that is the whole point: the hot-path stall a cadence crossing causes
    stays a small constant fraction of a full serialisation however long
    the day has run.  The body is written as text from its parts; the
    requests of the pending window and of the dirty bookings splice the text
    their admission record was written with (:meth:`SnapshotChain.admit`).
    """
    live = service._bookings
    stats_marker = chain.stats_marker
    pending_marker = (stats_marker.get("pending_epoch", -1), stats_marker.get("pending_len", 0))
    booking_text = chain.booking_text
    delta = {
        "version": STATE_VERSION,
        "meta": _Text(_object_text(_serialize_meta_small(service, chain, pending_marker))),
        "sim_stats": _statistics_delta(service._engine.statistics, stats_marker),
        "ingest_stats": _statistics_delta(service._batcher.statistics, stats_marker),
        "bookings": _Text("{%s}" % ",".join([
            "%s:%s" % (
                _json_str(booking_id),
                booking_text(live[booking_id]) if booking_id in live else "null",
            )
            for booking_id in chain.dirty_bookings
        ])),
        "vehicles": _Text("{%s}" % ",".join([
            "%s:%s" % (_json_str(vehicle.vehicle_id), text(snapshot_vehicle(vehicle)))
            for vehicle in service._fleet.vehicles()
            if vehicle.vehicle_id in chain.dirty_vehicles
        ])),
    }
    header = f'"seq":{seq},"base":{chain.full_seq},"prev":{chain.point_seq}'
    return _write_document(journal.delta_path(seq), header, "delta", _object_text(delta))


def fold_delta(state: Dict[str, object], delta: Dict[str, object]) -> None:
    """Fold one delta into a full-snapshot ``state`` dict, in place.

    The meta partition overwrites wholesale (a ``{"suffix": [...]}``
    pending window extends the folded queue instead), the statistics
    partitions fold as :func:`_fold_statistics` says, dirty vehicles
    replace theirs by id (the fleet is fixed), and dirty bookings replace
    in place, append in creation order or, ``null``, drop out.  A folded
    state is byte-identical to the :func:`serialize_state` the service
    would have produced at the same sequence position.
    """
    for key, value in delta["meta"].items():
        if key == "pending" and isinstance(value, dict):
            # Appends-only interval: the delta ships just the suffix of
            # newly admitted entries (see _serialize_meta_small).
            state[key] = list(state[key]) + list(value["suffix"])
        else:
            state[key] = value
    _fold_statistics(state["sim_stats"], delta["sim_stats"], SimulationStatistics)
    _fold_statistics(state["ingest_stats"], delta["ingest_stats"], IngestStatistics)
    vehicles = delta["vehicles"]
    if vehicles:
        state["vehicles"] = [vehicles.get(p["vehicle_id"], p) for p in state["vehicles"]]
    if delta["bookings"]:
        # Replaced bookings keep their place, new ones append in creation
        # order, and retention-pruned ones (``null``) drop out.
        folded = {payload["booking_id"]: payload for payload in state["bookings"]}
        folded.update(delta["bookings"])
        state["bookings"] = [payload for payload in folded.values() if payload is not None]


def load_snapshot_state(
    journal: ServiceJournal, prefer_snapshot: bool = True
) -> Tuple[int, Dict[str, object]]:
    """The newest valid snapshot's ``(seq, state)``: :meth:`SnapshotChain.load`
    without the chain."""
    _chain, seq, state = SnapshotChain.load(journal, prefer_snapshot)
    return seq, state


def _fold_delta_chain(
    deltas: List[Tuple[int, Path]], base_seq: int, state: Dict[str, object]
) -> int:
    """Fold the longest valid chain of ``deltas`` over the full snapshot
    ``state`` at ``base_seq``; returns the seq the folded state stands at."""
    prev_seq = base_seq
    for delta_seq, delta_path in deltas:
        if delta_seq <= base_seq:
            continue
        delta = _load_document(delta_path, "delta", seq=delta_seq, base=base_seq, prev=prev_seq)
        if delta is None:
            # a corrupt or torn delta, a chain gap or a stale delta from an
            # older full snapshot: journal replay covers the rest
            break
        fold_delta(state, delta)
        prev_seq = delta_seq
    return prev_seq


@dataclasses.dataclass
class _SnapshotStatistics:
    """Persistence-cost attribution for the admin panel: counts, last-file
    bytes and cumulative wall seconds of full snapshots vs incremental deltas
    (``full_seconds`` is the background compaction bill)."""

    full_count: int = 0
    delta_count: int = 0
    full_bytes: int = 0
    delta_bytes: int = 0
    full_seconds: float = 0.0
    delta_seconds: float = 0.0


@dataclasses.dataclass
class SnapshotChain:
    """The snapshot chain a durable service extends, and its cadence.

    On disk the chain is a full snapshot followed by deltas, each naming
    the full snapshot as its ``base`` and the point before it as ``prev``.
    Under ``durability="journal+snapshot"`` :meth:`finish` writes a point
    every ``snapshot_interval`` records; the service marks what each command
    mutates (:meth:`mark`) so a delta carries just that.  Without deltas
    nothing is marked.  The baseline snapshot at position 0 is the one
    point written outside the chain's bookkeeping.
    """

    #: journal position of the newest full snapshot (the deltas' base)
    full_seq: int = 0
    #: journal position of the newest snapshot point, full or delta
    point_seq: int = 0
    #: deltas written since the newest full snapshot (compaction trigger)
    deltas: int = 0
    #: whether the service's state is the chain's end.  A recovery that
    #: restores *behind* it (``prefer_snapshot=False``, or a fold cut short
    #: by a torn delta) cannot extend the chain with suffix-based deltas --
    #: their list tails would overlap what the chain already carries -- so
    #: the next cadence crossing writes a full snapshot instead.
    valid: bool = True
    #: whether points are written as the service runs (``journal+snapshot``);
    #: only then are the dirty sets below, and the sim statistics'
    #: ``dirty_records``, filled
    tracking: bool = False
    #: booking ids mutated since the last point, an insertion-ordered dict
    #: used as an ordered set.  Re-marking an id keeps its place, so a delta
    #: fold reproduces the full serialisation's bookings-list order; marking
    #: is unconditional, so replay dirties what live execution did.
    dirty_bookings: Dict[str, None] = dataclasses.field(default_factory=dict)
    #: vehicle ids mutated since the last point
    dirty_vehicles: Set[str] = dataclasses.field(default_factory=set)
    #: request id -> (request, its JSON text) for every request journaled
    #: since the last point or still pending at it, so a delta splices the
    #: text the admission record was written with instead of formatting the
    #: request again
    request_texts: Dict[str, Tuple[Request, str]] = dataclasses.field(default_factory=dict)
    #: lengths of the append-only statistics lists (and the pending
    #: window's epoch and length) at the last point: a delta serialises
    #: only what lies past them
    stats_marker: Dict[str, int] = dataclasses.field(default_factory=dict)
    stats: _SnapshotStatistics = dataclasses.field(default_factory=_SnapshotStatistics)

    @classmethod
    def load(
        cls, journal: ServiceJournal, prefer_snapshot: bool = True
    ) -> Tuple["SnapshotChain", int, Dict[str, object]]:
        """Walk the chain on disk: ``(chain, seq, state)``, the newest valid
        snapshot's state at ``seq`` and the chain positioned at its end.

        Walks the snapshot files newest-first, skipping corrupt or partial
        ones (bad checksum, truncated JSON, version mismatch) -- falling
        back to an older snapshot simply means a longer replay.  When
        incremental deltas exist on top of the chosen full snapshot, the
        longest valid chain (each delta checksummed, ``base`` == the full
        snapshot's seq, ``prev`` linking snapshot -> delta -> delta without
        gaps) is folded in order; a corrupt or torn delta truncates the
        chain there, and journal replay covers the rest.  With
        ``prefer_snapshot=False`` only the baseline (sequence position 0)
        is restored and deltas are ignored, forcing a full-journal replay
        -- the ablation arm of the recovery benchmark and the reference
        side of the snapshot+tail == full-replay property.

        The chain's end is the newest file on disk, read or not: the next
        point lands a ``snapshot_interval`` past it, and it is
        :attr:`valid` only when ``seq`` reached it.

        Raises:
            RecoveryError: when no snapshot (not even the baseline) is usable.
        """
        fulls, deltas = journal.snapshot_files(), journal.delta_files()
        candidates = fulls if prefer_snapshot else [(seq, path) for seq, path in fulls if seq == 0]
        for seq, path in reversed(candidates):
            state = _load_document(path, "state", seq=seq)
            if state is not None:
                break
        else:
            raise RecoveryError(
                f"no usable snapshot in {journal.directory} "
                f"(checked {len(candidates)} file(s))"
            )
        if prefer_snapshot:
            seq = _fold_delta_chain(deltas, seq, state)
        full_seq = fulls[-1][0]
        point_seq = max(full_seq, deltas[-1][0]) if deltas else full_seq
        chain = cls(
            full_seq=full_seq,
            point_seq=point_seq,
            deltas=sum(1 for delta_seq, _ in deltas if delta_seq > full_seq),
            valid=seq >= point_seq,
        )
        return chain, seq, state

    def finish(self, service) -> None:
        """The cadence, after each journaled command under
        ``durability="journal+snapshot"``.

        A cadence crossing writes a cheap delta (dirty partitions only), or
        a full snapshot while the chain is not :attr:`valid`.  After
        :data:`DELTA_COMPACT_AFTER` deltas a compaction (a full snapshot)
        is due; it runs only between windows -- never inside a flush, so it
        can never inflate a serving window's latency.
        """
        if not self.tracking:
            return
        if service._applied_seq - self.point_seq >= service._config.snapshot_interval:
            self.write(service, full=not self.valid)
        if self.deltas >= DELTA_COMPACT_AFTER and service._batcher.pending == 0:
            self.write(service, full=True)

    def write(self, service, full: bool) -> Path:
        """Write a point at the journal's position; returns its path.

        A full snapshot restarts the chain (the deltas it supersedes are
        pruned); a delta serialises what was dirtied since the previous
        point and chains on it.  Either way the next point's tracking
        starts here (:meth:`start`).
        """
        journal = service._journal
        journal.commit()  # no point names a seq a crash could still take back
        seq = journal.last_seq()
        stats = self.stats
        started = time.perf_counter()
        if full:
            stats.full_bytes = write_snapshot(journal, service, seq)
            stats.full_seconds += time.perf_counter() - started
            stats.full_count += 1
            journal.prune_deltas(seq)
            self.full_seq, self.deltas, self.valid = seq, 0, True
            path = journal.snapshot_path(seq)
        else:
            stats.delta_bytes = write_delta(journal, service, seq, self)
            stats.delta_seconds += time.perf_counter() - started
            stats.delta_count += 1
            self.deltas += 1
            path = journal.delta_path(seq)
        self.point_seq = seq
        self.start(service)
        return path

    def start(self, service) -> None:
        """Start tracking what the next point must carry, from ``service``'s
        state now: a written point, or a restore (the replayed tail then
        dirties exactly what live execution did).

        Empties the dirty sets and the request texts of requests no longer
        pending (:meth:`track`), and
        records the lengths of the lists the statistics mark
        ``append_only`` and the pending window's epoch and length -- while
        that epoch still matches (appends only), the next delta ships just
        the newly admitted entries.
        """
        sim = service._engine.statistics
        batcher = service._batcher
        self.track(service)
        self.stats_marker = {
            field.key: len(getattr(stats, field.name))
            for stats in (sim, batcher.statistics)
            for field in durable_fields(type(stats))
            if field.append_only
        }
        self.stats_marker["pending_epoch"] = batcher.pending_epoch
        self.stats_marker["pending_len"] = batcher.pending

    def track(self, service) -> None:
        """Empty the dirty sets -- the bookings, the vehicles and the sim
        statistics' lifecycle records -- and keep filling them only under
        ``journal+snapshot``: no delta reads them otherwise, and they would
        grow with every request served.

        The request texts keep only the requests still pending in the
        batcher's queue: each one's booking lands in a later delta, which
        splices the kept text instead of formatting the request again.  So
        they stay bounded by the queue plus one snapshot interval.
        """
        self.tracking = service._config.durability == "journal+snapshot"
        self.dirty_bookings = {}
        self.dirty_vehicles = set()
        kept, self.request_texts = self.request_texts, {}
        if self.tracking and kept:
            for request, _admitted in service._batcher.pending_entries():
                pair = kept.get(request.request_id)
                if pair is not None and pair[0] is request:
                    self.request_texts[request.request_id] = pair
        service._engine.statistics.dirty_records = {} if self.tracking else None

    def admit(self, request: Request) -> str:
        """``request``'s JSON text for its journal record, kept for the next
        point's delta while tracking."""
        request_text = text(request)
        if self.tracking:
            self.request_texts[request.request_id] = (request, request_text)
        return request_text

    def request_text(self, request: Request) -> str:
        """``request``'s JSON text: the one :meth:`admit` kept, when it was
        kept for this very object (a reused request id does not match)."""
        kept = self.request_texts.get(request.request_id)
        if kept is not None and kept[0] is request:
            return kept[1]
        return text(request)

    def booking_text(self, booking) -> str:
        """``booking``'s JSON text, its request's through :meth:`request_text`."""
        write = _PLANS[type(booking)].spliced("request")
        return write(booking, self.request_text(booking.request))

    def mark(self, bookings: Iterable[str] = (), vehicles: Iterable[str] = ()) -> None:
        """Note the bookings and vehicles a command changed, for the next delta."""
        if self.tracking:
            for booking_id in bookings:
                self.dirty_bookings[booking_id] = None
            self.dirty_vehicles.update(vehicles)


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
            service.book_request(decode(Request, payload["request"]))
        elif kind == "book_batch":
            # An older build's burst: one booking per request, each matched
            # against the same fleet; a broken trip booked with no options.
            for body in payload["requests"]:
                request = decode(Request, body)
                try:
                    service.book_request(request)
                except PTRiderError:
                    service._add_booking(request, ())
        elif kind == "admit":
            service.ingest_request(decode(Request, payload["request"]), now=float(payload["now"]))
        elif kind == "pump":
            service.pump(now=float(payload["now"]))
        elif kind == "drain" and payload.get("close"):
            service._close_drain(float(payload["now"]))
        elif kind == "drain":
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
                    knob_names(RUNTIME),
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


class OutcomeAnnotation:
    """The window-flush outcomes one command produced, in flush order.

    A dispatcher ``outcome_listener``.  The live service journals what it
    heard as one ``outcome`` record when the command finishes (a record per
    outcome would double the journal's appends on the serving hot path);
    during :func:`replay_records`, which journals nothing, it collects what
    the replay re-derives for the cross-check against the recorded ones.  A crash before the record
    lands loses only the annotation -- replay tolerates re-deriving more
    outcomes than were recorded.
    """

    def __init__(self) -> None:
        self.outcomes: List[Dict[str, object]] = []

    def __call__(self, outcome) -> None:
        """Keep the deterministic portion of ``outcome`` (no wall-clock fields)."""
        chosen = outcome.chosen
        self.outcomes.append({
            "request_id": outcome.request.request_id,
            "options": [
                [option.vehicle_id, option.price, option.pickup_distance]
                for option in outcome.options
            ],
            "chosen": (
                None
                if chosen is None
                else [chosen.vehicle_id, chosen.price, chosen.pickup_distance]
            ),
            "direct_distance": outcome.direct_distance,
        })

    def append_to(self, journal: ServiceJournal) -> Optional[int]:
        """Append the outcomes heard as one record and forget them; returns
        its seq, or ``None`` when there were none."""
        if not self.outcomes:
            return None
        seq = journal.append("outcome", {"outcomes": self.outcomes})
        self.outcomes.clear()
        return seq


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
    # The service's own annotation hears the re-derived outcomes, through
    # whichever dispatcher a replayed reconfigure built; replay journals
    # nothing, so nothing appends or clears them on the way.
    heard = service._annotation
    heard.outcomes.clear()
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
        rederived = list(heard.outcomes)
    finally:
        heard.outcomes.clear()
    # Cross-check: every recorded flush outcome must match the re-derived
    # one at the same position.  The replay may legitimately produce *more*
    # outcomes than were recorded (a crash between a flush's commits and
    # its annotation appends), never different ones.
    for index, recorded in enumerate(expected):
        if index >= len(rederived):
            raise RecoveryError(
                f"journal records {len(expected)} flush outcomes but replay "
                f"re-derived only {len(rederived)}"
            )
        if recorded != rederived[index]:
            raise RecoveryError(
                "replay diverged from the journaled flush outcome for request "
                f"{recorded.get('request_id')!r}: recorded {recorded}, "
                f"re-derived {rederived[index]}"
            )
    return applied
