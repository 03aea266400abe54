"""Every type durable state stores round-trips through the recovery codec.

:func:`repro.service.recovery.encode` / :func:`~repro.service.recovery.decode`
are compiled from each dataclass's fields, so the property is stated once
for all of them: encode, dump to JSON, load, decode -- the value comes back
``==``, and re-encoding it writes the same JSON text.  ``None`` optionals,
empty schedules and empty maps are among the drawn values, and pinned as
explicit examples.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Dict, List, Set

import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.config import KNOBS, SystemConfig
from repro.core.pricing import LinearPriceModel
from repro.model.options import RideOption
from repro.model.request import Request
from repro.model.stops import Stop, StopKind
from repro.roadnet.routing import ROUTING_BACKENDS
from repro.service.api import Booking
from repro.service.ingest import IngestStatistics
from repro.service.recovery import RecoveryError, decode, encode
from repro.sim.engine import _AssignmentRecord
from repro.sim.stats import SimulationStatistics, _RequestRecord
from repro.vehicles.fleet import VehicleSnapshot
from repro.vehicles.movement import MotionState
from repro.vehicles.schedule import RequestState

amounts = st.floats(min_value=0.0, max_value=1e9, allow_nan=False)
positive = st.floats(min_value=1e-6, max_value=1e9, allow_nan=False)
signed = st.floats(allow_nan=False, allow_infinity=False)
counts = st.integers(min_value=0, max_value=2**40)
vertices = st.integers(min_value=0, max_value=10**6)
ids = st.text(min_size=1, max_size=12)


@st.composite
def requests(draw):
    start = draw(vertices)
    return Request(
        start=start,
        destination=draw(vertices.filter(lambda vertex: vertex != start)),
        riders=draw(st.integers(min_value=1, max_value=6)),
        max_waiting=draw(amounts),
        service_constraint=draw(amounts),
        request_id=draw(ids),
        submit_time=draw(amounts),
    )


stops = st.builds(
    Stop,
    vertex=vertices,
    request_id=ids,
    kind=st.sampled_from(StopKind),
    riders=st.integers(min_value=1, max_value=4),
)
schedules = st.lists(stops, max_size=4).map(tuple)
options = st.builds(
    RideOption,
    vehicle_id=ids,
    pickup_distance=amounts,
    price=amounts,
    request_id=ids,
    schedule=schedules,
    added_distance=signed,
)
request_states = st.builds(
    RequestState,
    request=requests(),
    onboard=st.booleans(),
    direct_distance=amounts,
    planned_pickup_remaining=signed,
    travelled_since_pickup=signed,
)
records = st.builds(
    _RequestRecord,
    submit_time=amounts,
    planned_pickup_distance=amounts,
    pickup_time=st.none() | amounts,
    dropoff_time=st.none() | amounts,
    shared=st.booleans(),
    direct_distance=amounts,
    travelled_distance=amounts,
)
sim_statistics = st.builds(
    SimulationStatistics,
    response_times=st.lists(amounts, max_size=4),
    option_counts=st.lists(counts, max_size=4),
    matched_requests=counts,
    unmatched_requests=counts,
    completed_requests=counts,
    shared_requests=counts,
    pickups=counts,
    dropoffs=counts,
    waiting_distances=st.lists(signed, max_size=4),
    detour_ratios=st.lists(signed, max_size=4),
    _records=st.dictionaries(ids, records, max_size=3),
)
ingest_statistics = st.builds(
    IngestStatistics,
    **{
        name: counts
        for name in (
            "admitted", "answered", "shed", "evicted", "errored", "cancelled",
            "close_drained", "size_closed", "window_closed", "forced",
            "deadline_closed", "deadline_misses", "window_grown", "window_shrunk",
            "retired", "peak_queue_depth",
        )
    },
    serving_seconds=amounts,
    window_fills=st.lists(amounts, max_size=4),
    latencies=st.lists(amounts, max_size=4),
)
price_models = st.builds(
    LinearPriceModel, base_ratio=amounts, rider_increment=amounts, booking_fee=amounts
)


def _choices(name):
    return KNOBS[name].metadata["check"].choices


@st.composite
def configs(draw):
    window_bounds = draw(st.none() | st.tuples(positive, positive).map(sorted))
    durability = draw(st.sampled_from(_choices("durability")))
    return SystemConfig(
        vehicle_capacity=draw(st.integers(min_value=1, max_value=8)),
        max_waiting=draw(amounts),
        service_constraint=draw(amounts),
        speed=draw(positive),
        max_pickup_distance=draw(st.none() | positive),
        matcher_name=draw(st.sampled_from(_choices("matcher_name"))),
        price_model=draw(price_models),
        routing_backend=draw(st.sampled_from(ROUTING_BACKENDS)),
        batch_window=draw(positive),
        max_batch_size=draw(st.integers(min_value=1, max_value=4096)),
        queue_capacity=draw(st.none() | st.integers(min_value=1, max_value=10**6)),
        queue_policy=draw(st.sampled_from(_choices("queue_policy"))),
        durability=durability,
        journal_path=None if durability == "off" else draw(ids),
        snapshot_interval=draw(st.integers(min_value=1, max_value=10**6)),
        latency_budget=draw(st.none() | positive),
        batch_window_mode=draw(st.sampled_from(_choices("batch_window_mode"))),
        batch_window_min=None if window_bounds is None else window_bounds[0],
        batch_window_max=None if window_bounds is None else window_bounds[1],
        snapshot_mode=draw(st.sampled_from(_choices("snapshot_mode"))),
        retention_horizon=draw(st.none() | positive),
    )


motions = st.builds(
    MotionState,
    location=vertices,
    route=st.lists(vertices, max_size=5).map(tuple),
    offset=amounts,
)
assignments = st.builds(
    _AssignmentRecord,
    vehicle_id=ids,
    planned_pickup_distance=amounts,
    driven_at_assignment=amounts,
)


@st.composite
def bookings(draw):
    offered = tuple(draw(st.lists(options, max_size=3)))
    return Booking(
        booking_id=draw(ids),
        request=draw(requests()),
        options=offered,
        chosen=draw(st.none() | st.sampled_from(offered)) if offered else None,
        response_seconds=draw(amounts),
    )


vehicle_snapshots = st.builds(
    VehicleSnapshot,
    vehicle_id=ids,
    location=vertices,
    capacity=st.integers(min_value=1, max_value=8),
    offset=amounts,
    waiting=st.dictionaries(ids, request_states, max_size=2),
    onboard=st.dictionaries(ids, request_states, max_size=2),
    order=st.lists(ids, max_size=4),
    schedules=st.lists(schedules, max_size=3),
    distance_driven=amounts,
    occupied_distance=amounts,
)

DURABLE_VALUES = st.one_of(
    requests(), stops, options, request_states, records, sim_statistics,
    ingest_statistics, price_models, configs(), motions, assignments,
    bookings(), vehicle_snapshots,
)

_REQUEST = Request(start=1, destination=2, request_id="R1")


@settings(max_examples=300, deadline=None)
@given(DURABLE_VALUES)
@example(_RequestRecord(submit_time=0.0))
@example(RideOption("c1", 0.0, 0.0))
@example(SimulationStatistics())
@example(IngestStatistics())
@example(SystemConfig())
@example(MotionState(location=3))
@example(Booking("b1", _REQUEST, ()))
@example(Booking("b2", _REQUEST, (RideOption("c1", 1.0, 2.0),), chosen=RideOption("c1", 1.0, 2.0)))
@example(VehicleSnapshot("c1", 0, 4, 0.0, {}, {}, [], [], 0.0, 0.0))
@example(VehicleSnapshot("c1", 0, 4, 0.0, {}, {}, [], [()], 0.0, 0.0))
def test_every_durable_type_round_trips_through_json(value):
    text = json.dumps(encode(value), separators=(",", ":"))
    restored = decode(type(value), json.loads(text))
    assert restored == value
    assert json.dumps(encode(restored), separators=(",", ":")) == text


# ----------------------------------------------------------------------
# a payload the codec cannot rebuild names the class and field at fault


def _request_payload(**changes):
    payload = encode(_REQUEST)
    for key, value in changes.items():
        if value is None:
            del payload[key]
        else:
            payload[key] = value
    return payload


@pytest.mark.parametrize(
    "cls, payload, message",
    [
        (Stop, [3, "R1", "pickup"], "Stop: holds 3 values for 4 fields"),
        (Request, _request_payload(start=None), "Request.start: is missing"),
        (Request, _request_payload(bogus=1), r"Request: names unknown field\(s\) \['bogus'\]"),
        (Request, _request_payload(start="north"), "Request.start: invalid literal"),
        (Stop, [3, "R1", "teleport", 1], "Stop.kind: 'teleport' is not a valid StopKind"),
    ],
    ids=["positional-length", "missing", "unknown", "bad-scalar", "bad-enum"],
)
def test_a_malformed_payload_names_what_it_gets_wrong(cls, payload, message):
    with pytest.raises(RecoveryError, match=message):
        decode(cls, payload)


def test_a_missing_field_with_a_default_takes_the_default():
    payload = _request_payload(submit_time=None)
    assert decode(Request, payload) == _REQUEST


@dataclasses.dataclass
class _Counts:
    counts: Dict[str, int]
    names: List[str]


@dataclasses.dataclass
class _Tags:
    tags: Set[str]


def test_scalar_maps_and_lists_are_stored_as_they_are():
    value = _Counts({"a": 1}, ["x", "y"])
    assert encode(value) == {"counts": {"a": 1}, "names": ["x", "y"]}
    assert decode(_Counts, {"counts": {"a": 2}, "names": []}) == _Counts({"a": 2}, [])


def test_a_type_without_a_rule_is_refused_when_its_plan_is_built():
    with pytest.raises(TypeError, match="no rule for typing.Set"):
        encode(_Tags({"a"}))
