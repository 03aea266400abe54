"""Backpressure invariants of the micro-batched ingest queue.

Random surge schedules -- interleavings of admissions, time advances, pumps
and explicit flushes -- are driven against a bounded
:class:`~repro.service.ingest.MicroBatcher` under both full-queue policies.
Whatever the schedule:

* the pending queue NEVER exceeds ``queue_capacity`` (the tentpole's
  "bounded, never unbounded buffering" claim);
* under ``"shed"`` a refused admission is counted, and only full queues
  refuse;
* under ``"block"`` no admission is ever refused (a full queue drains
  inline first);
* conservation holds at every step: every admitted request is answered,
  still pending, or accounted to a counted exit -- ``admitted == answered +
  pending + errored + cancelled + evicted`` -- and sheds never enter the
  queue.

Every request here carries the same ``max_waiting`` under a monotone clock,
so deadline-ordered eviction never fires (an incoming admission is always
the loosest) and the classic backpressure behaviour is pinned unchanged;
the eviction order itself is property-tested in
``tests/property/test_deadline_shedding.py``.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SystemConfig
from repro.core.dispatcher import Dispatcher
from repro.core.single_side import SingleSideSearchMatcher
from repro.model.request import Request
from repro.roadnet.generators import grid_network
from repro.roadnet.grid_index import GridIndex
from repro.roadnet.routing import make_engine
from repro.service.ingest import MicroBatcher
from repro.vehicles.fleet import Fleet
from repro.vehicles.vehicle import Vehicle

_NETWORK = grid_network(6, 6, weight_jitter=0.2, seed=5)
_VERTICES = _NETWORK.vertices()


def _config(**knobs) -> SystemConfig:
    knobs = {"batch_window": 2.0, "max_batch_size": 64, **knobs}
    return SystemConfig(max_waiting=6.0, service_constraint=0.5, **knobs)


def _configs(**knobs):
    """Configs drawn with the given knobs' strategies (the rest fixed)."""
    return st.builds(_config, **knobs)


_capacities = st.integers(min_value=1, max_value=8)


def _build_batcher(config):
    grid = GridIndex(_NETWORK, rows=3, columns=3)
    fleet = Fleet(grid, make_engine(_NETWORK, "csr"))
    for index in range(4):
        fleet.add_vehicle(
            Vehicle(f"c{index + 1}", location=_VERTICES[(index * 9) % len(_VERTICES)], capacity=4)
        )
    matcher = SingleSideSearchMatcher(fleet, config=config)
    return MicroBatcher(Dispatcher(fleet, matcher, config), config)


def _request(index: int, submit: float) -> Request:
    start = _VERTICES[(index * 5) % len(_VERTICES)]
    destination = _VERTICES[(index * 5 + 7) % len(_VERTICES)]
    if destination == start:
        destination = _VERTICES[(index * 5 + 8) % len(_VERTICES)]
    return Request(
        start=start, destination=destination, riders=1, max_waiting=6.0,
        service_constraint=0.5, request_id=f"S{index}", submit_time=submit,
    )


#: One schedule step: admit a burst of N requests, advance time by dt and
#: pump, or force a flush.
_steps = st.lists(
    st.one_of(
        st.tuples(st.just("admit"), st.integers(min_value=1, max_value=6)),
        st.tuples(st.just("tick"), st.floats(min_value=0.1, max_value=3.0,
                                             allow_nan=False)),
        st.tuples(st.just("flush"), st.just(0)),
    ),
    min_size=1,
    max_size=10,
)


def _check_conservation(batcher):
    stats = batcher.statistics
    assert stats.admitted == (
        stats.answered + batcher.pending + stats.errored
        + stats.cancelled + stats.evicted
    )


def _drive(batcher, steps, capacity, policy):
    """Run one schedule, checking the invariants after every operation."""
    clock = 0.0
    sequence = 0
    refused = 0
    for kind, value in steps:
        if kind == "admit":
            for _ in range(value):
                sequence += 1
                admitted = batcher.submit(_request(sequence, clock), now=clock)
                if not admitted:
                    refused += 1
                    # only the shed policy refuses, and only when full
                    assert policy == "shed"
                    assert batcher.pending == capacity
                if capacity is not None:
                    assert batcher.pending <= capacity
                _check_conservation(batcher)
        elif kind == "tick":
            clock += value
            batcher.pump(now=clock)
            _check_conservation(batcher)
        else:
            batcher.flush(now=clock)
            assert batcher.pending == 0
            _check_conservation(batcher)
    assert batcher.statistics.shed == refused
    assert batcher.statistics.peak_queue_depth <= (capacity or sequence)
    return refused


@settings(max_examples=20, deadline=None)
@given(steps=_steps, config=_configs(queue_capacity=_capacities, queue_policy=st.just("shed")))
def test_shed_policy_never_exceeds_capacity(steps, config):
    batcher = _build_batcher(config)
    _drive(batcher, steps, config.queue_capacity, "shed")
    # sheds never entered the queue: the books balance without them
    stats = batcher.statistics
    assert stats.admitted + stats.shed >= stats.admitted
    _check_conservation(batcher)


@settings(max_examples=20, deadline=None)
@given(steps=_steps, config=_configs(queue_capacity=_capacities, queue_policy=st.just("block")))
def test_block_policy_never_refuses_and_stays_bounded(steps, config):
    batcher = _build_batcher(config)
    refused = _drive(batcher, steps, config.queue_capacity, "block")
    assert refused == 0
    assert batcher.statistics.shed == 0
    _check_conservation(batcher)


@settings(max_examples=15, deadline=None)
@given(steps=_steps)
def test_unbounded_queue_sheds_nothing(steps):
    batcher = _build_batcher(_config())
    refused = _drive(batcher, steps, None, "shed")
    assert refused == 0
    _check_conservation(batcher)


@settings(max_examples=15, deadline=None)
@given(steps=_steps, config=_configs(
    queue_capacity=st.just(8), max_batch_size=st.integers(min_value=1, max_value=5),
))
def test_size_closed_windows_respect_capacity(steps, config):
    """max_batch_size below capacity: inline flushes keep the queue small."""
    batcher = _build_batcher(config)
    size = config.max_batch_size
    sequence = 1000
    for kind, value in steps:
        if kind == "admit":
            for _ in range(value):
                sequence += 1
                batcher.submit(_request(sequence, 0.0), now=0.0)
                # a size-closed window flushes at admission time, so the
                # queue can never even reach the capacity bound
                assert batcher.pending < size
                _check_conservation(batcher)
        elif kind == "tick":
            batcher.pump(now=float(value))
        else:
            batcher.flush(now=0.0)
    _check_conservation(batcher)
