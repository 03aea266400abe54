"""Deadline-ordered overload control invariants of the ingest queue.

ISSUE 9's overload-control tentpole changes *which* admission a full queue
drops under ``queue_policy="shed"``: the loosest-deadline pending entry is
evicted to make room, and only an incoming request that would itself be the
loosest is refused.  These tests drive random admission schedules -- varying
per-request ``max_waiting`` slack and a non-decreasing clock -- against a
bounded :class:`~repro.service.ingest.MicroBatcher` and check it against an
explicit reference model:

* the pending window always matches the model exactly (same deadlines, same
  order), so eviction picks the *first* loosest entry and ties refuse the
  incoming request;
* the queue never exceeds ``queue_capacity``;
* conservation holds at every step and after a final drain:
  ``admitted == answered + pending + errored + cancelled + evicted``;
* with a ``latency_budget``, a pump leaves no pending admission within the
  budget of its deadline (the deadline-driven window close), and late
  flushes are counted as deadline misses.
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

_NETWORK = grid_network(6, 6, weight_jitter=0.2, seed=9)
_VERTICES = _NETWORK.vertices()


def _build_batcher(queue_capacity, queue_policy="shed", batch_window=1000.0,
                   latency_budget=None):
    grid = GridIndex(_NETWORK, rows=3, columns=3)
    fleet = Fleet(grid, make_engine(_NETWORK, "csr"))
    for index in range(4):
        fleet.add_vehicle(
            Vehicle(f"c{index + 1}", location=_VERTICES[(index * 9) % len(_VERTICES)], capacity=4)
        )
    config = SystemConfig(max_waiting=8.0, service_constraint=0.5)
    matcher = SingleSideSearchMatcher(fleet, config=config)
    dispatcher = Dispatcher(fleet, matcher, config)
    return MicroBatcher(
        dispatcher,
        batch_window=batch_window,
        max_batch_size=256,
        queue_capacity=queue_capacity,
        queue_policy=queue_policy,
        speed=1.0,
        latency_budget=latency_budget,
    )


def _request(index: int, submit: float, max_waiting: float) -> Request:
    start = _VERTICES[(index * 5) % len(_VERTICES)]
    destination = _VERTICES[(index * 5 + 7) % len(_VERTICES)]
    if destination == start:
        destination = _VERTICES[(index * 5 + 8) % len(_VERTICES)]
    return Request(
        start=start, destination=destination, riders=1, max_waiting=max_waiting,
        service_constraint=0.5, request_id=f"D{index}", submit_time=submit,
    )


def _check_conservation(batcher):
    stats = batcher.statistics
    assert stats.admitted == (
        stats.answered + batcher.pending + stats.errored
        + stats.cancelled + stats.evicted
    )


#: One admission: the request's waiting slack (discrete, so equal deadlines
#: actually occur and exercise the tie-refusal branch) and the clock advance
#: before it arrives.
_admissions = st.lists(
    st.tuples(
        st.sampled_from([2.0, 4.0, 4.0, 6.0, 8.0]),
        st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
    ),
    min_size=1,
    max_size=25,
)


@settings(max_examples=25, deadline=None)
@given(admissions=_admissions, capacity=st.integers(min_value=1, max_value=5))
def test_shed_evicts_the_loosest_deadline_first(admissions, capacity):
    """The batcher's pending window tracks an explicit reference model of
    loosest-deadline-first eviction, entry for entry."""
    batcher = _build_batcher(capacity)
    clock = 0.0
    model = []  # deadlines of the pending admissions, in window order
    refused = 0
    for sequence, (max_waiting, advance) in enumerate(admissions, start=1):
        clock += advance
        incoming = clock + max_waiting  # speed=1.0
        admitted = batcher.submit(_request(sequence, clock, max_waiting), now=clock)
        if len(model) < capacity:
            assert admitted
            model.append(incoming)
        elif max(model) > incoming + 1e-12:
            # a strictly looser incumbent made room: the *first* loosest goes
            assert admitted
            del model[model.index(max(model))]
            model.append(incoming)
        else:
            # the incoming request would be the loosest: refuse it
            assert not admitted
            refused += 1
        actual = [
            batcher.deadline(request, admit)
            for request, admit in batcher.pending_entries()
        ]
        assert actual == model
        assert batcher.pending <= capacity
        _check_conservation(batcher)
    assert batcher.statistics.shed == refused
    assert batcher.statistics.evicted == batcher.statistics.admitted - len(model)
    # the final drain answers exactly the surviving admissions
    batcher.drain(now=clock)
    assert batcher.pending == 0
    assert batcher.statistics.answered == len(model)
    _check_conservation(batcher)


@settings(max_examples=25, deadline=None)
@given(
    admissions=_admissions,
    budget=st.floats(min_value=0.5, max_value=4.0, allow_nan=False),
)
def test_latency_budget_pump_never_leaves_a_nearly_due_admission(admissions, budget):
    """After any pump, every still-pending admission has more than
    ``latency_budget`` of slack left -- the deadline-driven close fired for
    anything closer than that."""
    batcher = _build_batcher(None, batch_window=1000.0, latency_budget=budget)
    clock = 0.0
    for sequence, (max_waiting, advance) in enumerate(admissions, start=1):
        clock += advance
        batcher.submit(_request(sequence, clock, max_waiting), now=clock)
        batcher.pump(now=clock)
        entries = batcher.pending_entries()
        if entries:
            oldest = min(
                batcher.deadline(request, admit) for request, admit in entries
            )
            assert oldest - clock > budget - 1e-9
        _check_conservation(batcher)
    # the schedule is far shorter than batch_window: every flush so far was
    # the deadline close, never the window timer
    assert batcher.statistics.window_closed == 0
    stats = batcher.statistics
    assert stats.deadline_closed + stats.size_closed == stats.flushes


def test_deadline_misses_are_counted_on_late_flushes():
    """A window flushed long past its admissions' deadlines counts every
    answer as a deadline miss."""
    batcher = _build_batcher(None)
    for sequence in range(1, 4):
        assert batcher.submit(_request(sequence, 0.0, 4.0), now=0.0)
    outcomes = batcher.flush(now=100.0)
    assert len(outcomes) == 3
    assert batcher.statistics.deadline_misses == 3
    _check_conservation(batcher)


def test_eviction_that_empties_the_window_closes_it():
    """Evicting the only pending admission resets the window clock before
    the incoming admission re-opens it."""
    batcher = _build_batcher(1)
    assert batcher.submit(_request(1, 0.0, 8.0), now=0.0)
    assert batcher.window_opened == 0.0
    # tighter deadline evicts the incumbent; the window re-opens *now*
    assert batcher.submit(_request(2, 5.0, 2.0), now=5.0)
    assert batcher.statistics.evicted == 1
    assert batcher.pending == 1
    assert batcher.window_opened == 5.0
    _check_conservation(batcher)


def test_near_equal_incumbents_evict_the_exactly_loosest():
    """Incumbent deadlines a float ulp apart are not a tie among themselves:
    the exactly-latest one goes, whatever order they were admitted in."""
    batcher = _build_batcher(4)
    step = 1e-15
    assert batcher.submit(_request(1, 0.0, 2.0), now=0.0)
    assert batcher.submit(_request(2, 0.0, 8.0), now=0.0)
    assert batcher.submit(_request(3, step, 2.0), now=step)
    assert batcher.submit(_request(4, step, 8.0), now=step)
    assert batcher.submit(_request(5, step, 2.0), now=step)
    assert batcher.statistics.evicted == 1
    assert [request.request_id for request, _ in batcher.pending_entries()] == [
        "D1", "D2", "D3", "D5",
    ]
    _check_conservation(batcher)


def test_incoming_within_float_noise_of_the_loosest_is_refused():
    """An incoming deadline a float ulp before the loosest incumbent's is a
    tie with it: the incumbent stays and the incoming request is shed."""
    batcher = _build_batcher(1)
    step = 1e-15
    assert batcher.submit(_request(1, step, 8.0), now=step)
    assert not batcher.submit(_request(2, 0.0, 8.0), now=step)
    assert batcher.statistics.shed == 1
    assert batcher.statistics.evicted == 0
    assert [request.request_id for request, _ in batcher.pending_entries()] == ["D1"]
    _check_conservation(batcher)
