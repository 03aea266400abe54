"""Invariants of the adaptive micro-batch window controller.

ISSUE 10's tentpole replaces the static ``batch_window`` with a closed-loop
:class:`~repro.service.ingest.WindowController`: MIMD on the flush-wall /
window-length ratio, EWMAs of flush wall and arrival rate, clamped to
``[window_min, window_max]`` and to the ``latency_budget`` headroom.  These
tests pin the control law's safety and liveness properties:

* the window never leaves its configured bounds, whatever observation
  sequence is fed (including pathological walls: zero, huge, NaN-free
  extremes);
* with a ``latency_budget`` the window never exceeds the headroom the
  budget leaves after the expected flush wall, so the controller cannot
  schedule a close the deadline close would have to pre-empt;
* under stationary load (constant flush wall) the window converges into
  the MIMD dead band and then *stays* there -- no steady-state
  oscillation;
* the controller is deterministic: the same observation sequence yields
  the same window trajectory, and the trajectory survives a
  ``state()``/``restore()`` round-trip mid-sequence;
* an adaptive batcher whose bounds collapse the controller to the fixed
  window answers a replayed schedule byte-identically to a fixed-window
  batcher under the injected deterministic clock -- adaptivity changes
  *when* windows close, never *what* a window's flush answers.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SystemConfig
from repro.core.dispatcher import Dispatcher
from repro.core.single_side import SingleSideSearchMatcher
from repro.errors import ConfigurationError
from repro.model.request import Request
from repro.roadnet.generators import grid_network
from repro.roadnet.grid_index import GridIndex
from repro.roadnet.routing import make_engine
from repro.service.ingest import MicroBatcher, WindowController
from repro.vehicles.fleet import Fleet
from repro.vehicles.vehicle import Vehicle

_NETWORK = grid_network(6, 6, weight_jitter=0.2, seed=9)
_VERTICES = _NETWORK.vertices()

# Observations: (flush_wall, batch_size, window_span) triples spanning
# idle flushes, saturated flushes and everything between.
_observations = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=50.0, allow_nan=False, allow_infinity=False),
        st.integers(min_value=0, max_value=64),
        st.floats(min_value=0.0, max_value=20.0, allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=60,
)


@given(observations=_observations)
@settings(max_examples=120, deadline=None)
def test_window_stays_in_bounds(observations):
    controller = WindowController(window=1.0, window_min=0.125, window_max=8.0)
    for flush_wall, batch_size, span in observations:
        controller.observe(flush_wall, batch_size, span)
        assert 0.125 - 1e-12 <= controller.window <= 8.0 + 1e-12


@given(observations=_observations)
@settings(max_examples=120, deadline=None)
def test_window_never_exceeds_latency_budget_headroom(observations):
    budget = 4.0
    controller = WindowController(
        window=1.0, window_min=0.125, window_max=8.0, latency_budget=budget
    )
    for flush_wall, batch_size, span in observations:
        controller.observe(flush_wall, batch_size, span)
        headroom = max(0.125, budget - controller.ewma_flush_wall)
        assert controller.window <= headroom + 1e-12
        # The budget dominates the static upper bound whenever it is tighter.
        assert controller.window <= budget + 1e-12


@given(
    flush_wall=st.floats(
        min_value=0.01, max_value=10.0, allow_nan=False, allow_infinity=False
    )
)
@settings(max_examples=80, deadline=None)
def test_converges_under_stationary_load(flush_wall):
    """A constant flush wall drives the window into the dead band for good.

    The dead band [wall/HIGH, wall/LOW] is 2x wide while the step factor is
    1.5x, so once inside the controller holds; the bounds cap the cases
    where the band lies outside [window_min, window_max].
    """
    controller = WindowController(window=1.0, window_min=1e-3, window_max=1e3)
    resized_after_settle = 0
    settled = False
    for step in range(200):
        resized = controller.observe(flush_wall, 8, controller.window)
        if settled:
            resized_after_settle += abs(resized)
        elif resized == 0:
            settled = True
    assert settled, "controller never settled under a stationary flush wall"
    assert resized_after_settle == 0, "controller oscillated after settling"
    # Steady state sits in the dead band (or pinned at a bound).
    ratio = controller.ewma_flush_wall / controller.window
    at_bound = (
        abs(controller.window - controller.window_min) < 1e-9
        or abs(controller.window - controller.window_max) < 1e-9
    )
    assert at_bound or (
        WindowController.LOW_RATIO - 1e-9
        <= ratio
        <= WindowController.HIGH_RATIO + 1e-9
    )


@given(observations=_observations)
@settings(max_examples=60, deadline=None)
def test_trajectory_deterministic_and_restorable(observations):
    """Same observations => same trajectory, across a state() round-trip."""
    split = len(observations) // 2
    reference = WindowController(window=1.0, window_min=0.125, window_max=8.0)
    trajectory = []
    for flush_wall, batch_size, span in observations:
        reference.observe(flush_wall, batch_size, span)
        trajectory.append(reference.window)
    # Replay the prefix, round-trip through the snapshot payload, finish.
    prefix = WindowController(window=1.0, window_min=0.125, window_max=8.0)
    resumed_trajectory = []
    for flush_wall, batch_size, span in observations[:split]:
        prefix.observe(flush_wall, batch_size, span)
        resumed_trajectory.append(prefix.window)
    resumed = WindowController(window=1.0, window_min=0.125, window_max=8.0)
    resumed.restore(prefix.state())
    for flush_wall, batch_size, span in observations[split:]:
        resumed.observe(flush_wall, batch_size, span)
        resumed_trajectory.append(resumed.window)
    assert resumed_trajectory == trajectory
    assert resumed.state() == reference.state()


def test_bounds_validation():
    with pytest.raises(ConfigurationError):
        WindowController(window=1.0, window_min=0.0, window_max=4.0)
    with pytest.raises(ConfigurationError):
        WindowController(window=1.0, window_min=2.0, window_max=1.0)
    with pytest.raises(ConfigurationError):
        WindowController(
            window=1.0, window_min=2.0, window_max=4.0, latency_budget=1.0
        )


# ----------------------------------------------------------------------
# batcher-level equivalence under the injected clock
# ----------------------------------------------------------------------
def _build_batcher(window_mode, batch_window=2.0, window_min=None,
                   window_max=None, wall_clock=None):
    grid = GridIndex(_NETWORK, rows=3, columns=3)
    fleet = Fleet(grid, make_engine(_NETWORK, "csr"))
    for index in range(4):
        fleet.add_vehicle(
            Vehicle(
                f"c{index + 1}",
                location=_VERTICES[(index * 9) % len(_VERTICES)],
                capacity=4,
            )
        )
    config = SystemConfig(max_waiting=8.0, service_constraint=0.5)
    matcher = SingleSideSearchMatcher(fleet, config=config)
    dispatcher = Dispatcher(fleet, matcher, config)
    outcomes = []
    batcher = MicroBatcher(
        dispatcher,
        batch_window=batch_window,
        max_batch_size=256,
        speed=1.0,
        window_mode=window_mode,
        window_min=window_min,
        window_max=window_max,
        wall_clock=wall_clock,
        on_outcome=lambda outcome: outcomes.append(
            (
                outcome.request.request_id,
                None if outcome.chosen is None else outcome.chosen.vehicle_id,
                None if outcome.chosen is None else outcome.chosen.price,
            )
        ),
    )
    return batcher, outcomes


def _request(index: int, submit: float) -> Request:
    start = _VERTICES[(index * 5) % len(_VERTICES)]
    destination = _VERTICES[(index * 5 + 7) % len(_VERTICES)]
    if destination == start:
        destination = _VERTICES[(index * 5 + 8) % len(_VERTICES)]
    return Request(
        start=start, destination=destination, riders=1, max_waiting=8.0,
        service_constraint=0.5, request_id=f"A{index}", submit_time=submit,
    )


class _FakeWall:
    """Deterministic wall clock: each reading advances by a fixed step."""

    def __init__(self, step: float = 0.001) -> None:
        self._now = 0.0
        self._step = step

    def __call__(self) -> float:
        self._now += self._step
        return self._now


@given(
    schedule=st.lists(
        st.floats(min_value=0.0, max_value=1.5, allow_nan=False,
                  allow_infinity=False),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=25, deadline=None)
def test_collapsed_adaptive_equals_fixed(schedule):
    """Bounds that pin the controller reproduce fixed mode byte-for-byte."""
    fixed, fixed_outcomes = _build_batcher("fixed", wall_clock=_FakeWall())
    pinned, pinned_outcomes = _build_batcher(
        "adaptive", window_min=2.0, window_max=2.0, wall_clock=_FakeWall()
    )
    for batcher, outcomes in ((fixed, fixed_outcomes), (pinned, pinned_outcomes)):
        now = 0.0
        for index, gap in enumerate(schedule):
            now += gap
            batcher.pump(now=now)
            batcher.submit(_request(index, now), now=now)
        batcher.drain(now=now + 100.0)
    assert fixed_outcomes == pinned_outcomes
    assert fixed.statistics.answered == pinned.statistics.answered
    assert fixed.statistics.window_closed == pinned.statistics.window_closed


@given(
    schedule=st.lists(
        st.floats(min_value=0.0, max_value=1.5, allow_nan=False,
                  allow_infinity=False),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=25, deadline=None)
def test_adaptive_run_is_deterministic(schedule):
    """Same schedule + same injected clocks => identical adaptive runs."""
    runs = []
    for _ in range(2):
        batcher, outcomes = _build_batcher("adaptive", wall_clock=_FakeWall())
        now = 0.0
        windows = []
        for index, gap in enumerate(schedule):
            now += gap
            batcher.pump(now=now)
            batcher.submit(_request(index, now), now=now)
            windows.append(batcher.current_window)
        batcher.drain(now=now + 100.0)
        runs.append((outcomes, windows, batcher.controller_state()))
    assert runs[0] == runs[1]


def test_adaptive_answers_match_fixed_outcome_set():
    """Adaptive windows re-time flushes but answer the same requests.

    Every admitted request is answered exactly once in both modes (window
    boundaries differ, outcomes-per-request do not go missing).
    """
    fixed, fixed_outcomes = _build_batcher("fixed", wall_clock=_FakeWall())
    adaptive, adaptive_outcomes = _build_batcher(
        "adaptive", window_min=0.25, window_max=8.0,
        wall_clock=_FakeWall(step=0.4),
    )
    for batcher in (fixed, adaptive):
        now = 0.0
        for index in range(30):
            now += 0.5
            batcher.pump(now=now)
            batcher.submit(_request(index, now), now=now)
        batcher.drain(now=now + 100.0)
    assert sorted(rid for rid, _, _ in fixed_outcomes) == sorted(
        rid for rid, _, _ in adaptive_outcomes
    )
    assert fixed.statistics.answered == adaptive.statistics.answered
