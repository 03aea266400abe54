"""Property-based tests for dominance and skyline maintenance."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.options import RideOption, Skyline, dominates, skyline_of

prices = st.floats(min_value=0.0, max_value=1000.0, allow_nan=False, allow_infinity=False)
distances = st.floats(min_value=0.0, max_value=1000.0, allow_nan=False, allow_infinity=False)


@st.composite
def options(draw, max_size: int = 40):
    count = draw(st.integers(min_value=0, max_value=max_size))
    return [
        RideOption(vehicle_id=f"v{i}", pickup_distance=draw(distances), price=draw(prices))
        for i in range(count)
    ]


@given(options())
@settings(max_examples=150)
def test_skyline_members_are_mutually_non_dominated(candidates):
    result = skyline_of(candidates)
    for first in result:
        for second in result:
            if first is not second:
                assert not dominates(first, second)


@given(options())
@settings(max_examples=150)
def test_every_candidate_is_dominated_or_represented(candidates):
    """Every input option is either in the skyline, dominated by a member, or a duplicate of one."""
    result = skyline_of(candidates)
    for candidate in candidates:
        represented = any(
            abs(kept.pickup_distance - candidate.pickup_distance) <= 1e-9
            and abs(kept.price - candidate.price) <= 1e-9
            for kept in result
        )
        assert represented or any(dominates(kept, candidate) for kept in result)


@given(options())
@settings(max_examples=150)
def test_skyline_is_idempotent(candidates):
    once = skyline_of(candidates)
    twice = skyline_of(once)
    assert {(o.pickup_distance, o.price) for o in once} == {(o.pickup_distance, o.price) for o in twice}


@given(options())
@settings(max_examples=100)
def test_incremental_skyline_matches_batch(candidates):
    incremental = Skyline()
    incremental.extend(candidates)
    batch = skyline_of(candidates)
    assert {(o.pickup_distance, o.price) for o in incremental.options()} == {
        (o.pickup_distance, o.price) for o in batch
    }
    # ``Matcher.match`` builds a request's skyline this way: skyline_of's list exactly
    assert Skyline.merge([candidates]).options() == batch


@given(options(), distances, prices)
@settings(max_examples=100)
def test_order_independence(candidates, shift, _unused):
    forward = skyline_of(candidates)
    backward = skyline_of(list(reversed(candidates)))
    assert {(o.pickup_distance, o.price) for o in forward} == {
        (o.pickup_distance, o.price) for o in backward
    }


@given(distances, prices, distances, prices)
@settings(max_examples=200)
def test_dominance_is_antisymmetric(t1, p1, t2, p2):
    a = RideOption(vehicle_id="a", pickup_distance=t1, price=p1)
    b = RideOption(vehicle_id="b", pickup_distance=t2, price=p2)
    assert not (dominates(a, b) and dominates(b, a))


@given(distances, prices)
@settings(max_examples=50)
def test_dominance_is_irreflexive(t, p):
    a = RideOption(vehicle_id="a", pickup_distance=t, price=p)
    assert not dominates(a, a)


@given(options(), distances, prices)
@settings(max_examples=100)
def test_would_be_dominated_is_conservative(candidates, probe_time, probe_price):
    """If the skyline claims a bound pair is dominated, adding an option at least
    as bad as the bounds never changes the skyline point set."""
    skyline = Skyline()
    skyline.extend(candidates)
    if skyline.would_be_dominated(probe_time, probe_price):
        before = {(o.pickup_distance, o.price) for o in skyline.options()}
        worse = RideOption(vehicle_id="probe", pickup_distance=probe_time + 1.0, price=probe_price + 1.0)
        skyline.add(worse)
        after = {(o.pickup_distance, o.price) for o in skyline.options()}
        assert before == after
