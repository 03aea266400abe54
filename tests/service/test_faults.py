"""Unit tests for the deterministic fault-injection registry.

The chaos harness (``benchmarks/bench_e19_chaos.py``) leans on this module
being exactly deterministic: a plan fires a spec at precisely the listed occurrence indices of its fire key, seeded
plans reproduce bit-for-bit from their seed, and an inactive registry makes
every ``fire`` a no-op.
"""

from __future__ import annotations

import pytest

from repro.errors import ServiceError
from repro.service import faults
from repro.service.api import build_system
from repro.service.faults import FaultInjected, FaultPlan, FaultSpec


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    """Every test starts and ends with the global registry inactive."""
    faults.clear()
    yield
    faults.clear()


class TestFaultSpec:
    def test_unknown_action_is_rejected(self):
        with pytest.raises(ServiceError):
            FaultSpec(point="ingest.flush", action="explode")

    def test_matching_wildcards(self):
        spec = FaultSpec(point="journal.append")
        assert spec.matches("journal.append", tag=None)
        assert spec.matches("journal.append", tag="anything")
        assert not spec.matches("ingest.flush", tag=None)

    def test_tag_narrows_the_match(self):
        spec = FaultSpec(point="journal.append", tag="pump")
        assert spec.matches("journal.append", tag="pump")
        assert not spec.matches("journal.append", tag="admit")

    def test_retired_stall_action_is_rejected(self):
        with pytest.raises(ServiceError):
            FaultSpec(point="ingest.flush", action="stall")


class TestOccurrenceCounting:
    def test_fires_only_at_listed_occurrences(self):
        plan = FaultPlan([FaultSpec(point="ingest.flush", action="error", at=(1, 3))])
        with plan:
            faults.fire("ingest.flush")  # occurrence 0: quiet
            with pytest.raises(FaultInjected):
                faults.fire("ingest.flush")  # occurrence 1
            faults.fire("ingest.flush")  # occurrence 2: quiet
            with pytest.raises(FaultInjected):
                faults.fire("ingest.flush")  # occurrence 3
            faults.fire("ingest.flush")  # past the schedule: quiet forever
        assert plan.fired == {"ingest.flush:error": 2}

    def test_distinct_fire_keys_count_independently(self):
        plan = FaultPlan([FaultSpec(point="journal.append", action="error",
                                    at=(0,), tag="pump")])
        with plan:
            # other kinds burn their own counters, not the pump counter
            faults.fire("journal.append", tag="admit")
            faults.fire("journal.append", tag="advance")
            with pytest.raises(FaultInjected):
                faults.fire("journal.append", tag="pump")

    def test_inactive_registry_is_a_noop(self):
        faults.fire("ingest.flush")
        faults.fire("journal.append", tag="whatever")
        assert faults.active() is None

    def test_context_manager_installs_and_clears(self):
        plan = FaultPlan([])
        assert faults.active() is None
        with plan:
            assert faults.active() is plan
        assert faults.active() is None
        # cleared even when the block raises
        with pytest.raises(RuntimeError):
            with plan:
                raise RuntimeError("boom")
        assert faults.active() is None


class TestSeededPlans:
    def test_same_seed_reproduces_the_schedule(self):
        entries = [("ingest.flush", "sleep", 3, 50), ("journal.append", "error", 2, 20)]
        first = FaultPlan.seeded(23, entries)
        second = FaultPlan.seeded(23, entries)
        assert [spec.at for spec in first.specs] == [spec.at for spec in second.specs]
        assert FaultPlan.seeded(24, entries).specs != first.specs

    def test_sampled_indices_are_distinct_sorted_and_in_span(self):
        plan = FaultPlan.seeded(7, [("ingest.flush", "sleep", 5, 12)])
        (spec,) = plan.specs
        assert len(spec.at) == len(set(spec.at)) == 5
        assert list(spec.at) == sorted(spec.at)
        assert all(0 <= index < 12 for index in spec.at)

    def test_count_is_clamped_to_span(self):
        plan = FaultPlan.seeded(7, [("ingest.flush", "error", 10, 4)])
        (spec,) = plan.specs
        assert len(spec.at) == 4

    def test_spec_defaults_forward_to_every_spec(self):
        plan = FaultPlan.seeded(7, [("journal.append", "sleep", 1, 5)], seconds=0.4,
                                tag="pump")
        (spec,) = plan.specs
        assert spec.seconds == 0.4
        assert spec.tag == "pump"



class TestFlushHook:
    def test_a_failed_flush_takes_nothing_from_the_window(self):
        """The hook fires before the window is taken: the failed call
        executed nothing, so a retry answers every admission."""
        service = build_system(vehicles=5, seed=13, network_rows=8, network_columns=8)
        service.ingest(1, 40)
        service.ingest(9, 55)
        with FaultPlan([FaultSpec(point="ingest.flush", action="error", at=(0,))]):
            with pytest.raises(FaultInjected):
                service.drain(now=1.0)
            assert service.batcher.pending == 2
            assert len(service.drain(now=1.0)) == 2
        stats = service.batcher.statistics
        assert stats.errored == 0 and stats.answered == 2
