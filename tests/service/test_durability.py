"""Unit tests for the durability subsystem (journal, snapshots, close/cancel)."""

from __future__ import annotations

import json
import shutil
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import RUNTIME, SystemConfig, knob_names
from repro.errors import ConfigurationError, ServiceError, UnknownOptionError
from repro.model.request import Request
from repro.service.api import PTRiderService, build_system
from repro.service.journal import (
    ANNOTATION_KINDS,
    COMMAND_KINDS,
    JournalRecord,
    ServiceJournal,
)
from repro.roadnet.generators import grid_network
from repro.roadnet.grid_index import GridIndex
from repro.roadnet.routing import make_engine
from repro.service.recovery import (
    RecoveryError,
    canonical_state,
    load_snapshot_state,
    serialize_state,
    write_snapshot,
)
from repro.vehicles.fleet import Fleet, restore_vehicle, snapshot_vehicle
from repro.vehicles.vehicle import Vehicle


def _durable_system(tmp_path, mode="journal+snapshot", interval=1000, **kwargs):
    return build_system(
        vehicles=kwargs.pop("vehicles", 6),
        seed=kwargs.pop("seed", 11),
        durability=mode,
        journal_path=str(tmp_path / "journal"),
        snapshot_interval=interval,
        **kwargs,
    )


def _request(service, index, riders=1):
    vertices = service.fleet.grid.network.vertices()
    start = vertices[(index * 5) % len(vertices)]
    destination = vertices[(index * 5 + 17) % len(vertices)]
    if destination == start:
        destination = vertices[(index * 5 + 18) % len(vertices)]
    return Request(
        start=start,
        destination=destination,
        riders=riders,
        max_waiting=service.config.max_waiting,
        service_constraint=service.config.service_constraint,
        request_id=f"D{index}",
        submit_time=service.current_time,
    )


class TestServiceJournal:
    def test_append_returns_monotonic_seqs(self, tmp_path):
        journal = ServiceJournal(tmp_path)
        seqs = [journal.append("advance", {"duration": float(i)}) for i in range(5)]
        assert seqs == [1, 2, 3, 4, 5]
        assert journal.last_seq() == 5

    def test_unknown_kind_rejected(self, tmp_path):
        journal = ServiceJournal(tmp_path)
        with pytest.raises(ServiceError):
            journal.append("teleport", {})

    def test_records_round_trip_and_classification(self, tmp_path):
        journal = ServiceJournal(tmp_path)
        journal.append("advance", {"duration": 1.0})
        journal.append("outcome", {"request_id": "r1"})
        records = journal.records()
        assert [r.kind for r in records] == ["advance", "outcome"]
        assert records[0].is_command and not records[1].is_command
        assert records[0].payload == {"duration": 1.0}
        assert journal.command_count() == 1
        assert set(COMMAND_KINDS).isdisjoint(ANNOTATION_KINDS)

    def test_records_survive_close_and_reopen(self, tmp_path):
        journal = ServiceJournal(tmp_path)
        journal.append("advance", {"duration": 2.0})
        journal.close()
        # the connection reopens lazily; a second handle sees the records
        again = ServiceJournal(tmp_path)
        assert [r.payload for r in again.records()] == [{"duration": 2.0}]

    def test_torn_tail_truncates_at_first_bad_payload(self, tmp_path):
        journal = ServiceJournal(tmp_path)
        for i in range(4):
            journal.append("advance", {"duration": float(i)})
        # tear the third record's payload (a torn write past SQLite's
        # atomicity, or deliberate fault injection)
        journal.connection.execute(
            "UPDATE journal SET payload = ? WHERE seq = 3", ("{truncated",)
        )
        journal.connection.commit()
        records = journal.records()
        assert [r.seq for r in records] == [1, 2]
        assert journal.truncated_records == 2  # the bad record and its suffix

    def test_truncate_after_removes_suffix(self, tmp_path):
        journal = ServiceJournal(tmp_path)
        for i in range(4):
            journal.append("advance", {"duration": float(i)})
        assert journal.truncate_after(2) == 2
        assert journal.last_seq() == 2
        # new appends continue past the truncation point
        assert journal.append("advance", {"duration": 9.0}) > 2

    def test_meta_round_trip(self, tmp_path):
        journal = ServiceJournal(tmp_path)
        journal.set_meta("config", {"speed": 1.5})
        assert journal.get_meta("config") == {"speed": 1.5}
        assert journal.get_meta("absent") is None
        assert not journal.is_fresh()

    def test_snapshot_files_ignore_tmp_and_prune_keeps_newest(self, tmp_path):
        journal = ServiceJournal(tmp_path)
        for seq in (0, 10, 20, 30):
            journal.snapshot_path(seq).write_text("{}")
        (tmp_path / "snapshot-000000000040.json.99.tmp").write_text("{")
        assert [seq for seq, _ in journal.snapshot_files()] == [0, 10, 20, 30]
        # the seq-0 baseline is exempt; only 10 falls outside keep=2
        assert journal.prune_snapshots(keep=2) == 1
        assert [seq for seq, _ in journal.snapshot_files()] == [0, 20, 30]


class TestDamagedJournals:
    def test_a_database_that_is_not_sqlite_reads_empty_but_not_fresh(self, tmp_path):
        journal = ServiceJournal(tmp_path)
        journal.append("advance", {"duration": 1.0})
        journal.close()
        for path in tmp_path.iterdir():
            path.unlink()
        (tmp_path / "journal.sqlite").write_bytes(b"not a database" * 100)
        damaged = ServiceJournal(tmp_path)
        assert damaged.last_seq() == 0
        # not fresh: a service must not be built over the damaged file
        assert not damaged.is_fresh()
        assert damaged.records() == []
        assert damaged.truncated_records == 1

    def test_state_files_with_unreadable_sequence_numbers_are_ignored(self, tmp_path):
        journal = ServiceJournal(tmp_path)
        journal.snapshot_path(5).write_text("{}")
        journal.delta_path(7).write_text("{}")
        for stray in ("snapshot-latest.json", "delta-latest.json", "delta-.json"):
            (tmp_path / stray).write_text("{}")
        assert [seq for seq, _ in journal.snapshot_files()] == [5]
        assert [seq for seq, _ in journal.delta_files()] == [7]

    def test_prune_deltas_keeps_the_deltas_past_the_compaction_point(self, tmp_path):
        journal = ServiceJournal(tmp_path)
        for seq in (3, 6, 9, 12):
            journal.delta_path(seq).write_text("{}")
        assert journal.prune_deltas(6) == 2
        assert [seq for seq, _ in journal.delta_files()] == [9, 12]


class TestFleetRestore:
    def test_restore_vehicles_replaces_adds_and_removes(self):
        service = build_system(vehicles=3, seed=5)
        fleet = service.fleet
        moved = restore_vehicle(snapshot_vehicle(fleet.get("c1")))
        vertices = fleet.grid.network.vertices()
        extra = Vehicle("c9", location=vertices[0], capacity=4)
        fleet.restore_vehicles([moved, extra])
        assert sorted(fleet.vehicle_ids()) == ["c1", "c9"]
        # the restored set is registered in the grid (lookups still work)
        assert fleet.get("c9").location == vertices[0]


class TestJournalingService:
    def test_every_mutating_call_appends_one_command(self, tmp_path):
        service = _durable_system(tmp_path)
        journal = service.journal
        base = journal.command_count()
        booking = service.book_request(_request(service, 1))
        if booking.options:
            service.choose(booking.booking_id, 0)
        else:  # pragma: no cover - seed-dependent fallback
            service.cancel(booking.booking_id)
        service.ingest_request(_request(service, 2))
        service.pump()
        service.drain()
        service.advance(1.0)
        service.set_parameters(max_waiting=7.0)
        assert journal.command_count() - base == 7
        kinds = [r.kind for r in journal.records() if r.is_command]
        assert kinds[-7:] == [
            "book", "choose", "admit", "pump", "drain", "advance", "set_parameters",
        ]

    def test_flush_outcomes_annotated(self, tmp_path):
        service = _durable_system(tmp_path)
        service.ingest_request(_request(service, 1))
        service.ingest_request(_request(service, 2))
        service.drain()
        outcomes = [r for r in service.journal.records() if r.kind == "outcome"]
        # one annotation record per command, holding the whole flush
        assert len(outcomes) == 1
        flushed = outcomes[0].payload["outcomes"]
        assert {entry["request_id"] for entry in flushed} == {"D1", "D2"}

    def test_baseline_snapshot_written_in_plain_journal_mode(self, tmp_path):
        service = _durable_system(tmp_path, mode="journal")
        files = service.journal.snapshot_files()
        assert [seq for seq, _ in files] == [0]
        service.advance(5.0)
        # plain journal mode never snapshots again
        assert [seq for seq, _ in service.journal.snapshot_files()] == [0]

    def test_snapshot_cadence_under_journal_plus_snapshot(self, tmp_path):
        service = _durable_system(tmp_path, interval=3)
        for _ in range(7):
            service.advance(1.0)
        # the baseline full snapshot, then a delta at every cadence crossing
        assert [seq for seq, _ in service.journal.snapshot_files()] == [0]
        assert [seq for seq, _ in service.journal.delta_files()] == [3, 6]

    def test_dirty_journal_refused_at_construction(self, tmp_path):
        service = _durable_system(tmp_path)
        service.advance(1.0)
        service.close()
        with pytest.raises(ServiceError, match="recover"):
            _durable_system(tmp_path)

    def test_set_parameters_keeps_annotating_outcomes(self, tmp_path):
        service = _durable_system(tmp_path)
        service.set_parameters(batch_window=2.0)
        service.ingest_request(_request(service, 1))
        service.drain()
        outcomes = [r for r in service.journal.records() if r.kind == "outcome"]
        assert len(outcomes) == 1
        assert len(outcomes[0].payload["outcomes"]) == 1


class TestReconfigureReplay:
    """``set_parameters`` in a journal: replay keeps observing flush
    outcomes across the dispatcher rebuild, and a snapshot that covers the
    command restores the parameters it set."""

    @staticmethod
    def _small(tmp_path, **durable):
        return build_system(
            vehicles=5, seed=13, network_rows=8, network_columns=8,
            journal_path=str(tmp_path / "journal"), **durable,
        )

    def test_replay_keeps_observing_outcomes_after_a_rebuild(self, tmp_path):
        service = self._small(tmp_path, durability="journal")
        service.set_parameters(max_waiting=5.0)
        service.ingest_request(_request(service, 1))
        service.drain(now=1.0)
        live = canonical_state(service)
        service.close()
        recovered = PTRiderService.recover(tmp_path / "journal")
        assert canonical_state(recovered) == live

    @pytest.mark.parametrize("prefer_snapshot", [True, False])
    def test_snapshot_covering_set_parameters_restores_its_config(
        self, tmp_path, prefer_snapshot
    ):
        service = self._small(
            tmp_path, durability="journal+snapshot", snapshot_interval=3,
        )
        for index in range(4):
            booking = service.book_request(_request(service, index))
            if booking.options:
                service.choose(booking.booking_id, 0)
        service.set_parameters(max_waiting=6.0)
        journal = service.journal
        points = {seq for seq, _ in journal.snapshot_files() + journal.delta_files()}
        assert journal.last_seq() in points  # the command crossed the cadence
        live = canonical_state(service)
        service.close()
        recovered = PTRiderService.recover(
            tmp_path / "journal", prefer_snapshot=prefer_snapshot
        )
        assert recovered.config.max_waiting == 6.0
        assert canonical_state(recovered) == live


def _option_keys(booking):
    return [(o.vehicle_id, o.pickup_distance, o.price) for o in booking.options]


class TestAdminForm:
    """What ``set_parameters`` changes is what the config, the journal and
    every snapshot say it changed."""

    @pytest.mark.parametrize("matcher_name", ["nearest", "sharek", "tshare"])
    def test_a_matcher_swap_survives_a_snapshot_and_recovery(self, tmp_path, matcher_name):
        service = _durable_system(tmp_path, vehicles=12, seed=3)
        for index in range(25):
            booking = service.book_request(_request(service, index))
            if booking.options:
                service.choose(booking.booking_id, 0)
        service.set_parameters(matcher_name=matcher_name)
        assert service.config.matcher_name == matcher_name
        service.snapshot()
        copy = shutil.copytree(tmp_path / "journal", tmp_path / "copy")
        recovered = PTRiderService.recover(copy)
        try:
            assert recovered.matcher.name == matcher_name
            assert recovered.config.matcher_name == matcher_name
            for index in range(25, 45):
                live = service.book_request(_request(service, index))
                replica = recovered.book_request(_request(recovered, index))
                assert _option_keys(replica) == _option_keys(live)
        finally:
            recovered.close()
            service.close()

    #: An out-of-range value for every knob ``set_parameters`` takes.
    OUT_OF_RANGE = {
        "vehicle_capacity": 0,
        "max_waiting": -1.0,
        "service_constraint": -0.5,
        "max_pickup_distance": -2.0,
        "matcher_name": "teleporter",
        "routing_backend": "teleport",
        "batch_window": -1.0,
        "max_batch_size": 0,
        "queue_capacity": -3,
        "queue_policy": "drop",
        "latency_budget": -1.0,
        "batch_window_mode": "random",
        "batch_window_min": -1.0,
        "batch_window_max": -1.0,
        "retention_horizon": -1.0,
    }

    def test_every_runtime_knob_has_an_out_of_range_value(self):
        assert set(self.OUT_OF_RANGE) == set(knob_names(RUNTIME))

    @pytest.mark.parametrize("name", sorted(OUT_OF_RANGE))
    def test_a_refused_change_writes_no_record_and_changes_nothing(self, tmp_path, name):
        service = _durable_system(tmp_path)
        service.book_request(_request(service, 1))
        last_seq = service.journal.last_seq()
        config = service.config
        with pytest.raises(ConfigurationError):
            service.set_parameters(**{name: self.OUT_OF_RANGE[name]})
        assert service.journal.last_seq() == last_seq
        assert service.config == config
        service.close()


class TestConfigNamesTheServedBackend:
    """A service's config takes the backend of the engine its fleet runs:
    that name is journaled, and recovery rebuilds the engine from it."""

    def test_a_csr_alt_fleet_with_a_default_config_journals_and_recovers_csr_alt(
        self, tmp_path
    ):
        network = grid_network(8, 8, spacing=1.0, weight_jitter=0.25, seed=13)
        fleet = Fleet(GridIndex(network, rows=4, columns=4), make_engine(network, "csr+alt"))
        for index, vertex in enumerate(network.vertices()[::9], 1):
            fleet.add_vehicle(Vehicle(f"c{index}", location=vertex, capacity=4))
        config = SystemConfig(durability="journal", journal_path=str(tmp_path / "journal"))
        service = PTRiderService(fleet, config=config, seed=13)
        assert service.config.routing_backend == "csr+alt"
        assert service.journal.get_meta("config")["routing_backend"] == "csr+alt"
        for index in range(3):
            booking = service.book_request(_request(service, index))
            if booking.options:
                service.choose(booking.booking_id, 0)
        service.advance(2.0)
        live = canonical_state(service)
        service.close()
        recovered = PTRiderService.recover(tmp_path / "journal")
        try:
            assert recovered.fleet.routing_engine.backend == "csr+alt"
            assert canonical_state(recovered) == live
        finally:
            recovered.close()

    @pytest.mark.parametrize("prefer_snapshot", [True, False])
    def test_a_refused_retired_backend_is_not_journaled(self, tmp_path, prefer_snapshot):
        # Recovery maps "dict" and "ch" onto "csr" for journals of builds
        # that accepted them; a refusal written to the journal would replay
        # as a switch to csr that also applied max_waiting.
        service = _durable_system(tmp_path, routing_backend="csr+alt")
        service.book_request(_request(service, 1))
        last_seq = service.journal.last_seq()
        for retired in ("dict", "ch"):
            with pytest.raises(ConfigurationError):
                service.set_parameters(max_waiting=7.0, routing_backend=retired)
        assert service.journal.last_seq() == last_seq
        assert service.config.max_waiting != 7.0
        assert service.fleet.routing_engine.backend == "csr+alt"
        live = canonical_state(service)
        service.close()
        recovered = PTRiderService.recover(tmp_path / "journal",
                                           prefer_snapshot=prefer_snapshot)
        try:
            assert recovered.fleet.routing_engine.backend == "csr+alt"
            assert canonical_state(recovered) == live
        finally:
            recovered.close()


def _trees_kept(engine):
    """Root a tree at every vertex; the engine keeps at most its capacity."""
    for vertex in engine.network.vertices():
        engine.distances_from(vertex)
    return len(engine._trees)  # noqa: SLF001 - observing the cache bound


class TestTreeCacheCapacity:
    """A rebuilt engine keeps the tree-cache capacity of the one it replaces."""

    @staticmethod
    def _service(tmp_path, capacity=8):
        network = grid_network(8, 8, spacing=1.0, weight_jitter=0.25, seed=5)
        engine = make_engine(network, "csr", max_cached_sources=capacity)
        fleet = Fleet(GridIndex(network, rows=4, columns=4), engine)
        for index, vertex in enumerate(network.vertices()[::9], 1):
            fleet.add_vehicle(Vehicle(f"c{index}", location=vertex, capacity=4))
        config = SystemConfig(durability="journal", journal_path=str(tmp_path / "journal"))
        return PTRiderService(fleet, config=config, seed=5)

    def test_a_backend_switch_keeps_the_capacity(self, tmp_path):
        service = self._service(tmp_path)
        service.set_parameters(routing_backend="csr+alt")
        try:
            assert service.fleet.routing_engine.backend == "csr+alt"
            assert _trees_kept(service.fleet.routing_engine) == 8
        finally:
            service.close()

    def test_recovery_keeps_the_capacity(self, tmp_path):
        service = self._service(tmp_path)
        service.book_request(_request(service, 1))
        service.close()
        recovered = PTRiderService.recover(tmp_path / "journal")
        try:
            assert _trees_kept(recovered.fleet.routing_engine) == 8
        finally:
            recovered.close()


class TestCloseDrain:
    def test_close_drains_pending_window_and_counts(self, tmp_path):
        service = build_system(vehicles=6, seed=11)
        service.ingest_request(_request(service, 1))
        service.ingest_request(_request(service, 2))
        assert service.batcher.pending == 2
        service.close()
        stats = service.batcher.statistics
        assert service.batcher.pending == 0
        assert stats.close_drained == 2
        assert stats.answered == 2
        # conservation: admitted == answered + pending + errored + cancelled
        assert stats.admitted == stats.answered + stats.errored + stats.cancelled
        # idempotent: a second close has nothing to drain
        service.close()
        assert stats.close_drained == 2

    def test_close_drain_is_journaled(self, tmp_path):
        service = _durable_system(tmp_path)
        service.ingest_request(_request(service, 1))
        service.close()
        drains = [r for r in service.journal.records() if r.kind == "drain"]
        assert len(drains) == 1 and drains[0].payload.get("close") is True


class TestAdaptiveWindowJournal:
    """Under ``batch_window_mode="adaptive"`` the window in force is picked
    from wall-clock flush times, so every serving-path command journals it
    and replay pins it before re-executing."""

    @staticmethod
    def _serve(tmp_path):
        service = _durable_system(
            tmp_path, batch_window_mode="adaptive", batch_window=1.0,
            batch_window_min=0.25, batch_window_max=4.0,
        )
        for index in range(12):
            now = 0.5 * index
            service.ingest_request(_request(service, index), now=now)
            service.pump(now=now + 0.3)
        service.drain(now=10.0)
        return service

    @pytest.mark.parametrize("prefer_snapshot", [True, False])
    def test_adaptive_serving_recovers_to_the_live_state(self, tmp_path, prefer_snapshot):
        service = self._serve(tmp_path)
        serving = [r for r in service.journal.records() if r.kind in ("admit", "pump", "drain")]
        assert len(serving) == 25
        assert all("window" in record.payload for record in serving)
        live = canonical_state(service)
        window = service.batcher.current_window
        service.close()
        recovered = PTRiderService.recover(tmp_path / "journal", prefer_snapshot=prefer_snapshot)
        try:
            assert canonical_state(recovered) == live
            assert recovered.batcher.current_window == window
        finally:
            recovered.close()

    def test_fixed_mode_journals_no_window(self, tmp_path):
        service = _durable_system(tmp_path)
        service.ingest_request(_request(service, 1), now=0.0)
        service.pump(now=2.0)
        serving = [r for r in service.journal.records() if r.kind in ("admit", "pump")]
        assert [("window" in r.payload) for r in serving] == [False, False]
        service.close()

    def test_statistics_report_the_controller_only_in_adaptive_mode(self, tmp_path):
        adaptive = build_system(vehicles=3, seed=5, batch_window_mode="adaptive")
        fixed = build_system(vehicles=3, seed=5)
        stats = adaptive.routing_statistics()
        assert stats["ingest_window_mode"] == "adaptive"
        assert isinstance(stats["ingest_ewma_flush_wall"], float)
        assert isinstance(stats["ingest_ewma_arrival_rate"], float)
        assert "ingest_ewma_flush_wall" not in fixed.routing_statistics()


class TestUnmatchedOutcomes:
    def test_an_unmatched_window_outcome_journals_no_choice_and_recovers(self, tmp_path):
        service = _durable_system(tmp_path)
        # no vehicle seats five riders
        service.ingest_request(_request(service, 1, riders=5), now=0.0)
        (booking,) = service.drain(now=0.5)
        assert booking.options == () and booking.chosen is None
        (annotation,) = [r for r in service.journal.records() if r.kind == "outcome"]
        assert annotation.payload["outcomes"][0]["chosen"] is None
        live = canonical_state(service)
        service.close()
        recovered = PTRiderService.recover(tmp_path / "journal")
        try:
            assert canonical_state(recovered) == live
        finally:
            recovered.close()


def test_a_directory_that_never_held_a_service_is_refused(tmp_path):
    with pytest.raises(RecoveryError, match="holds no service metadata"):
        PTRiderService.recover(tmp_path / "empty")


class TestCancelPending:
    def test_cancel_removes_pending_admission(self, tmp_path):
        service = build_system(vehicles=6, seed=11)
        request = _request(service, 1)
        assert service.ingest_request(request)
        assert service.batcher.pending == 1
        service.cancel(request.request_id)
        stats = service.batcher.statistics
        assert service.batcher.pending == 0
        assert stats.cancelled == 1
        # the cancelled admission must not be flushed later as a ghost
        service.drain()
        assert stats.answered == 0
        assert stats.admitted == stats.answered + stats.errored + stats.cancelled

    def test_cancel_unknown_id_still_raises(self):
        service = build_system(vehicles=6, seed=11)
        with pytest.raises(ServiceError):
            service.cancel("nope")

    def test_cancel_booking_still_works(self):
        service = build_system(vehicles=6, seed=11)
        booking = service.book_request(_request(service, 1))
        service.cancel(booking.booking_id)
        with pytest.raises(ServiceError):
            service.booking(booking.booking_id)


class TestSnapshotRestoreFlow:
    def test_admin_snapshot_then_recover_without_tail(self, tmp_path):
        service = _durable_system(tmp_path)
        service.book_request(_request(service, 1))
        service.advance(2.0)
        service.snapshot()
        before = canonical_state(service)
        service._journal.close()
        recovered = PTRiderService.recover(tmp_path / "journal")
        assert canonical_state(recovered) == before

    def test_choose_after_recovery_lands_where_the_live_service_does(self, tmp_path):
        """A booking comes back from a snapshot without the context it was
        matched under, so its commit enumerates afresh -- through the same
        distances, to the same state as the commit that never crashed."""
        live = _durable_system(tmp_path / "live")
        crashed = _durable_system(tmp_path / "crashed")
        for service in (live, crashed):
            service.book_request(_request(service, 1))
            service.snapshot()
        crashed._journal.close()
        recovered = PTRiderService.recover(tmp_path / "crashed" / "journal")
        assert recovered.booking("B1").context is None
        assert live.booking("B1").context is not None
        assert recovered.choose("B1", 0) == live.choose("B1", 0)
        states = [canonical_state(service) for service in (recovered, live)]
        for state in states:
            del state["config"]["journal_path"]  # two directories, by construction
        assert states[0] == states[1]

    def test_idle_legs_cut_by_a_snapshot_resume_as_they_run_live(self, tmp_path):
        """Idle taxis carry the hops left of their three-hop leg in ``_motions``,
        written once per tick: a service recovered from a snapshot taken
        partway through those legs moves exactly as the live one does."""
        config = SystemConfig(speed=0.7)  # legs end mid-edge, not on tick boundaries
        live = _durable_system(tmp_path / "live", config=config)
        crashed = _durable_system(tmp_path / "crashed", config=config)
        for service in (live, crashed):
            service.book_request(_request(service, 1))
            service.advance(2.0)
        motions = crashed._engine._motions.values()
        assert any(motion.has_route and motion.offset > 0 for motion in motions)
        crashed.snapshot()
        crashed._journal.close()
        recovered = PTRiderService.recover(tmp_path / "crashed" / "journal")
        for duration in (1.0, 0.5, 2.5, 1.0):
            for service in (recovered, live):
                service.advance(duration)
            states = [canonical_state(service) for service in (recovered, live)]
            for state in states:
                del state["config"]["journal_path"]  # two directories, by construction
            assert states[0] == states[1]

    def test_snapshot_requires_durability(self):
        service = build_system(vehicles=3, seed=5)
        with pytest.raises(ServiceError):
            service.snapshot()

    def test_corrupt_newest_snapshot_falls_back(self, tmp_path):
        service = _durable_system(tmp_path)
        service.advance(1.0)
        service.snapshot()
        journal = service.journal
        newest = journal.snapshot_files()[-1][1]
        newest.write_text(newest.read_text()[: len(newest.read_text()) // 2])
        seq, state = load_snapshot_state(journal)
        assert seq == 0  # fell back to the baseline
        assert state["version"] >= 1

    def test_no_usable_snapshot_raises(self, tmp_path):
        service = _durable_system(tmp_path)
        for _seq, path in service.journal.snapshot_files():
            path.write_text("garbage")
        with pytest.raises(RecoveryError):
            load_snapshot_state(service.journal)

    def test_serialized_state_is_json_round_trippable(self, tmp_path):
        service = _durable_system(tmp_path)
        service.book_request(_request(service, 1))
        state = serialize_state(service)
        assert json.loads(json.dumps(state)) == state


# One API call of a durable script: (kind, argument)
_CALLS = st.one_of(
    st.tuples(st.just("book"), st.integers(0, 40)),
    st.tuples(st.just("ingest"), st.integers(0, 40)),
    st.tuples(st.just("pump"), st.just(0)),
    st.tuples(st.just("drain"), st.just(0)),
    st.tuples(st.just("advance"), st.sampled_from([1, 2])),
    st.tuples(st.just("cancel_last"), st.just(0)),
    st.tuples(st.just("bad_choice"), st.just(0)),
    st.tuples(st.just("set_parameters"), st.sampled_from([5.0, 6.0])),
    st.tuples(st.just("snapshot"), st.just(0)),
)


def _call(service, kind, value, index):
    """Make one API call; a call the service refuses raises its own error."""
    if kind in ("book", "ingest"):
        request = _request(service, value)
        request = Request(
            start=request.start, destination=request.destination, riders=1 + value % 2,
            max_waiting=request.max_waiting, service_constraint=request.service_constraint,
            request_id=f"S{index}", submit_time=request.submit_time,
        )
        if kind == "ingest":
            service.ingest_request(request)
            return request.request_id
        booking = service.book_request(request)
        if booking.options:
            service.choose(booking.booking_id, 0)
        else:
            service.cancel(booking.booking_id)
    elif kind == "pump":
        service.pump()
    elif kind == "drain":
        service.drain()
    elif kind == "advance":
        service.advance(float(value))
    elif kind == "bad_choice":
        booking = service.book_request(_request(service, index))
        with pytest.raises(UnknownOptionError):  # journaled, then refused
            service.choose(booking.booking_id, len(booking.options))
        service.cancel(booking.booking_id)
    elif kind == "set_parameters":
        service.set_parameters(max_waiting=value)
    elif kind == "snapshot":
        service.snapshot()
    return None


class TestAppliedSequence:
    @settings(max_examples=8, deadline=None)
    @given(
        script=st.lists(_CALLS, min_size=3, max_size=14),
        mode=st.sampled_from(["journal", "journal+snapshot"]),
        prefer_snapshot=st.booleans(),
    )
    def test_applied_seq_is_the_journal_position_after_every_call(
        self, script, mode, prefer_snapshot
    ):
        """The service keeps its journal position from its own appends; it
        equals ``SELECT MAX(seq)`` after every API call, refused ones
        included, whatever the snapshot cadence writes in between."""
        tmp = tempfile.mkdtemp(prefix="ptrider-applied-")
        try:
            service = build_system(
                vehicles=5, seed=13, network_rows=8, network_columns=8,
                durability=mode, journal_path=tmp,
                snapshot_interval=3,
            )
            journal = service.journal
            assert service._applied_seq == journal.last_seq()
            pending = None
            # snapshots write no record, and neither does a cancel with nothing to cancel
            journaled = False
            for index, (kind, value) in enumerate(script):
                if kind == "cancel_last":
                    if pending is not None:
                        journaled = True
                        try:
                            service.cancel(pending)
                        except ServiceError:  # flushed already: journaled, refused
                            pass
                else:
                    journaled = journaled or kind != "snapshot"
                    pending = _call(service, kind, value, index) or pending
                assert service._applied_seq == journal.last_seq()
            assert (service._applied_seq > 0) == journaled
            service.close()
            recovered = PTRiderService.recover(tmp, prefer_snapshot=prefer_snapshot)
            assert recovered._applied_seq == recovered.journal.last_seq()
            recovered.close()
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
