"""Unit tests for the durability subsystem (journal, snapshots, close/cancel)."""

from __future__ import annotations

import hashlib
import itertools
import json
import shutil
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import RUNTIME, SystemConfig, knob_names
from repro.errors import ConfigurationError, ServiceError, UnknownOptionError, VehicleError
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
    restore_state,
    serialize_state,
    write_snapshot,
)
from repro.vehicles.fleet import Fleet
from repro.vehicles.vehicle import Vehicle

from tests.crash import kill


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

    def test_a_journal_replay_counts_the_same_matcher_work(self, tmp_path):
        """Every public call that runs the matcher is journaled, so a recovery
        that replays the whole journal re-derives every ``matcher_*`` counter;
        a matcher call the journal never saw would leave the live ones ahead."""
        service = _durable_system(tmp_path, mode="journal")
        first = _request(service, 1)
        service.book(first.start, first.destination)
        service.book_request(_request(service, 2))
        service.ingest_request(_request(service, 3))
        service.pump()
        service.ingest_request(_request(service, 4))
        service.close()
        live = {k: v for k, v in service.statistics().items() if k.startswith("matcher_")}
        assert live["matcher_requests_answered"] == 4.0
        recovered = PTRiderService.recover(tmp_path / "journal")
        try:
            replayed = recovered.statistics()
            assert {key: replayed[key] for key in live} == live
        finally:
            recovered.close()

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

    @staticmethod
    def _spy_on_close(monkeypatch):
        closed = []
        close = ServiceJournal.close

        def spy(journal):
            closed.append(journal.directory)
            close(journal)

        monkeypatch.setattr(ServiceJournal, "close", spy)
        return closed

    def test_a_refused_directory_closes_the_journal_it_opened(self, tmp_path, monkeypatch):
        _durable_system(tmp_path).close()
        closed = self._spy_on_close(monkeypatch)
        with pytest.raises(ServiceError, match="recover") as refused:
            _durable_system(tmp_path)
        # closed before the raise, not when the failed service is collected:
        # the traceback still holds its frame
        assert refused.value.__traceback__ is not None
        assert closed == [tmp_path / "journal"]

    def test_a_refused_directory_leaves_a_passed_journal_open(self, tmp_path, monkeypatch):
        service = _durable_system(tmp_path)
        service.advance(1.0)
        closed = self._spy_on_close(monkeypatch)
        with pytest.raises(ServiceError, match="recover"):
            PTRiderService(service.fleet, config=service.config, _journal=service.journal)
        assert closed == []

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


class TestDirtySetsNeedAChain:
    """Only a snapshot chain's deltas read the dirty sets; without one, a
    long day under retention must not grow them."""

    @pytest.mark.parametrize("mode", ["off", "journal"])
    def test_nothing_is_marked_without_deltas(self, tmp_path, mode):
        durable = {} if mode == "off" else {
            "durability": mode, "journal_path": str(tmp_path / "journal"),
        }
        service = build_system(vehicles=30, seed=3, retention_horizon=2.0, **durable)
        for index in range(60):
            service.ingest_request(_request(service, index))
            service.pump()
            service.advance(0.5)
        service.drain()
        service.advance(200.0)
        assert service.statistics()["matched"] == 60.0
        assert len(service._bookings) == 0
        chain = service._chain
        assert not chain.dirty_bookings and not chain.dirty_vehicles
        assert not service._engine.statistics.dirty_records


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


def _grid_lists(service):
    fleet = service.fleet
    cells = [
        (cell.cell_id, sorted(cell.empty_vehicles), sorted(cell.nonempty_vehicles))
        for cell in fleet.grid.cells()
    ]
    return cells, {vehicle.vehicle_id: sorted(vehicle.registered_cells) for vehicle in fleet}


class TestRecoveredFleet:
    """Recovery adds the snapshot's taxis to the fleet without taxis that
    ``assemble_fleet(vehicles=0)`` built."""

    def test_recovered_taxis_hold_the_live_cells(self, tmp_path):
        service = _durable_system(tmp_path, vehicles=8)
        for index in range(1, 6):
            booking = service.book_request(_request(service, index))
            if booking.options:
                service.choose(booking.booking_id, 0)
            if index == 3:
                service.advance(2.0)
                service.snapshot()  # the last two bookings replay from the tail
        live = _grid_lists(service)
        assert any(nonempty for _, _, nonempty in live[0])  # a busy taxi is registered
        kill(service)
        recovered = PTRiderService.recover(tmp_path / "journal")
        assert _grid_lists(recovered) == live

    def test_restore_refuses_a_fleet_that_holds_taxis(self, tmp_path):
        service = _durable_system(tmp_path)
        before = canonical_state(service)
        with pytest.raises(VehicleError, match="already registered"):
            restore_state(service, serialize_state(service))
        assert canonical_state(service) == before

    def test_a_journal_that_asked_for_full_path_registration_recovers(self, tmp_path):
        """The crossed-cell rule is gone; a journal written when it could be
        switched on recovers under the one rule (it changed no option)."""
        service = _durable_system(tmp_path)
        booking = service.book_request(_request(service, 1))
        if booking.options:
            service.choose(booking.booking_id, 0)
        service.journal.set_meta("register_full_paths", True)
        before = canonical_state(service)
        kill(service)
        recovered = PTRiderService.recover(tmp_path / "journal")
        assert recovered.journal.get_meta("register_full_paths") is True
        assert canonical_state(recovered) == before

    def test_a_new_journal_records_the_city_the_config_and_the_seed(self, tmp_path):
        service = _durable_system(tmp_path)
        keys = [key for (key,) in service.journal.connection.execute("SELECT key FROM meta")]
        assert sorted(keys) == ["config", "grid", "max_cached_sources", "network", "seed"]


class TestSnapshotRestoreFlow:
    def test_admin_snapshot_then_recover_without_tail(self, tmp_path):
        service = _durable_system(tmp_path)
        service.book_request(_request(service, 1))
        service.advance(2.0)
        service.snapshot()
        before = canonical_state(service)
        kill(service)
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
        kill(crashed)
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
        kill(crashed)
        recovered = PTRiderService.recover(tmp_path / "crashed" / "journal")
        for duration in (1.0, 0.5, 2.5, 1.0):
            for service in (recovered, live):
                service.advance(duration)
            states = [canonical_state(service) for service in (recovered, live)]
            for state in states:
                del state["config"]["journal_path"]  # two directories, by construction
            assert states[0] == states[1]

    @pytest.mark.xfail(
        strict=True,
        reason="snapshots store no MatcherStatistics, so the matcher_* series "
        "restarts at the replayed tail (ROADMAP item 4 stores it with the "
        "hash-chain format change)",
    )
    def test_recover_continues_the_matcher_series(self, tmp_path):
        service = _durable_system(tmp_path)
        for index in range(10):
            service.book_request(_request(service, index))
        service.snapshot()
        service.book_request(_request(service, 10))
        assert service.statistics()["matcher_requests_answered"] == 11.0
        kill(service)
        recovered = PTRiderService.recover(tmp_path / "journal")
        assert recovered.statistics()["matcher_requests_answered"] == 11.0

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


def _halve(path):
    """Cut a state file in half, as a crash mid-write would."""
    text = path.read_text(encoding="utf-8")
    path.write_text(text[: len(text) // 2], encoding="utf-8")


def _tear_record(journal_dir, seq):
    """Tear one journal record's payload (a torn write past SQLite's atomicity)."""
    journal = ServiceJournal(journal_dir)
    journal.connection.execute(
        "UPDATE journal SET payload = ? WHERE seq = ?", ("{torn", seq)
    )
    journal.close()


def _state_files(directory):
    return {
        path.name for pattern in ("snapshot-*.json", "delta-*.json")
        for path in directory.glob(pattern)
    }


def _point(path):
    """A state file as ``(kind, seq, base, prev)``; a full snapshot has no
    ``base`` / ``prev``."""
    document = json.loads(path.read_text(encoding="utf-8"))
    if "delta" in document:
        return ("delta", document["seq"], document["base"], document["prev"])
    return ("full", document["seq"], None, None)


class TestRecoveredChain:
    """What a recovered service writes to the snapshot chain, and when.

    The crashed service ran ``snapshot_interval=2``: book (1), choose (2,
    delta), three advances (4 delta, 5), an admin snapshot at 5 (the delta
    chain restarts there), five advances (deltas 7 and 9, record 10).  On
    disk: full snapshots 0 and 5, deltas 7 (prev 5) and 9 (prev 7).  Each
    recovery is then driven 34 advances; every delta it writes must chain
    on the full snapshot before it and the point before it, compaction
    (a full snapshot) fires at the 16th delta after a full one, and a
    second crash recovers to the live state.
    """

    ADVANCES = 34

    def _crashed(self, tmp_path):
        service = _durable_system(tmp_path, interval=2)
        booking = service.book_request(_request(service, 1))
        service.choose(booking.booking_id, 0)
        for _ in range(3):
            service.advance(1.0)
        service.snapshot()
        for _ in range(5):
            service.advance(1.0)
        assert service._applied_seq == 10
        directory = service.journal.directory
        assert sorted(_state_files(directory)) == [
            "delta-000000000007.json",
            "delta-000000000009.json",
            "snapshot-000000000000.json",
            "snapshot-000000000005.json",
        ]
        kill(service)
        return directory

    def _writes(self, service):
        """Drive :attr:`ADVANCES` advances; every state file each one wrote."""
        directory = service.journal.directory
        written = []
        for _ in range(self.ADVANCES):
            before = _state_files(directory)
            service.advance(1.0)
            for name in sorted(_state_files(directory) - before):
                written.append(_point(directory / name))
        return written

    def _check(self, directory, prefer_snapshot, first, fulls):
        service = PTRiderService.recover(directory, prefer_snapshot=prefer_snapshot)
        written = self._writes(service)
        assert written[0] == first
        assert [seq for kind, seq, _, _ in written if kind == "full"] == fulls
        # every delta chains on the newest full snapshot and the point before it
        base = prev = None
        for kind, seq, delta_base, delta_prev in written:
            if kind == "full":
                base = prev = seq
                continue
            if base is not None:
                assert (delta_base, delta_prev) == (base, prev)
            prev = seq
        live = canonical_state(service)
        kill(service)
        recovered = PTRiderService.recover(directory)
        assert canonical_state(recovered) == live
        recovered.close()

    def test_a_clean_recovery_extends_the_chain(self, tmp_path):
        directory = self._crashed(tmp_path)
        # restored at 9 (5 + deltas 7, 9), record 10 replayed
        self._check(directory, True, ("delta", 11, 5, 9), fulls=[37])

    def test_a_torn_newest_delta_restarts_the_chain_with_a_full_snapshot(self, tmp_path):
        directory = self._crashed(tmp_path)
        _halve(directory / "delta-000000000009.json")
        # restored at 7, behind the chain's end at 9
        self._check(directory, True, ("full", 11, None, None), fulls=[11, 43])

    def test_a_corrupt_newest_full_snapshot_restarts_the_chain(self, tmp_path):
        directory = self._crashed(tmp_path)
        _halve(directory / "snapshot-000000000005.json")
        # restored at the baseline; deltas 7 and 9 name base 5 and are not folded
        self._check(directory, True, ("full", 11, None, None), fulls=[11, 43])

    def test_a_full_replay_restarts_the_chain(self, tmp_path):
        directory = self._crashed(tmp_path)
        self._check(directory, False, ("full", 11, None, None), fulls=[11, 43])

    def test_a_torn_journal_tail_drops_the_points_past_it(self, tmp_path):
        directory = self._crashed(tmp_path)
        _tear_record(directory, 8)
        # records 8-10 and delta 9 are gone; restored at 7, the chain's new end
        self._check(directory, True, ("delta", 9, 5, 7), fulls=[37])


def _served_counters(service):
    """The ``matcher_*`` and ``ingest_*`` panel entries that read no wall clock."""
    panel = {**service.statistics(), **service.routing_statistics()}
    return {
        key: value for key, value in sorted(panel.items())
        if key.startswith(("matcher_", "ingest_"))
        and not key.endswith(("_seconds", "throughput"))
        and "ingest_latency_" not in key
    }


class TestReconfiguredDay:
    """A ``journal+snapshot`` day that the admin form reconfigures three
    times mid-traffic: the matcher, the routing backend and the ingest
    window.

    Each round books and chooses one trip, admits two trips into the ingest
    window, advances and pumps; each reconfigure comes with two admissions
    still pending, so it drains a window first.  Pinned: the ``matcher_*``
    and ``ingest_*`` counters just before and just after each reconfigure
    (the series continue through every rebuild, and the drained window
    counts in them), the ``outcome`` records journaled by then, the
    dispatcher's active requests at the end of the day (pick-ups and
    drop-offs after a rebuild reach the live dispatcher) and a SHA-256 of
    the state files written.  ``time.perf_counter`` counts instead of
    reading the clock, so the wall-clock fields those files store are fixed.
    """

    RECONFIGURES = (
        {"matcher_name": "dual_side"},
        {"routing_backend": "csr+alt"},
        {"batch_window": 2.5},
    )

    #: the counters just before each reconfigure
    BEFORE = (
        {
            "ingest_admitted": 10.0, "ingest_answered": 8.0, "ingest_cancelled": 0.0,
            "ingest_close_drained": 0.0, "ingest_deadline_closed": 0.0,
            "ingest_deadline_misses": 0.0, "ingest_errored": 0.0,
            "ingest_evicted": 0.0, "ingest_flushes": 4.0, "ingest_forced": 0.0,
            "ingest_mean_window_fill": 0.00390625, "ingest_peak_queue_depth": 2.0,
            "ingest_queue_depth": 2.0, "ingest_retired": 0.0, "ingest_shed": 0.0,
            "ingest_size_closed": 0.0, "ingest_window": 1.0,
            "ingest_window_closed": 4.0, "ingest_window_grown": 0.0,
            "ingest_window_mode": "fixed", "ingest_window_shrunk": 0.0,
            "matcher_cells_visited": 768.0, "matcher_insertions_enumerated": 315.0,
            "matcher_insertions_feasible": 46.0, "matcher_options_returned": 17.0,
            "matcher_requests_answered": 12.0, "matcher_vehicles_beyond_cap": 0.0,
            "matcher_vehicles_considered": 48.0, "matcher_vehicles_evaluated": 38.0,
            "matcher_vehicles_pruned": 10.0,
        },
        {
            "ingest_admitted": 20.0, "ingest_answered": 18.0, "ingest_cancelled": 0.0,
            "ingest_close_drained": 0.0, "ingest_deadline_closed": 0.0,
            "ingest_deadline_misses": 0.0, "ingest_errored": 0.0,
            "ingest_evicted": 0.0, "ingest_flushes": 9.0, "ingest_forced": 1.0,
            "ingest_mean_window_fill": 0.00390625, "ingest_peak_queue_depth": 2.0,
            "ingest_queue_depth": 2.0, "ingest_retired": 0.0, "ingest_shed": 0.0,
            "ingest_size_closed": 0.0, "ingest_window": 1.0,
            "ingest_window_closed": 8.0, "ingest_window_grown": 0.0,
            "ingest_window_mode": "fixed", "ingest_window_shrunk": 0.0,
            "matcher_cells_visited": 1614.0, "matcher_insertions_enumerated": 1481.0,
            "matcher_insertions_feasible": 152.0, "matcher_options_returned": 43.0,
            "matcher_requests_answered": 26.0, "matcher_vehicles_beyond_cap": 0.0,
            "matcher_vehicles_considered": 166.0, "matcher_vehicles_evaluated": 123.0,
            "matcher_vehicles_pruned": 43.0,
        },
        {
            "ingest_admitted": 30.0, "ingest_answered": 28.0, "ingest_cancelled": 0.0,
            "ingest_close_drained": 0.0, "ingest_deadline_closed": 0.0,
            "ingest_deadline_misses": 0.0, "ingest_errored": 0.0,
            "ingest_evicted": 0.0, "ingest_flushes": 14.0, "ingest_forced": 2.0,
            "ingest_mean_window_fill": 0.00390625, "ingest_peak_queue_depth": 2.0,
            "ingest_queue_depth": 2.0, "ingest_retired": 0.0, "ingest_shed": 0.0,
            "ingest_size_closed": 0.0, "ingest_window": 1.0,
            "ingest_window_closed": 12.0, "ingest_window_grown": 0.0,
            "ingest_window_mode": "fixed", "ingest_window_shrunk": 0.0,
            "matcher_cells_visited": 2361.0, "matcher_insertions_enumerated": 7553.0,
            "matcher_insertions_feasible": 493.0, "matcher_options_returned": 70.0,
            "matcher_requests_answered": 40.0, "matcher_vehicles_beyond_cap": 0.0,
            "matcher_vehicles_considered": 305.0, "matcher_vehicles_evaluated": 213.0,
            "matcher_vehicles_pruned": 92.0,
        },
    )
    #: what each reconfigure"s drain (and the knob itself) moved
    MOVED = (
        {
            "ingest_answered": 10.0, "ingest_flushes": 5.0, "ingest_forced": 1.0,
            "ingest_queue_depth": 0.0, "matcher_cells_visited": 896.0,
            "matcher_insertions_enumerated": 352.0,
            "matcher_insertions_feasible": 52.0, "matcher_options_returned": 20.0,
            "matcher_requests_answered": 14.0, "matcher_vehicles_considered": 61.0,
            "matcher_vehicles_evaluated": 42.0, "matcher_vehicles_pruned": 19.0,
        },
        {
            "ingest_answered": 20.0, "ingest_flushes": 10.0, "ingest_forced": 2.0,
            "ingest_queue_depth": 0.0, "matcher_cells_visited": 1742.0,
            "matcher_insertions_enumerated": 1866.0,
            "matcher_insertions_feasible": 178.0, "matcher_options_returned": 47.0,
            "matcher_requests_answered": 28.0, "matcher_vehicles_considered": 187.0,
            "matcher_vehicles_evaluated": 137.0, "matcher_vehicles_pruned": 50.0,
        },
        {
            "ingest_answered": 30.0, "ingest_flushes": 15.0, "ingest_forced": 3.0,
            "ingest_queue_depth": 0.0, "ingest_window": 2.5,
            "matcher_cells_visited": 2373.0, "matcher_insertions_enumerated": 7578.0,
            "matcher_insertions_feasible": 503.0, "matcher_options_returned": 72.0,
            "matcher_requests_answered": 42.0, "matcher_vehicles_considered": 312.0,
            "matcher_vehicles_evaluated": 215.0, "matcher_vehicles_pruned": 97.0,
        },
    )
    OUTCOME_RECORDS = (5, 10, 15)
    ACTIVE = {
        "D43": "c10", "D44": "c5", "D46": "c5", "D47": "c11", "D49": "c11",
        "D51": "c11", "D52": "c7",
    }
    STATE_FILES_SHA256 = (
        "ed452212135d3aaadcd18141ef50b4fb"
        "8311e95f7ef6fe768e5de5147059f796"
    )

    def _day(self, tmp_path, monkeypatch):
        ticks = itertools.count()
        monkeypatch.setattr(time, "perf_counter", lambda: next(ticks) * 0.001)
        monkeypatch.chdir(tmp_path)  # a relative journal path: the files name no tmp dir
        service = build_system(
            vehicles=12, seed=23, network_rows=10, network_columns=10,
            durability="journal+snapshot", snapshot_interval=4,
            journal_path="journal",
        )
        index = itertools.count()

        def rounds(count):
            for _ in range(count):
                booking = service.book_request(_request(service, next(index)))
                if booking.options:
                    service.choose(booking.booking_id, 0)
                for _ in range(2):
                    service.ingest_request(_request(service, next(index)))
                service.advance(1.0)
                service.pump()
            for _ in range(2):
                service.ingest_request(_request(service, next(index)))

        observed = []
        for changes in self.RECONFIGURES:
            rounds(4)
            before = _served_counters(service)
            service.set_parameters(**changes)
            outcomes = sum(1 for r in service.journal.records() if r.kind == "outcome")
            observed.append((before, _served_counters(service), outcomes))
        rounds(3)
        service.drain()
        service.advance(12.0)
        active = canonical_state(service)["active_requests"]
        service.close()
        digest = hashlib.sha256()
        for path in sorted(tmp_path.joinpath("journal").glob("*.json")):
            digest.update(path.name.encode("utf-8"))
            digest.update(path.read_bytes())
        return observed, active, digest.hexdigest()

    def test_the_series_continue_and_the_live_dispatcher_hears_the_trips(
        self, tmp_path, monkeypatch
    ):
        observed, active, sha = self._day(tmp_path, monkeypatch)
        for (before, after, outcomes), pinned, moved, records in zip(
            observed, self.BEFORE, self.MOVED, self.OUTCOME_RECORDS, strict=True
        ):
            assert before == pinned
            assert after == {**pinned, **moved}
            assert outcomes == records
        assert active == self.ACTIVE
        assert sha == self.STATE_FILES_SHA256
