"""Journals written while retired knobs existed still recover.

``fixtures/old_journal`` is a small durable day whose config and
``set_parameters`` records name ``dispatch_workers`` (2, then 1, then 3),
``worker_timeout`` and ``max_dispatch_retries``, and whose config names the
retired ``routing_backend="dict"``, ``table_max_vertices`` and
``tree_provider``, and ``routing_cache_dir`` (null) and ``match_shards``
(1) beside them (see its README).  Recovery maps them through
:data:`repro.service.recovery.RETIRED_CONFIG_KEYS` and must land on the
state the live service had, retired keys normalised: ``dispatch_workers``
reads 1, the backend reads "csr" and the other knobs are gone.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path

import pytest

from repro.core.config import SystemConfig
from repro.service.api import PTRiderService, build_system
from repro.service.journal import JournalRecord, ServiceJournal
from repro.service.recovery import (
    RETIRED_CONFIG_KEYS,
    RecoveryError,
    apply_record,
    canonical_state,
    deserialize_config,
    encode,
    load_snapshot_state,
    serialize_state,
)

FIXTURE = Path(__file__).parent / "fixtures" / "old_journal"


@pytest.fixture
def journal_copy(tmp_path):
    return Path(shutil.copytree(FIXTURE / "journal", tmp_path / "journal"))


@pytest.mark.parametrize("prefer_snapshot", [True, False])
def test_old_journal_recovers_to_the_stored_state(journal_copy, prefer_snapshot):
    stored = json.loads((FIXTURE / "canonical_state.json").read_text(encoding="utf-8"))
    config = stored["config"]
    assert (config["dispatch_workers"], config["worker_timeout"],
            config["max_dispatch_retries"]) == (3, 7.5, 2)
    assert (config["routing_backend"], config["table_max_vertices"],
            config["tree_provider"]) == ("dict", 4096, "auto")
    config["dispatch_workers"] = 1
    config["routing_backend"] = "csr"
    assert config["routing_cache_dir"] is None
    assert config["match_shards"] == 1
    for knob in ("worker_timeout", "max_dispatch_retries", "table_max_vertices",
                 "tree_provider", "routing_cache_dir", "match_shards"):
        del config[knob]
    recovered = PTRiderService.recover(journal_copy, prefer_snapshot=prefer_snapshot)
    try:
        assert recovered.config.dispatch_workers == 1
        assert recovered.fleet.routing_engine.backend == "csr"
        # the journal predates the recorded tree-cache capacity
        assert recovered.fleet.routing_engine.max_cached_sources == 1024
        assert canonical_state(recovered) == stored
    finally:
        recovered.close()


def _invent_a_knob(directory: Path) -> None:
    """Name ``warp_factor`` in the journal's config and in every snapshot's
    and delta's config, keeping their checksums valid."""
    journal = ServiceJournal(directory)
    journal.set_meta("config", {**journal.get_meta("config"), "warp_factor": 9})
    journal.close()
    for path in sorted(directory.glob("*.json")):
        document = json.loads(path.read_text(encoding="utf-8"))
        body_key = "state" if "state" in document else "delta"
        body = document[body_key]
        config = body["config"] if body_key == "state" else body["meta"]["config"]
        config["warp_factor"] = 9
        text = json.dumps(body, separators=(",", ":"))
        document["checksum"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
        path.write_text(json.dumps(document), encoding="utf-8")


@pytest.mark.parametrize("prefer_snapshot", [True, False])
def test_an_invented_knob_fails_with_a_recovery_error(journal_copy, prefer_snapshot):
    _invent_a_knob(journal_copy)
    with pytest.raises(RecoveryError, match="warp_factor"):
        PTRiderService.recover(journal_copy, prefer_snapshot=prefer_snapshot)


@pytest.mark.parametrize(
    "change, field",
    [
        ({"price_model": {"base_ratio": -0.3, "rider_increment": 0.1, "booking_fee": 0.0}},
         "price_model"),
        ({"price_model": {"base_ratio": 0.3, "rider_increment": 0.1, "booking_fee": 0.0,
                          "surcharge": 2.0}},
         "surcharge"),
        ({"max_waiting": "abc"}, "max_waiting"),
    ],
    ids=["negative-coefficient", "unknown-price-key", "wrong-type"],
)
def test_a_bad_config_value_fails_with_a_recovery_error_naming_it(change, field):
    payload = {**encode(SystemConfig()), **change}
    with pytest.raises(RecoveryError, match=field):
        deserialize_config(payload)


def test_an_invented_set_parameters_key_fails_with_a_recovery_error(journal_copy):
    journal = ServiceJournal(journal_copy)
    # the first set_parameters record is seq 10; corrupting its payload
    # keeps the record readable but names a knob no build ever had
    journal.connection.execute(
        "UPDATE journal SET payload = ? WHERE seq = 10",
        (json.dumps({"changes": {"warp_factor": 9}}),),
    )
    journal.connection.commit()
    journal.close()
    with pytest.raises(RecoveryError, match="warp_factor"):
        PTRiderService.recover(journal_copy, prefer_snapshot=False)


#: A value each retired knob could hold, apart from its old default where it
#: had one, so a mapping that kept the value would show.
RETIRED_VALUES = {
    "dispatch_workers": 3,
    "worker_timeout": 7.5,
    "max_dispatch_retries": 2,
    "table_max_vertices": 8,
    "tree_provider": "plane",
    "routing_cache_dir": "/tmp/artifacts",
    "match_shards": 4,
}

#: Retired values of a live knob, and what each replays as.
RETIRED_BACKENDS = {"dict": "csr", "table": "csr", "ch": "csr"}


def test_the_table_names_exactly_the_retired_knobs():
    assert set(RETIRED_CONFIG_KEYS) == set(RETIRED_VALUES) | {"routing_backend"}
    assert RETIRED_CONFIG_KEYS["routing_backend"] == RETIRED_BACKENDS


@pytest.mark.parametrize("knob", sorted(RETIRED_VALUES))
def test_a_retired_knob_in_a_config_payload_replays_as_the_current_config(knob):
    config = SystemConfig(max_waiting=6.0)
    payload = {**encode(config), knob: RETIRED_VALUES[knob]}
    assert deserialize_config(payload) == config


@pytest.mark.parametrize("knob", sorted(RETIRED_VALUES))
def test_a_retired_knob_in_a_set_parameters_record_changes_nothing(knob):
    service = build_system(vehicles=3, seed=13, network_rows=6, network_columns=6)
    try:
        before = canonical_state(service)
        apply_record(service, JournalRecord(
            seq=1, kind="set_parameters",
            payload={"changes": {knob: RETIRED_VALUES[knob], "max_waiting": 6.0}},
        ))
        assert service.config.max_waiting == 6.0
        assert service.config.dispatch_workers == 1
        after = canonical_state(service)
        after["config"]["max_waiting"] = before["config"]["max_waiting"]
        assert after == before
    finally:
        service.close()


@pytest.mark.parametrize("backend", sorted(RETIRED_BACKENDS))
def test_a_retired_backend_in_a_config_payload_replays_as_csr(backend):
    config = SystemConfig(max_waiting=6.0)
    payload = {**encode(config), "routing_backend": backend}
    assert deserialize_config(payload) == config


@pytest.mark.parametrize("backend", sorted(RETIRED_BACKENDS))
def test_a_retired_backend_in_a_set_parameters_record_replays_as_csr(backend):
    service = build_system(vehicles=3, seed=13, network_rows=6, network_columns=6,
                           routing="csr+alt")
    try:
        apply_record(service, JournalRecord(
            seq=1, kind="set_parameters", payload={"changes": {"routing_backend": backend}},
        ))
        assert service.config.routing_backend == "csr"
        assert service.fleet.routing_engine.backend == "csr"
    finally:
        service.close()


def test_an_unknown_backend_in_a_config_payload_fails_with_a_recovery_error():
    payload = {**encode(SystemConfig()), "routing_backend": "phast"}
    with pytest.raises(RecoveryError, match="phast"):
        deserialize_config(payload)


def test_an_unknown_backend_in_a_set_parameters_record_replays_the_refusal():
    """Older builds journaled a call naming an unknown backend, then refused
    it; replay refuses it again and leaves the state as the refusal did."""
    service = build_system(vehicles=3, seed=13, network_rows=6, network_columns=6)
    try:
        before = canonical_state(service)
        apply_record(service, JournalRecord(
            seq=1, kind="set_parameters", payload={"changes": {"routing_backend": "phast"}},
        ))
        assert service.fleet.routing_engine.backend == "csr"
        assert canonical_state(service) == before
    finally:
        service.close()


def _state_text(state) -> str:
    """``state``'s snapshot JSON without its config, whose retired knobs a
    restored service normalises."""
    return json.dumps({k: v for k, v in state.items() if k != "config"},
                      separators=(",", ":"))


@pytest.mark.parametrize("prefer_snapshot", [True, False])
def test_restoring_and_reserialising_writes_the_stored_snapshot_text(
    journal_copy, prefer_snapshot
):
    journal = ServiceJournal(journal_copy)
    seq, stored = load_snapshot_state(journal, prefer_snapshot=prefer_snapshot)
    journal.close()
    assert seq == (19 if prefer_snapshot else 0)
    service, restored_seq = PTRiderService._resume_at_snapshot(
        ServiceJournal(journal_copy), prefer_snapshot=prefer_snapshot
    )
    try:
        assert restored_seq == seq
        assert _state_text(serialize_state(service)) == _state_text(stored)
    finally:
        service.close()


#: Ingest counters added after the first durable builds; a snapshot written
#: before them must load with each at 0.
LATER_INGEST_COUNTERS = (
    "evicted", "cancelled", "close_drained", "deadline_closed",
    "deadline_misses", "window_grown", "window_shrunk", "retired",
)


def _strip_later_counters(directory: Path) -> None:
    """Drop :data:`LATER_INGEST_COUNTERS` from the baseline snapshot,
    keeping its checksum valid."""
    path = directory / "snapshot-000000000000.json"
    document = json.loads(path.read_text(encoding="utf-8"))
    for counter in LATER_INGEST_COUNTERS:
        del document["state"]["ingest_stats"][counter]
    text = json.dumps(document["state"], separators=(",", ":"))
    document["checksum"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    path.write_text(json.dumps(document), encoding="utf-8")


def test_a_snapshot_without_the_later_counters_loads_them_as_zero(journal_copy):
    _strip_later_counters(journal_copy)
    service, seq = PTRiderService._resume_at_snapshot(
        ServiceJournal(journal_copy), prefer_snapshot=False
    )
    try:
        assert seq == 0
        statistics = service._batcher.statistics
        assert {name: getattr(statistics, name) for name in LATER_INGEST_COUNTERS} == {
            name: 0 for name in LATER_INGEST_COUNTERS
        }
    finally:
        service.close()
    stored = json.loads((FIXTURE / "canonical_state.json").read_text(encoding="utf-8"))
    recovered = PTRiderService.recover(journal_copy, prefer_snapshot=False)
    try:
        assert canonical_state(recovered)["ingest_stats"] == stored["ingest_stats"]
    finally:
        recovered.close()
