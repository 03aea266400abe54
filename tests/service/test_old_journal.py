"""Journals written while the dispatch pool's knobs existed still recover.

``fixtures/old_journal`` is a small durable day whose config and
``set_parameters`` records name ``dispatch_workers`` (2, then 1, then 3),
``worker_timeout`` and ``max_dispatch_retries`` (see its README).  Recovery
maps them through :data:`repro.service.recovery.RETIRED_CONFIG_KEYS` and
must land on the state the live service had, retired keys normalised:
``dispatch_workers`` reads 1 and the other two are gone.
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
    serialize_config,
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
    config["dispatch_workers"] = 1
    del config["worker_timeout"], config["max_dispatch_retries"]
    recovered = PTRiderService.recover(journal_copy, prefer_snapshot=prefer_snapshot)
    try:
        assert recovered.config.dispatch_workers == 1
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


#: What each retired knob held in the fixture's day, one value apart from
#: its old default so a mapping that kept the value would show.
RETIRED_VALUES = {"dispatch_workers": 3, "worker_timeout": 7.5, "max_dispatch_retries": 2}


def test_the_table_names_exactly_the_retired_knobs():
    assert set(RETIRED_CONFIG_KEYS) == set(RETIRED_VALUES)


@pytest.mark.parametrize("knob", sorted(RETIRED_VALUES))
def test_a_retired_knob_in_a_config_payload_replays_as_the_current_config(knob):
    config = SystemConfig(max_waiting=6.0, match_shards=2)
    payload = {**serialize_config(config), knob: RETIRED_VALUES[knob]}
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
