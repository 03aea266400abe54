"""Unit tests for the trend checker's phase-aware aggregation."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "check_bench_trend.py"
_spec = importlib.util.spec_from_file_location("check_bench_trend", _SCRIPT)
trend = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("check_bench_trend", trend)
_spec.loader.exec_module(trend)


RECORDS = [
    {"experiment": "E2", "routing_backend": "csr", "wall_seconds": 0.5},
    {"experiment": "E2", "routing_backend": "csr", "wall_seconds": 0.7},
    {"experiment": "E14", "routing_backend": "ch", "wall_seconds": 0.04,
     "phase": "point_queries"},
    {"experiment": "E14", "routing_backend": "ch", "wall_seconds": 0.01,
     "phase": "warm_restart"},
    {"experiment": "E14", "routing_backend": "ch", "wall_seconds": 1.5,
     "phase": "dispatch"},
]


class TestAggregation:
    def test_phases_get_their_own_keys(self):
        walls = trend.aggregate_wall_seconds(RECORDS, ["E2", "E14"])
        assert walls[("E2", "csr", "")] == 0.5
        assert walls[("E14", "ch", "point_queries")] == 0.04
        assert walls[("E14", "ch", "warm_restart")] == 0.01
        # a fast disk read can no longer mask a point-query regression:
        # the phases never share an aggregate
        assert ("E14", "ch") not in walls

    def test_retired_dimensions_share_the_plain_key(self):
        """Historical rows may still carry ``tree_provider`` or ``workers``;
        neither splits an aggregate any more."""
        records = [
            {"experiment": "E12", "routing_backend": "csr", "workers": 1,
             "wall_seconds": 0.8},
            {"experiment": "E12", "routing_backend": "csr", "workers": 2,
             "wall_seconds": 0.3},
            {"experiment": "E12", "routing_backend": "csr", "tree_provider": "plane",
             "wall_seconds": 0.6},
        ]
        assert trend.aggregate_wall_seconds(records, ["E12"]) == {("E12", "csr", ""): 0.3}

    def test_skip_phases_drops_only_the_named_phase(self):
        walls = trend.aggregate_wall_seconds(
            RECORDS, ["E14"], skip_phases=["warm_restart"]
        )
        assert ("E14", "ch", "warm_restart") not in walls
        assert ("E14", "ch", "point_queries") in walls
        assert ("E14", "ch", "dispatch") in walls

    def test_describe_labels(self):
        assert trend.describe(("E2", "csr", "")) == "E2 [csr]"
        assert trend.describe(("E14", "ch", "point_queries")) == "E14 [ch:point_queries]"


class TestMain:
    def _write(self, path, records):
        path.write_text(json.dumps(records))
        return str(path)

    def test_phase_regression_fails_even_with_a_fast_sibling_phase(self, tmp_path, capsys):
        baseline = self._write(tmp_path / "baseline.json", RECORDS)
        regressed = [dict(r) for r in RECORDS]
        for record in regressed:
            if record.get("phase") == "point_queries":
                record["wall_seconds"] = 0.08  # 2x the baseline
            if record.get("phase") == "warm_restart":
                record["wall_seconds"] = 0.005  # disk got *faster*
        fresh = self._write(tmp_path / "fresh.json", regressed)
        code = trend.main([
            "--baseline", baseline, "--fresh", fresh,
            "--experiments", "E14", "--skip-phases", "warm_restart",
        ])
        out = capsys.readouterr()
        assert code == 1
        assert "E14 [ch:point_queries]" in out.err

    def test_archive_writes_phase_field(self, tmp_path, capsys):
        baseline = self._write(tmp_path / "baseline.json", RECORDS)
        fresh = self._write(tmp_path / "fresh.json", RECORDS)
        trajectory = tmp_path / "trajectory.jsonl"
        code = trend.main([
            "--baseline", baseline, "--fresh", fresh,
            "--experiments", "E2", "--archive",
            "--trajectory", str(trajectory), "--commit", "abc123",
        ])
        assert code == 0
        rows = [json.loads(line) for line in trajectory.read_text().splitlines()]
        by_key = {(r["experiment"], r["routing_backend"], r.get("phase", "")): r for r in rows}
        assert by_key[("E2", "csr", "")]["wall_seconds"] == 0.5
        assert by_key[("E14", "ch", "point_queries")]["phase"] == "point_queries"
        assert set(by_key[("E2", "csr", "")]) == {
            "commit", "experiment", "routing_backend", "wall_seconds", "aggregate",
        }
        assert all(r["commit"] == "abc123" for r in rows)

    def test_archive_writes_no_retired_dimension_fields(self, tmp_path):
        records = [
            {"experiment": "E12", "routing_backend": "csr", "workers": 4,
             "wall_seconds": 0.3},
            {"experiment": "E12", "routing_backend": "csr", "workers": 1,
             "tree_provider": "plane", "wall_seconds": 0.8},
        ]
        trajectory = tmp_path / "trajectory.jsonl"
        assert trend.archive_records(records, trajectory, "abc123", "min") == 1
        (row,) = [json.loads(line) for line in trajectory.read_text().splitlines()]
        assert row["wall_seconds"] == 0.3
        assert "workers" not in row and "tree_provider" not in row

    def test_an_old_multi_worker_baseline_is_compared_under_the_plain_key(
        self, tmp_path, capsys
    ):
        # a baseline written when worker counts split the key still gates
        # the single-process fresh run: a regression against it fails
        baseline = self._write(tmp_path / "baseline.json", [
            {"experiment": "E12", "routing_backend": "csr", "workers": 2,
             "wall_seconds": 0.5},
        ])
        fresh = self._write(tmp_path / "fresh.json", [
            {"experiment": "E12", "routing_backend": "csr", "wall_seconds": 1.0},
        ])
        code = trend.main([
            "--baseline", baseline, "--fresh", fresh, "--experiments", "E12",
        ])
        out = capsys.readouterr()
        assert code == 1
        assert "E12 [csr]" in out.err
        assert "skipped" not in out.out

    def test_archive_carries_the_records_cpu_count(self, tmp_path):
        stamped = [dict(record, cpu_count=2) for record in RECORDS]
        trajectory = tmp_path / "trajectory.jsonl"
        assert trend.archive_records(stamped, trajectory, "abc123", "min") == 4
        assert trend.archive_records(RECORDS, trajectory, "def456", "min") == 4
        rows = [json.loads(line) for line in trajectory.read_text().splitlines()]
        assert all(r["cpu_count"] == 2 for r in rows if r["commit"] == "abc123")
        assert not any("cpu_count" in r for r in rows if r["commit"] == "def456")

    def test_rate_phase_drop_is_a_regression(self, tmp_path, capsys):
        # wall_seconds holds a throughput (req/s) for rate phases: the
        # fresh side *dropping* must fail, not pass
        records = [
            {"experiment": "E17", "routing_backend": "csr", "wall_seconds": 1000.0,
             "phase": "smoke_throughput"},
        ]
        baseline = self._write(tmp_path / "baseline.json", records)
        dropped = [dict(records[0], wall_seconds=500.0)]
        fresh = self._write(tmp_path / "fresh.json", dropped)
        code = trend.main([
            "--baseline", baseline, "--fresh", fresh,
            "--experiments", "E17", "--rate-phases", "smoke_throughput",
        ])
        out = capsys.readouterr()
        assert code == 1
        assert "E17 [csr:smoke_throughput]" in out.err
        assert "2.00x" in out.out
        assert "/s" in out.out

    def test_rate_phase_rise_is_fine_and_wall_semantics_are_untouched(self, tmp_path, capsys):
        records = [
            {"experiment": "E17", "routing_backend": "csr", "wall_seconds": 1000.0,
             "phase": "smoke_throughput"},
            {"experiment": "E17", "routing_backend": "csr", "wall_seconds": 1.4,
             "phase": "smoke_latency_p95"},
        ]
        baseline = self._write(tmp_path / "baseline.json", records)
        improved = [
            dict(records[0], wall_seconds=2000.0),  # throughput doubled: OK
            dict(records[1], wall_seconds=2.9),     # latency doubled: regressed
        ]
        fresh = self._write(tmp_path / "fresh.json", improved)
        code = trend.main([
            "--baseline", baseline, "--fresh", fresh,
            "--experiments", "E17", "--rate-phases", "smoke_throughput",
        ])
        out = capsys.readouterr()
        assert code == 1
        # only the non-rate phase regressed; the doubled rate passed
        assert "E17 [csr:smoke_latency_p95]" in out.err
        assert "E17 [csr:smoke_throughput]" not in out.err

    def test_without_rate_phases_a_drop_passes_silently(self, tmp_path, capsys):
        # guard against accidentally treating every phase as a rate
        records = [
            {"experiment": "E17", "routing_backend": "csr", "wall_seconds": 1000.0,
             "phase": "smoke_throughput"},
        ]
        baseline = self._write(tmp_path / "baseline.json", records)
        fresh = self._write(tmp_path / "fresh.json", [dict(records[0], wall_seconds=500.0)])
        code = trend.main([
            "--baseline", baseline, "--fresh", fresh, "--experiments", "E17",
        ])
        assert code == 0
