"""Self-tests of the benchmark: ``python -m pytest perfbench/tests -q``.

Every workload runs once at smoke size through the real entry point
(``perfbench/run.py`` as a child process, traced), and the assertions read
what those four runs printed and wrote.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import compare  # noqa: E402
from perfbench.metrics import END_TO_END, PER_LAYER  # noqa: E402
from perfbench.trace import SPAN_NAMES  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: spans the README's layer table predicts at least one of, per workload
BATCHED_SPANS = {
    "api.ingest", "api.pump", "api.advance", "ingest.flush", "dispatcher.batch",
    "dispatcher.commit", "dispatcher.merge", "batch.create", "matcher.collect",
    "insertion", "routing.prefetch", "routing.distance", "sim.step",
    "movement.plan_route", "shortest_path",
}
EXPECTED_SPANS = {
    "commute_book": {
        "api.book", "api.choose", "api.advance", "dispatcher.dispatch",
        "dispatcher.commit", "matcher.collect", "insertion", "routing.distance",
        "sim.step", "movement.plan_route", "shortest_path",
    },
    "commute_batched": BATCHED_SPANS,
    "dense_pool": BATCHED_SPANS,
    "surge_durable": BATCHED_SPANS | {"journal.append", "recovery.snapshot"},
}


def run(*arguments: str, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *arguments],
        capture_output=True, text=True, cwd=root, timeout=120,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """``{workload: (completed process, result document)}`` of one traced
    smoke run each."""
    directory = tmp_path_factory.mktemp("detail")
    runs = {}
    for name in WORKLOADS:
        detail = directory / f"{name}.json"
        finished = run("--workload", name, "--smoke", "--rounds", "1", "--trace", "1",
                       "--detail", str(detail))
        assert finished.returncode == 0, finished.stdout + finished.stderr
        runs[name] = (finished, json.loads(detail.read_text()))
    return runs


def test_benchmark_json_declares_exactly_what_the_tables_hold():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert BENCHMARK["paths"] == ["perfbench"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == list(PER_LAYER)
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])


def test_every_declared_metric_is_emitted_and_nothing_else(smoke):
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
    for name, (finished, document) in smoke.items():
        line = json.loads(finished.stdout.splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert {k: v["unit"] for k, v in line["metrics"].items()} == per_layer, name
        assert set(document["end_to_end"]) == end_to_end, name
        assert all(value > 0 for value in document["end_to_end"].values()), name
        assert "unresolved_entry_points" not in document, name


def test_untraced_run_prints_the_end_to_end_metrics():
    finished = run("--workload", "dense_pool", "--smoke", "--rounds", "1", "--trace", "0")
    assert finished.returncode == 0, finished.stdout + finished.stderr
    line = json.loads(finished.stdout.splitlines()[-1])
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]
    }


def test_both_commute_paths_answer_identically(smoke):
    assert smoke["commute_book"][1]["digests"] == smoke["commute_batched"][1]["digests"]
    expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())
    for size in expected.values():
        for digests in size.values():
            assert digests["commute_book"] == digests["commute_batched"]


def test_predicted_layers_have_spans_and_ticks_balance(smoke):
    for name in smoke:
        spans = [
            json.loads(line)
            for line in (ROOT / "perfbench" / "out" / f"trace-{name}.jsonl").read_text().splitlines()
        ]
        seen = {span["name"] for span in spans}
        assert EXPECTED_SPANS[name] <= seen, (name, EXPECTED_SPANS[name] - seen)
        assert seen <= set(SPAN_NAMES) | {"tick"}
        # per tick: the layers' self times plus the root's own (the unaccounted
        # part) add up to the tick's root span
        self_time = {span["id"]: span["end"] - span["start"] for span in spans}
        for span in spans:
            if span["parent"] is not None:
                self_time[span["parent"]] -= span["end"] - span["start"]
                assert spans[span["parent"]]["tick"] == span["tick"]
        for tick in {span["tick"] for span in spans}:
            root = sum(s["end"] - s["start"] for s in spans
                       if s["tick"] == tick and s["name"] == "tick")
            total = sum(self_time[s["id"]] for s in spans if s["tick"] == tick)
            assert total == pytest.approx(root, rel=0.01), (name, tick)


def test_layer_self_times_account_for_the_day(smoke):
    for name, (_, document) in smoke.items():
        layers = document["per_layer"]
        assert layers["trace.unaccounted_s"] >= 0
        assert layers["insertion.self_s"] <= layers["insertion.busy_s"]
        assert layers["sim.step.busy_s"] <= layers["api.advance.busy_s"]


def _copy_benchmark(target: Path, with_program: bool) -> None:
    shutil.copytree(ROOT / "perfbench", target / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", target)
    if with_program:
        (target / "src").symlink_to(ROOT / "src")


def test_altered_expected_digest_fails_the_run(tmp_path):
    _copy_benchmark(tmp_path, with_program=True)
    expected_file = tmp_path / "perfbench" / "expected.json"
    expected = json.loads(expected_file.read_text())
    expected["smoke"]["1"]["dense_pool"][0] = "0" * 64
    expected_file.write_text(json.dumps(expected))
    finished = run("--workload", "dense_pool", "--smoke", "--rounds", "1", root=tmp_path)
    assert finished.returncode != 0
    assert "CHECK FAILED [dense_pool]" in finished.stdout
    assert json.loads(finished.stdout.splitlines()[-1])["correct"] is False


def test_without_the_program_there_is_no_result(tmp_path):
    _copy_benchmark(tmp_path, with_program=False)
    finished = run("--workload", "dense_pool", "--seed", "1", "--seconds", "1",
                   "--trace", "0", root=tmp_path)
    assert finished.returncode != 0
    assert '"correct"' not in finished.stdout


def _summary(values, unit="s"):
    ordered = sorted(values)
    return {"median": ordered[len(ordered) // 2], "min": ordered[0], "max": ordered[-1],
            "values": list(values), "unit": unit}


def test_compare_verdicts():
    steady = _summary([10.0, 10.1, 9.9])
    assert compare.verdict(steady, _summary([10.2, 10.0, 10.1]), "lower", 0.1) == "ok"
    assert compare.verdict(steady, _summary([12.0, 11.9, 12.1]), "lower", 0.1) == "worse"
    assert compare.verdict(steady, _summary([8.0, 11.5, 10.0]), "lower", 0.1) == "unresolved"
    # wide spread, but every candidate run beats every base run
    assert compare.verdict(_summary([10.0, 12.0, 14.0]), _summary([5.0, 7.0, 9.0]),
                           "lower", 0.1) == "ok"
    assert compare.verdict(steady, _summary([8.0, 8.1, 7.9]), "higher", 0.1) == "worse"
