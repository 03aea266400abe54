"""The who-roots-trees replay tool: runs on a tiny day, report format, the
two askers this repository has retired stay at zero, the tree-cache flag
reaches the engine, ``--expect-trees`` gates the total and
``--expect-full-rows`` the grid's full row searches."""

from __future__ import annotations

import importlib.util
import io
import re
import sys
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "trees_by_caller.py"
_spec = importlib.util.spec_from_file_location("trees_by_caller", _SCRIPT)
tool = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("trees_by_caller", tool)
_spec.loader.exec_module(tool)

TINY_DAY = ["--rows", "8", "--grid", "3", "--vehicles", "12", "--requests", "40",
            "--rate", "4", "--hotspots", "0", "--max-pickup", "6", "--seed", "5"]

REPORT = re.compile(
    r"routing\.trees_computed by caller \(path (book|batched), seed 5, 40 requests, "
    + r"(\d+)-tree cache\)\n"
    + r"  caller +trees walks pinned\n"
    + "".join(rf"  {name} +\d+ +\d+ +\d+\n" for name in tool.CALLERS + ("other", "total"))
    + r"best_schedule: \d+ calls on a non-empty tree, \d+ \(\d+\.\d%\) saw one branch\n"
    + r"grid lower-bound rows: (\d+) searches, (\d+) bounded, (\d+) full\n"
)


def _run(argv):
    out = io.StringIO()
    trees, rows = tool.replay(tool.parse_args(argv), out=out)
    return trees, rows, out.getvalue()


@pytest.mark.parametrize("path", ["book", "batched"])
def test_report_names_every_caller_and_commit_and_cancel_root_nothing(path):
    trees, _rows, report = _run(TINY_DAY + ["--path", path])
    assert REPORT.fullmatch(report), report
    assert list(trees) == list(tool.CALLERS) + ["other"]
    total = int(re.search(r"  total +(\d+) +\d+ +\d+\n", report).group(1))
    assert total == sum(trees.values()) > 0
    # a commit installs what verification found, a cancel needs no distance
    assert trees["commit"] == 0
    assert trees["cancel"] == 0
    assert trees["other"] == 0
    for name in ("commit", "cancel", "other"):
        assert re.search(rf"  {name} +0 +0 +\d+\n", report), name


def test_the_probe_leaves_nothing_patched():
    from repro.vehicles.kinetic_tree import KineticTree

    before = KineticTree.best_schedule
    _run(TINY_DAY)
    assert KineticTree.best_schedule is before
    assert tool.main(TINY_DAY) == 0


def test_a_small_tree_cache_pins_stop_rows_and_the_total_is_gated(capsys):
    """On an 8-slot cache the batched day's stop rows are pinned and answer
    reads; ``--expect-trees`` exits 0 only for the day's exact total."""
    argv = TINY_DAY + ["--path", "batched", "--tree-cache", "8"]
    trees, _rows, report = _run(argv)
    assert REPORT.fullmatch(report), report
    assert "8-tree cache" in report
    total, pinned = map(int, re.search(r"  total +(\d+) +\d+ +(\d+)\n", report).groups())
    assert total == sum(trees.values()) and pinned > 0
    assert tool.main(argv + ["--expect-trees", str(total)]) == 0
    assert tool.main(argv + ["--expect-trees", str(total + 1)]) == 1
    assert f"expected {total + 1} trees, counted {total}" in capsys.readouterr().err


def test_grid_rows_are_reported_and_the_full_searches_are_gated(capsys, monkeypatch):
    """The single-side day searches its grid rows out to the pick-up cap; a
    walk that drops its reach searches them whole, which ``--expect-full-rows``
    trips on."""
    trees, rows, report = _run(TINY_DAY)
    searches, bounded, full = map(int, REPORT.fullmatch(report).groups()[2:])
    assert (searches, bounded, full) == (rows["bounded"] + rows["full"], rows["bounded"], rows["full"])
    assert bounded > 0 and full == 0
    assert tool.main(TINY_DAY + ["--expect-full-rows", "0"]) == 0

    from repro.roadnet.grid_index import GridIndex

    expand_from = GridIndex.expand_from
    monkeypatch.setattr(
        GridIndex, "expand_from", lambda grid, cell_id, within=None: expand_from(grid, cell_id)
    )
    capsys.readouterr()
    assert tool.main(TINY_DAY + ["--expect-full-rows", "0"]) == 1
    assert "expected 0 full row searches, counted " in capsys.readouterr().err
