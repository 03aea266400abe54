"""The who-roots-trees replay tool: runs on a tiny day, report format, and the
two askers this repository has retired stay at zero."""

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
    r"routing\.trees_computed by caller \(path (book|batched), seed 5, 40 requests\)\n"
    + r"  caller +trees walks\n"
    + "".join(rf"  {name} +\d+ +\d+\n" for name in tool.CALLERS + ("other", "total"))
    + r"best_schedule: \d+ calls on a non-empty tree, \d+ \(\d+\.\d%\) saw one branch\n"
)


def _run(argv):
    out = io.StringIO()
    trees = tool.replay(tool.parse_args(argv), out=out)
    return trees, out.getvalue()


@pytest.mark.parametrize("path", ["book", "batched"])
def test_report_names_every_caller_and_commit_and_cancel_root_nothing(path):
    trees, report = _run(TINY_DAY + ["--path", path])
    assert REPORT.fullmatch(report), report
    assert list(trees) == list(tool.CALLERS) + ["other"]
    total = int(re.search(r"  total +(\d+) +\d+\n", report).group(1))
    assert total == sum(trees.values()) > 0
    # a commit installs what verification found, a cancel needs no distance
    assert trees["commit"] == 0
    assert trees["cancel"] == 0
    assert trees["other"] == 0
    for name in ("commit", "cancel", "other"):
        assert re.search(rf"  {name} +0 +0\n", report), name


def test_the_probe_leaves_nothing_patched():
    from repro.vehicles.kinetic_tree import KineticTree

    before = KineticTree.best_schedule
    _run(TINY_DAY)
    assert KineticTree.best_schedule is before
    assert tool.main(TINY_DAY) == 0
