"""The matcher-vs-naive replay tool: runs on a tiny day, report format."""

from __future__ import annotations

import importlib.util
import io
import math
import re
import sys
from pathlib import Path

from repro.core.single_side import SingleSideSearchMatcher

_SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "matcher_vs_naive.py"
_spec = importlib.util.spec_from_file_location("matcher_vs_naive", _SCRIPT)
tool = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("matcher_vs_naive", tool)
_spec.loader.exec_module(tool)

TINY_DAY = ["--rows", "8", "--grid", "3", "--vehicles", "12", "--requests", "40",
            "--rate", "4", "--hotspots", "0", "--max-pickup", "6", "--seed", "5"]

VEHICLE_LINES = re.compile(
    r"  (missed|extra) c\d+: empty=(True|False) offset=\d+\.\d{3} location=\d+ "
    r"probe=\(\d+\.\d{4}, (\d+\.\d{4}|inf)\)\n"
    r"    true=(-|\(\d+\.\d{4}, \d+\.\d{4}\)( \(\d+\.\d{4}, \d+\.\d{4}\))*) "
    r"cell=\(\d+, \d+\) registered=\[\(\d+, \d+\)(, \(\d+, \d+\))*\]\n"
)


def _run(argv):
    out = io.StringIO()
    disagreements = tool.replay(tool.parse_args(argv), out=out)
    return disagreements, out.getvalue()


class TestReplay:
    def test_agreeing_day_prints_only_the_summary(self):
        disagreements, report = _run(TINY_DAY + ["--matcher", "dual_side"])
        assert disagreements == 0
        assert report == "40 requests, 0 disagreements (matcher dual_side, seed 5)\n"
        assert tool.main(TINY_DAY) == 0

    def test_disagreement_names_the_vehicle_and_its_state(self, monkeypatch):
        # An inadmissible price probe: every taxi slower than a confirmed
        # option is pruned, so slower-but-cheaper options go missing.
        monkeypatch.setattr(
            SingleSideSearchMatcher, "_price_lower_bound", lambda self, vehicle, context: math.inf
        )
        disagreements, report = _run(TINY_DAY)
        assert disagreements > 0
        *lines, summary = report.splitlines()
        assert summary == f"40 requests, {disagreements} disagreements (matcher single_side, seed 5)"
        headers = [line for line in lines if not line.startswith(" ")]
        assert len(headers) == disagreements
        for header in headers:
            assert re.fullmatch(r"D\d+: single_side \d+ options, naive \d+", header)
        vehicles = "".join(line + "\n" for line in lines if line.startswith(" "))
        assert "  missed " in vehicles
        assert VEHICLE_LINES.sub("", vehicles) == ""
        assert tool.main(TINY_DAY) == 1


class TestExpect:
    def test_exit_status_is_zero_only_for_the_expected_count(self, monkeypatch, capsys):
        assert tool.main(TINY_DAY + ["--expect", "0"]) == 0
        assert tool.main(TINY_DAY + ["--expect", "1"]) == 1
        assert capsys.readouterr().err == "expected 1 disagreements\n"
        monkeypatch.setattr(
            SingleSideSearchMatcher, "_price_lower_bound", lambda self, vehicle, context: math.inf
        )
        disagreements, _ = _run(TINY_DAY)
        assert disagreements > 0
        assert tool.main(TINY_DAY + ["--expect", str(disagreements)]) == 0


class TestRouting:
    def test_the_backend_flag_reaches_the_service_engine(self):
        for argv, backend in (([], "csr"), (["--routing", "csr+alt"], "csr+alt")):
            service = tool.build_service(tool.parse_args(TINY_DAY + argv))
            assert service.config.routing_backend == backend
            assert service.fleet.routing_engine.backend == backend

    def test_the_tree_cache_flag_reaches_the_service_engine(self):
        for argv, slots in (([], 1024), (["--tree-cache", "8"], 8)):
            service = tool.build_service(tool.parse_args(TINY_DAY + argv))
            assert service.fleet.routing_engine.max_cached_sources == slots
