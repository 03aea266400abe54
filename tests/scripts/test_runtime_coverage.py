"""The runtime line sweep: line counting, range printing, the tracer and
``--max``, on small modules under ``tmp_path`` (no entry point is started)."""

from __future__ import annotations

import importlib.util
import json
import sys
import textwrap
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "runtime_coverage.py"
_spec = importlib.util.spec_from_file_location("runtime_coverage", _SCRIPT)
tool = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("runtime_coverage", tool)
_spec.loader.exec_module(tool)

MODULE = textwrap.dedent(
    """\
    import os

    LIMIT = 3


    def used(x):
        # a comment is not a line of code
        if x > LIMIT:
            return x - LIMIT

        return x


    def unused(y):
        total = y
        total += 1
        return total
    """
)
#: the statement lines of MODULE, 1-based
IMPORT, LIMIT, USED_DEF, USED_IF, USED_RETURN_1, USED_RETURN_2 = 1, 3, 6, 8, 9, 11
UNUSED_DEF, UNUSED_BODY = 14, (15, 16, 17)


def _write_package(root: Path) -> Path:
    package = root / "src" / "pkg"
    package.mkdir(parents=True)
    path = package / "mod.py"
    path.write_text(MODULE, encoding="utf-8")
    return path


def _import(path: Path):
    spec = importlib.util.spec_from_file_location("rc_probe_module", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExecutableLines:
    def test_statements_count_and_comments_and_blanks_do_not(self, tmp_path):
        lines = tool.executable_lines(_write_package(tmp_path))
        statements = {IMPORT, LIMIT, USED_DEF, USED_IF, USED_RETURN_1, USED_RETURN_2,
                      UNUSED_DEF, *UNUSED_BODY}
        assert statements <= lines
        assert not lines & {2, 4, 5, 7, 10, 12, 13}  # blank or comment lines

    def test_nested_code_objects_are_walked(self, tmp_path):
        path = tmp_path / "nested.py"
        path.write_text("def outer():\n    def inner():\n        return 1\n    return inner\n")
        assert tool.executable_lines(path) >= {1, 2, 3, 4}


class TestRanges:
    def test_a_range_skips_lines_that_are_not_code_and_breaks_at_a_reached_one(self):
        executable = [1, 2, 3, 5, 6, 9, 12]
        assert tool.unreached_ranges(executable, {2, 12}) == [(1, 1), (3, 9)]

    def test_everything_reached_leaves_no_range(self):
        assert tool.unreached_ranges([4, 5, 6], {4, 5, 6}) == []

    def test_nothing_reached_is_one_range(self):
        assert tool.unreached_ranges({7, 3, 5}, set()) == [(3, 7)]

    def test_format(self):
        assert tool.format_ranges([(3, 3), (7, 9), (12, 12)]) == "3, 7-9, 12"
        assert tool.format_ranges([]) == ""


class TestTracer:
    def test_records_the_lines_that_ran_under_its_root_only(self, tmp_path):
        path = _write_package(tmp_path)
        with tool.LineTracer(tmp_path / "src") as tracer:
            _import(path).used(5)
        hit = tracer.hits[str(path.resolve())]
        assert {IMPORT, LIMIT, USED_DEF, UNUSED_DEF, USED_IF, USED_RETURN_1} <= hit
        assert not hit & {USED_RETURN_2, *UNUSED_BODY}
        assert set(tracer.hits) == {str(path.resolve())}

    def test_restores_the_previous_trace_function(self, tmp_path):
        before = sys.gettrace()
        with tool.LineTracer(tmp_path):
            pass
        assert sys.gettrace() is before

    def test_a_child_writes_its_lines_and_returns_the_exit_status(self, tmp_path, monkeypatch):
        path = _write_package(tmp_path)
        script = path.parent / "main.py"
        script.write_text(
            "import sys\n"
            f"sys.path.insert(0, {str(path.parent)!r})\n"
            "import mod\n"
            "mod.unused(1)\n"
            "raise SystemExit(3)\n",
            encoding="utf-8",
        )
        monkeypatch.setattr(tool, "SRC", tmp_path / "src")
        monkeypatch.setattr(sys, "argv", list(sys.argv))
        monkeypatch.setattr(sys, "path", list(sys.path))
        monkeypatch.delitem(sys.modules, "mod", raising=False)
        out = tmp_path / "lines.json"
        assert tool._child(out, [str(script)]) == 3
        sys.modules.pop("mod", None)
        hits = json.loads(out.read_text())
        assert set(hits[str(path.resolve())]) >= set(UNUSED_BODY)
        assert hits[str(script.resolve())] == [1, 2, 3, 4, 5]

    def test_a_child_runs_a_module_by_name_as_dash_m_does(self, tmp_path, monkeypatch):
        path = _write_package(tmp_path)
        (path.parent / "__init__.py").write_text("")
        (path.parent / "__main__.py").write_text("from pkg.mod import used\nused(1)\n")
        monkeypatch.setattr(tool, "SRC", tmp_path / "src")
        monkeypatch.setattr(sys, "argv", list(sys.argv))
        # as on PYTHONPATH: the child points sys.path[0] at the working directory
        monkeypatch.setattr(sys, "path", sys.path[:1] + [str(tmp_path / "src")] + sys.path[1:])
        monkeypatch.chdir(tmp_path)
        for name in ("pkg", "pkg.mod", "pkg.__main__"):
            monkeypatch.delitem(sys.modules, name, raising=False)
        out = tmp_path / "lines.json"
        try:
            assert tool._child(out, ["-m", "pkg"]) == 0
        finally:
            for name in ("pkg", "pkg.mod", "pkg.__main__"):
                sys.modules.pop(name, None)
        hit = set(json.loads(out.read_text())[str(path.resolve())])
        assert {USED_IF, USED_RETURN_2} <= hit
        assert USED_RETURN_1 not in hit


class TestReport:
    def test_counts_and_lists_per_file(self, tmp_path):
        path = _write_package(tmp_path)
        executable = tool.executable_lines(path)
        reached = {str(path.resolve()): executable - set(UNUSED_BODY)}
        unreached, total, lines = tool.report(reached, tmp_path / "src")
        assert (unreached, total) == (3, len(executable))
        assert lines[0] == "src/pkg/mod.py  3: 15-17"
        assert lines[-1].startswith(f"unreached: 3 of {total} executable src/ lines")

    def test_a_file_no_entry_point_imported_is_wholly_unreached(self, tmp_path):
        path = _write_package(tmp_path)
        unreached, total, lines = tool.report({}, tmp_path / "src")
        assert unreached == total == len(tool.executable_lines(path))
        assert len(lines) == 2


class TestMax:
    @pytest.fixture
    def swept(self, tmp_path, monkeypatch):
        path = _write_package(tmp_path)
        monkeypatch.setattr(tool, "SRC", tmp_path / "src")
        reached = {str(path.resolve()): tool.executable_lines(path) - set(UNUSED_BODY)}
        monkeypatch.setattr(tool, "run_entries", lambda entries, scratch: reached)

    def test_at_or_under_the_bound_exits_zero(self, swept, capsys):
        assert tool.main(["--max", "3"]) == 0
        assert capsys.readouterr().out.splitlines()[-1].startswith("unreached: 3 of")

    def test_over_the_bound_exits_one(self, swept, capsys):
        assert tool.main(["--max", "2"]) == 1
        assert "more than --max 2" in capsys.readouterr().err

    def test_a_failing_entry_point_exits_two(self, tmp_path, monkeypatch, capsys):
        def fail(entries, scratch):
            raise RuntimeError("entry point 'demo' exited 1")

        monkeypatch.setattr(tool, "run_entries", fail)
        assert tool.main([]) == 2
        assert "'demo' exited 1" in capsys.readouterr().err


def test_the_entry_set_covers_every_example_the_cli_and_the_four_workloads(tmp_path):
    names = [name for name, _ in tool.entry_points(tmp_path)]
    examples = sorted(path.name for path in (tool.ROOT / "examples").glob("*.py"))
    assert names[: len(examples)] == examples
    assert names[len(examples):] == [
        "demo", "simulate", "compare", "demo durable", "demo --resume",
        "perfbench commute_book", "perfbench commute_batched",
        "perfbench dense_pool", "perfbench surge_durable",
    ]
