"""Every definition in ``src/`` is reached from a runtime file, bar a kept few.

Runtime files are the Python files under ``src/``, ``perfbench/``,
``benchmarks/``, ``examples/`` and ``scripts/``, plus ``pyproject.toml``.
A definition is a module-level function or class, or a method or nested
class of a class (dunder names aside).  It is *reached* when its bare name
is referenced somewhere in those files:

* a ``Name`` id or an ``Attribute`` attr;
* a dotted part of a string constant, which covers perfbench's tracer
  tables (``"collect_shard"``, ``"Skyline.merge"``);
* an identifier anywhere in ``pyproject.toml``.

Neither ``__all__`` entries nor import aliases count: re-exporting a name
does not use it.  A definition only tests reach must be deleted, or named in
:data:`KEEP` with the reason the tests need it.

Blind spot: the scan matches bare names, so a dead method that shares its
name with a live one (``KineticTree.stops`` beside ``Request.stops``,
``Matcher.fleet`` beside ``Dispatcher.fleet``) always looks reached.
``scripts/runtime_coverage.py`` is the check for those: it runs the runtime
entry points under a line tracer and lists every ``src/`` line none of them
ran, whatever the line's name.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
RUNTIME_DIRECTORIES = ("src", "perfbench", "benchmarks", "examples", "scripts")

#: Definitions only tests reach, each with the reason it stays.
KEEP: Dict[str, str] = {
    "CSREngine.invalidate": (
        "the seam tests use to grow a network under a live engine"
    ),
    "ServiceJournal.command_count": (
        "a resumed driver's documented restart point (ARCHITECTURE.md, durability)"
    ),
    "load_snapshot_state": (
        "the (seq, state) view of SnapshotChain.load the snapshot and fold tests read"
    ),
}


def _runtime_files() -> Iterator[Path]:
    for directory in RUNTIME_DIRECTORIES:
        yield from sorted((ROOT / directory).rglob("*.py"))


def _all_entries(tree: ast.AST) -> Set[int]:
    """Ids of the nodes inside ``__all__`` assignments (re-exports, not uses)."""
    skipped: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            skipped.update(id(child) for child in ast.walk(node))
    return skipped


def _references(tree: ast.AST) -> Set[str]:
    skipped = _all_entries(tree)
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in skipped
        ):
            names.update(node.value.split("."))
    return names


def _definitions(body: List[ast.stmt], prefix: str = "") -> Iterator[Tuple[str, str]]:
    """``(qualified name, bare name)`` of every function and class, methods
    and nested classes included."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = node.name
            if not (name.startswith("__") and name.endswith("__")):
                yield prefix + name, name
            if isinstance(node, ast.ClassDef):
                yield from _definitions(node.body, f"{prefix}{name}.")


def unreached_definitions() -> Dict[str, str]:
    """``{qualified name: file}`` of every ``src/`` definition no runtime
    file references."""
    referenced: Set[str] = set(
        re.findall(r"[A-Za-z_]\w*", (ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    )
    defined: List[Tuple[str, str, str]] = []
    for path in _runtime_files():
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        referenced |= _references(tree)
        if path.relative_to(ROOT).parts[0] == "src":
            relative = path.relative_to(ROOT).as_posix()
            defined.extend((qualified, bare, relative) for qualified, bare in _definitions(tree.body))
    return {
        qualified: relative
        for qualified, bare, relative in defined
        if bare not in referenced
    }


def test_only_the_kept_names_are_unreached():
    unreached = unreached_definitions()
    dead = sorted(f"{name} ({unreached[name]})" for name in set(unreached) - set(KEEP))
    reached = sorted(set(KEEP) - set(unreached))
    assert not dead, f"only tests reach these; delete them or add them to KEEP: {dead}"
    assert not reached, f"runtime code reaches these now; drop them from KEEP: {reached}"


@pytest.mark.parametrize("name", sorted(KEEP))
def test_every_kept_name_is_used_by_a_test(name):
    tests = Path(__file__).resolve().parent
    text = "\n".join(path.read_text(encoding="utf-8") for path in sorted(tests.rglob("*.py"))
                     if path.name != Path(__file__).name)
    assert re.search(rf"\b{re.escape(name.rpartition('.')[2])}\b", text), name


# ----------------------------------------------------------------------
# the scan itself


def test_names_attributes_and_dotted_strings_are_references():
    tree = ast.parse("total = engine.distance(a)\nTRACED = ('collect_shard', 'Skyline.merge')\n")
    assert {"total", "engine", "distance", "a", "collect_shard", "Skyline", "merge"} <= _references(tree)


def test_all_entries_and_import_aliases_are_not_references():
    tree = ast.parse(
        "from repro.errors import NoMatchError as Missing\n"
        "import repro.sim.trip_io as trip_io\n"
        "__all__ = ['NoMatchError', 'save_trips']\n"
        "__all__ += ['load_trips']\n"
    )
    references = _references(tree)
    assert not references & {"NoMatchError", "Missing", "trip_io", "save_trips", "load_trips"}


def test_definitions_include_methods_and_nested_classes_but_not_dunders():
    tree = ast.parse(
        "def top(): pass\n"
        "class Outer:\n"
        "    def __init__(self): pass\n"
        "    def method(self): pass\n"
        "    class Inner:\n"
        "        async def poll(self): pass\n"
    )
    assert list(_definitions(tree.body)) == [
        ("top", "top"), ("Outer", "Outer"), ("Outer.method", "method"),
        ("Outer.Inner", "Inner"), ("Outer.Inner.poll", "poll"),
    ]


def test_a_definition_only_tests_reach_is_reported(tmp_path, monkeypatch):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        "__all__ = ['used', 'dead', 'entry']\n"
        "def used(): pass\n"
        "def dead(): pass\n"
        "def entry(): used()\n",
        encoding="utf-8",
    )
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text("from pkg.mod import dead\ndead()\n")
    (tmp_path / "pyproject.toml").write_text('[project.scripts]\nrun = "pkg.mod:entry"\n')
    monkeypatch.setattr(sys.modules[__name__], "ROOT", tmp_path)
    assert unreached_definitions() == {"dead": "src/pkg/mod.py"}
