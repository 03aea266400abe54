#!/usr/bin/env python3
"""Which ``src/`` lines does no runtime entry point run?

The paper's runtime is the smartphone flow and the website flow (Sections 4.1
and 4.2); this script drives them from a fixed set of entry points and lists
every executable ``src/`` line none of them reached:

- every ``examples/*.py``;
- ``ptrider demo``, ``simulate`` and ``compare`` on a small city;
- a durable ``demo`` and its ``--resume``, in a temporary directory;
- ``perfbench/run.py --seed 1 --rounds 1 --trace 0`` on each of the four
  workloads.

Each entry runs in its own child process, under ``PYTHONHASHSEED=0`` (so
``perfbench/run.py`` does not re-execute itself and lose the tracer) and a
``sys.settrace`` line tracer that records the lines of ``src/`` files only.
The executable lines of a file are the ``co_lines()`` of every code object
compiled from it.  The standard library is all it needs.

The report lists, per file, the unreached lines as ranges (a range skips
blank and comment lines, never a reached line), then the total::

    src/repro/model/stops.py  5: 25, 64, 83, 86-87
    ...
    unreached: 734 of 5212 executable src/ lines (14.1%)

``--max N`` exits 1 when more than ``N`` lines are unreached (and 2 when an
entry point fails).  The whole set takes about 45 s on two cores.

Usage::

    python scripts/runtime_coverage.py
    python scripts/runtime_coverage.py --max 734
"""

from __future__ import annotations

import argparse
import json
import os
import runpy
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import CodeType
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: the four perfbench workloads (``perfbench/workloads.py``)
WORKLOADS = ("commute_book", "commute_batched", "dense_pool", "surge_durable")
CITY = ["--vehicles", "8", "--rows", "6", "--columns", "6", "--seed", "3"]


def entry_points(journal: Path) -> List[Tuple[str, List[str]]]:
    """The fixed entry set as ``(name, argv)``: ``argv[0]`` is a script path
    or ``-m`` and a module name, as on a ``python`` command line."""
    entries = [(path.name, [str(path)]) for path in sorted((ROOT / "examples").glob("*.py"))]
    cli = ["-m", "repro.cli"]
    entries += [
        ("demo", cli + ["demo"] + CITY),
        ("simulate", cli + ["simulate", "--vehicles", "6", "--rows", "6", "--columns", "6",
                            "--trips", "10", "--duration", "60", "--seed", "3"]),
        ("compare", cli + ["compare", "--vehicles", "10", "--rows", "6", "--columns", "6",
                           "--requests", "5", "--seed", "3"]),
        ("demo durable", cli + ["demo"] + CITY
         + ["--durability", "journal+snapshot", "--journal", str(journal)]),
        ("demo --resume", cli + ["demo"] + CITY + ["--journal", str(journal), "--resume"]),
    ]
    run = str(ROOT / "perfbench" / "run.py")
    entries += [
        (f"perfbench {name}",
         [run, "--workload", name, "--seed", "1", "--rounds", "1", "--trace", "0"])
        for name in WORKLOADS
    ]
    return entries


# ----------------------------------------------------------------------
# executable lines
# ----------------------------------------------------------------------
def _code_objects(code: CodeType) -> Iterator[CodeType]:
    yield code
    for const in code.co_consts:
        if isinstance(const, CodeType):
            yield from _code_objects(const)


def executable_lines(path: Path) -> Set[int]:
    """Every line number a code object compiled from ``path`` maps
    an instruction to."""
    module = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    return {
        line
        for code in _code_objects(module)
        for _, _, line in code.co_lines()
        if line
    }


def unreached_ranges(executable: Iterable[int], reached: Set[int]) -> List[Tuple[int, int]]:
    """The unreached executable lines as ``(first, last)`` ranges: a range
    grows over unreached lines and breaks at a reached one."""
    ranges: List[Tuple[int, int]] = []
    open_range = False
    for line in sorted(executable):
        if line in reached:
            open_range = False
        elif open_range:
            ranges[-1] = (ranges[-1][0], line)
        else:
            ranges.append((line, line))
            open_range = True
    return ranges


def format_ranges(ranges: Sequence[Tuple[int, int]]) -> str:
    """``[(3, 3), (7, 9)]`` -> ``"3, 7-9"``."""
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in ranges)


# ----------------------------------------------------------------------
# the tracer (runs in the child)
# ----------------------------------------------------------------------
class LineTracer:
    """Records, per file under ``root``, the line numbers that ran.

    Use as a context manager; ``hits`` maps absolute file paths to line
    sets.  Frames of other files get no local tracer, so they cost one
    dictionary lookup per call.
    """

    def __init__(self, root: Path) -> None:
        self._root = str(root.resolve()) + os.sep
        self.hits: Dict[str, Set[int]] = {}
        self._local: Dict[str, Optional[Callable]] = {}
        self._previous: Optional[Callable] = None

    def _tracer_for(self, filename: str) -> Optional[Callable]:
        path = os.path.abspath(filename)
        if not path.startswith(self._root):
            return None
        add = self.hits.setdefault(path, set()).add

        def local(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return local

        return local

    def _global(self, frame, event, arg):
        filename = frame.f_code.co_filename
        try:
            return self._local[filename]
        except KeyError:
            local = self._local[filename] = self._tracer_for(filename)
            return local

    def __enter__(self) -> "LineTracer":
        self._previous = sys.gettrace()
        sys.settrace(self._global)
        return self

    def __exit__(self, *exc: object) -> None:
        sys.settrace(self._previous)


def _child(out: Path, argv: List[str]) -> int:
    """Run one entry point traced and write the lines it reached to ``out``."""
    if argv[0] == "-m":
        sys.argv = [argv[1]] + argv[2:]
        sys.path[0] = os.getcwd()
        run = lambda: runpy.run_module(argv[1], run_name="__main__", alter_sys=True)  # noqa: E731
    else:
        sys.argv = list(argv)
        sys.path[0] = str(Path(argv[0]).resolve().parent)
        run = lambda: runpy.run_path(argv[0], run_name="__main__")  # noqa: E731
    status = 0
    with LineTracer(SRC) as tracer:
        try:
            run()
        except SystemExit as done:
            code = done.code
            status = code if isinstance(code, int) else (0 if code is None else 1)
    out.write_text(json.dumps({path: sorted(lines) for path, lines in tracer.hits.items()}))
    return status


# ----------------------------------------------------------------------
# the driver
# ----------------------------------------------------------------------
def run_entries(entries: Sequence[Tuple[str, List[str]]], scratch: Path) -> Dict[str, Set[int]]:
    """Run every entry in its own traced child; the union of their lines."""
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    reached: Dict[str, Set[int]] = {}
    for index, (name, argv) in enumerate(entries):
        out = scratch / f"entry{index}.json"
        started = time.perf_counter()
        done = subprocess.run(
            [sys.executable, __file__, "--child", str(out), "--", *argv],
            cwd=scratch, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise RuntimeError(f"entry point {name!r} exited {done.returncode}")
        print(f"# ran {name} ({time.perf_counter() - started:.1f} s)", file=sys.stderr)
        for path, lines in json.loads(out.read_text()).items():
            reached.setdefault(path, set()).update(lines)
    return reached


def report(reached: Dict[str, Set[int]], src: Path) -> Tuple[int, int, List[str]]:
    """``(unreached, executable, lines of the report)`` over every ``.py``
    file under ``src``."""
    unreached = executable = 0
    out: List[str] = []
    for path in sorted(src.rglob("*.py")):
        lines = executable_lines(path)
        hit = reached.get(str(path.resolve()), set())
        missed = lines - hit
        executable += len(lines)
        unreached += len(missed)
        if missed:
            name = path.relative_to(src.parent).as_posix()
            out.append(f"{name}  {len(missed)}: {format_ranges(unreached_ranges(lines, hit))}")
    share = 100.0 * unreached / executable if executable else 0.0
    out.append(f"unreached: {unreached} of {executable} executable src/ lines ({share:.1f}%)")
    return unreached, executable, out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--max", type=int, default=None,
                        help="exit 1 when more lines than this are unreached")
    parser.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("target", nargs=argparse.REMAINDER, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        target = args.target[1:] if args.target[:1] == ["--"] else args.target
        return _child(args.child, target)
    if args.target:
        parser.error(f"unrecognized arguments: {' '.join(args.target)}")
    with tempfile.TemporaryDirectory(prefix="runtime-coverage-") as scratch:
        try:
            reached = run_entries(entry_points(Path(scratch) / "journal"), Path(scratch))
        except RuntimeError as error:
            print(f"runtime_coverage: {error}", file=sys.stderr)
            return 2
    unreached, _, lines = report(reached, SRC)
    print("\n".join(lines))
    if args.max is not None and unreached > args.max:
        print(f"runtime_coverage: {unreached} unreached lines, more than --max {args.max}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
