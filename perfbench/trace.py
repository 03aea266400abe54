"""Spans around each layer's public entry points, recorded from outside.

Nothing under ``src/`` knows about tracing: :meth:`Tracer.attach` rebinds,
at run time, bound methods on the objects the harness built and -- for
module-level functions and class-level methods -- every loaded ``repro.*``
namespace that holds the same function object (``from x import f`` copies
the reference, so patching only the defining module would silently miss
callers; and a later file split keeps working as long as the function object
is still importable from the module named here).  :meth:`Tracer.detach`
undoes every rebinding.

A span is ``[name, start, end, parent index, tick]``.  The harness opens one
root span per tick, so ``sum(self time of every span in a tick)`` equals the
tick's root span by construction; the root's own self time is what no layer
accounts for (``trace.unaccounted_s``).

Functions called more than ~1e6 times per run (``GridIndex
.distance_lower_bound``, ``evaluate_schedule``, ``check_schedule``,
``BatchMatchContext.distance``) are deliberately not wrapped: their cost
stays in the caller's self time.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

#: span name of the per-tick root the harness opens
ROOT = "tick"

#: (span name, attribute path from the service, method name): bound methods
#: rebound on the instances one round built.  ``_flush`` is the one private
#: name: ``MicroBatcher.pump`` returns without flushing on most calls, so the
#: public method would count pumps, not flushes.
INSTANCE_ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("api.book", "", "book_request"),
    ("api.choose", "", "choose"),
    ("api.choose", "", "cancel"),
    ("api.ingest", "", "ingest_request"),
    ("api.pump", "", "pump"),
    ("api.advance", "", "advance"),
    ("ingest.flush", "batcher", "_flush"),
    ("dispatcher.batch", "dispatcher", "dispatch_batch"),
    ("dispatcher.dispatch", "dispatcher", "submit"),
    ("dispatcher.commit", "dispatcher", "commit"),
    ("matcher.collect", "matcher", "match"),
    ("matcher.collect", "matcher", "collect_shard"),
    ("routing.prefetch", "fleet.routing_engine", "prefetch_trees"),
    ("routing.distance", "fleet.routing_engine", "distance"),
    ("routing.distance", "fleet.routing_engine", "distances_from"),
    ("journal.append", "journal", "append"),
)

#: (span name, defining module, dotted name inside it): module-level
#: functions and class-level (class)methods, rebound wherever they are held.
SHARED_ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("insertion", "repro.core.insertion", "insertion_candidates"),
    ("batch.create", "repro.core.batch", "BatchContext.create"),
    ("dispatcher.merge", "repro.model.options", "Skyline.merge"),
    ("sim.step", "repro.sim.engine", "SimulationEngine.step"),
    ("movement.plan_route", "repro.vehicles.movement", "plan_route"),
    ("shortest_path", "repro.roadnet.shortest_path", "shortest_path"),
    ("recovery.snapshot", "repro.service.recovery", "write_snapshot"),
    ("recovery.snapshot", "repro.service.recovery", "write_delta"),
)

SPAN_NAMES: Tuple[str, ...] = tuple(
    dict.fromkeys(
        name for name, _, _ in INSTANCE_ENTRY_POINTS + SHARED_ENTRY_POINTS
    )
)


class Tracer:
    """Records spans in memory; aggregates and writes them after the run."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._tick = 0
        #: (namespace object, attribute, original value) for :meth:`detach`
        self._patches: List[Tuple[object, str, object]] = []
        #: instance attributes to delete on detach
        self._instance_patches: List[Tuple[object, str]] = []
        #: span names whose entry point could not be resolved
        self.unresolved: List[str] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def wrap(self, name: str, function: Callable) -> Callable:
        """``function`` with a span named ``name`` around every call."""
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter, self

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer._tick]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return function(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def begin_tick(self, tick: int) -> None:
        """Open the root span of ``tick``; every span until :meth:`end_tick`
        carries its id."""
        self._tick = tick
        self._stack.append(len(self.spans))
        self.spans.append([ROOT, time.perf_counter(), 0.0, -1, tick])

    def end_tick(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()

    # ------------------------------------------------------------------
    # attaching to one round's objects
    # ------------------------------------------------------------------
    def attach(self, service) -> None:
        """Rebind every resolvable entry point; note the rest in ``unresolved``."""
        for name, path, method in INSTANCE_ENTRY_POINTS:
            target = service
            for part in filter(None, path.split(".")):
                target = getattr(target, part, None)
            bound = getattr(target, method, None) if target is not None else None
            if bound is None:
                # a non-durable service has no journal: nothing to trace there
                if not (path == "journal" and target is None):
                    self.unresolved.append(f"{name} ({path or 'service'}.{method})")
                continue
            setattr(target, method, self.wrap(name, bound))
            self._instance_patches.append((target, method))
        for name, module_name, dotted in SHARED_ENTRY_POINTS:
            if not self._attach_shared(name, module_name, dotted):
                self.unresolved.append(f"{name} ({module_name}.{dotted})")

    def _attach_shared(self, name: str, module_name: str, dotted: str) -> bool:
        module = sys.modules.get(module_name)
        if module is None:
            return False
        owner_name, _, attribute = dotted.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            original = vars(owner).get(attribute) if owner is not None else None
            if original is None:
                return False
            if isinstance(original, classmethod):
                replacement = classmethod(self.wrap(name, original.__func__))
            else:
                replacement = self.wrap(name, original)
            self._patch(owner, attribute, original, replacement)
            return True
        original = vars(module).get(attribute)
        if not callable(original):
            return False
        replacement = self.wrap(name, original)
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded is None or not loaded_name.startswith("repro"):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._patch(loaded, key, original, replacement)
        return True

    def _patch(self, namespace, attribute, original, replacement) -> None:
        setattr(namespace, attribute, replacement)
        self._patches.append((namespace, attribute, original))

    def detach(self) -> None:
        """Undo every rebinding made by :meth:`attach`."""
        for namespace, attribute, original in reversed(self._patches):
            setattr(namespace, attribute, original)
        for target, attribute in self._instance_patches:
            vars(target).pop(attribute, None)
        self._patches.clear()
        self._instance_patches.clear()

    # ------------------------------------------------------------------
    # reading the spans back
    # ------------------------------------------------------------------
    def self_times(self) -> List[float]:
        """Per span: its duration minus the part its child spans cover."""
        spans = self.spans
        result = [span[2] - span[1] for span in spans]
        for span in spans:
            if span[3] >= 0:
                result[span[3]] -= span[2] - span[1]
        return result

    def aggregate(self, first_tick: int) -> Dict[str, Dict[str, float]]:
        """``{span name: {calls, busy_s, self_s}}`` over ticks >= ``first_tick``."""
        totals: Dict[str, Dict[str, float]] = {
            name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
            for name in SPAN_NAMES + (ROOT,)
        }
        for span, self_time in zip(self.spans, self.self_times()):
            if span[4] < first_tick:
                continue
            entry = totals[span[0]]
            entry["calls"] += 1
            entry["busy_s"] += span[2] - span[1]
            entry["self_s"] += self_time
        return totals

    def write(self, path: Path) -> None:
        """One JSON object per span, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, tick) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start": round(start - origin, 7),
                            "end": round(end - origin, 7),
                            "parent": parent if parent >= 0 else None,
                            "tick": tick,
                        },
                        separators=(",", ":"),
                    )
                )
                handle.write("\n")
