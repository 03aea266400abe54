"""Deterministic fault injection for the serving path (the chaos harness).

A :class:`FaultPlan` is a seeded, fully deterministic schedule of fault
injections keyed on *named fire points* scattered through the serving path.
Production code calls :func:`fire` at each point; when no plan is installed
the call is a single global ``None`` check, so the instrumentation is free.
When a plan is installed (``faults.install(plan)`` or ``with plan:``) each
``fire`` looks up the specs registered for that point and executes the
matching actions.

Fire points currently instrumented:

===================  =========================================================
point                where it fires
===================  =========================================================
``ingest.flush``     inside :meth:`MicroBatcher._flush`, before dispatch
``journal.append``   inside :meth:`ServiceJournal.append` (``tag`` = kind)
===================  =========================================================

Actions:

* ``"sleep"`` -- delay for :attr:`FaultSpec.seconds` (a slow flush or a
  slow append; inflates latency but changes no outcome);
* ``"kill"`` -- ``os._exit``: an abrupt crash with no cleanup;
* ``"error"`` -- raise :class:`FaultInjected` (a transient failure the
  caller may retry).

Determinism: every ``fire(point, tag=...)`` call site key keeps its own
monotonically increasing occurrence counter, and a spec only executes when
the current occurrence index is listed in its ``at`` tuple.  Counters live
in the plan instance, so a spec with ``at=(3,)`` always means "the fourth
occurrence since the plan was built".  :meth:`FaultPlan.seeded` draws the
occurrence indices from :class:`random.Random`, giving a reproducible
pseudo-random schedule from a single seed.

This module is imported from the service layer; to stay cycle-free it must
import nothing from ``repro`` beyond :mod:`repro.errors`.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.errors import ServiceError

__all__ = [
    "FaultInjected",
    "FaultSpec",
    "FaultPlan",
    "clear",
    "fire",
    "install",
]

#: Valid :attr:`FaultSpec.action` values.
ACTIONS = ("sleep", "kill", "error")

#: Exit status of a ``"kill"`` action -- distinctive in post-mortems.
KILL_EXIT_CODE = 170


class FaultInjected(ServiceError):
    """The error raised by an ``"error"`` fault: a transient, retryable fault."""


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: *what* happens, *where*, and on which occurrences.

    Args:
        point: the fire-point name (``"ingest.flush"`` or ``"journal.append"``).
        action: one of :data:`ACTIONS`.
        at: 0-based occurrence indices of the matching fire key at which the
            action executes.
        seconds: delay for ``"sleep"``.
        tag: only fire when the call site passes this tag (``None`` matches
            any tag).  ``journal.append`` tags each call with its record kind.
    """

    point: str
    action: str = "error"
    at: Tuple[int, ...] = (0,)
    seconds: float = 0.05
    tag: Optional[str] = None

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ServiceError(f"unknown fault action {self.action!r}")

    def matches(self, point: str, tag: Optional[str]) -> bool:
        """Whether this spec applies to a fire at the given key (ignoring counts)."""
        return self.point == point and (self.tag is None or self.tag == tag)


class FaultPlan:
    """A deterministic schedule of :class:`FaultSpec` injections.

    Usable as a context manager: ``with FaultPlan([...]):`` installs the
    plan for the block and clears it afterwards (even on error).
    """

    def __init__(self, specs: Iterable[FaultSpec], name: str = "chaos") -> None:
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)
        self.name = name
        #: occurrence counters per exact ``(point, tag)`` fire key
        self._counts: Dict[Tuple[str, Optional[str]], int] = {}
        #: how many times each ``point:action`` actually executed
        self.fired: Dict[str, int] = {}

    @classmethod
    def seeded(
        cls,
        seed: int,
        entries: Sequence[Tuple[str, str, int, int]],
        name: str = "chaos",
        **spec_defaults: object,
    ) -> "FaultPlan":
        """Build a reproducible pseudo-random plan from a seed.

        Each entry is ``(point, action, count, span)``: ``count`` distinct
        occurrence indices are sampled (without replacement) from
        ``range(span)`` for that point/action.  Extra keyword arguments are
        forwarded to every generated :class:`FaultSpec`.
        """
        rng = random.Random(seed)
        specs = []
        for point, action, count, span in entries:
            indices = tuple(sorted(rng.sample(range(span), min(count, span))))
            specs.append(FaultSpec(point=point, action=action, at=indices, **spec_defaults))
        return cls(specs, name=name)

    # ------------------------------------------------------------------
    def __enter__(self) -> "FaultPlan":
        install(self)
        return self

    def __exit__(self, *exc_info: object) -> None:
        clear()

    # ------------------------------------------------------------------
    def fire(self, point: str, tag: Optional[str] = None) -> None:
        """Count one occurrence of the fire key and execute any due specs."""
        key = (point, tag)
        index = self._counts.get(key, 0)
        self._counts[key] = index + 1
        for spec in self.specs:
            if index in spec.at and spec.matches(point, tag):
                self._execute(spec)

    def _execute(self, spec: FaultSpec) -> None:
        label = f"{spec.point}:{spec.action}"
        self.fired[label] = self.fired.get(label, 0) + 1
        if spec.action == "sleep":
            time.sleep(spec.seconds)
        elif spec.action == "kill":
            os._exit(KILL_EXIT_CODE)
        else:  # "error"
            raise FaultInjected(f"injected fault at {spec.point}")


#: The globally installed plan (``None`` when fault injection is inactive).
_ACTIVE: Optional[FaultPlan] = None


def install(plan: FaultPlan) -> FaultPlan:
    """Install a plan globally; returns it (handy for ``with install(...)``)."""
    global _ACTIVE
    _ACTIVE = plan
    return plan


def clear() -> None:
    """Deactivate fault injection."""
    global _ACTIVE
    _ACTIVE = None


def fire(point: str, tag: Optional[str] = None) -> None:
    """Fire a named point against the installed plan (no-op when inactive)."""
    if _ACTIVE is not None:
        _ACTIVE.fire(point, tag=tag)
