"""``counters`` reads any statistics dataclass into a flat float panel."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.insertion import InsertionStatistics
from repro.counters import counters
from repro.roadnet.routing import EngineStats


@dataclass
class _Inner:
    hits: int = 0


@dataclass
class _Stats:
    count: int = 0
    seconds: float = 0.0
    renamed: int = field(default=0, metadata={"panel": "shown_as"})
    hidden: int = field(default=0, metadata={"panel": False})
    samples: List[float] = field(default_factory=list)
    inner: _Inner = field(default_factory=_Inner)

    panel_derived = ("doubled", "tail")

    @property
    def doubled(self) -> int:
        return 2 * self.count

    @property
    def tail(self) -> Dict[str, float]:
        return {"p50": 1, "p99": 2.5}


def test_fields_renames_nesting_and_derived_entries():
    stats = _Stats(count=3, seconds=0.5, renamed=4, hidden=9, samples=[1.0], inner=_Inner(7))
    assert counters(stats, "x_") == {
        "x_count": 3.0,
        "x_seconds": 0.5,
        "x_shown_as": 4.0,
        "x_inner_hits": 7.0,
        "x_doubled": 6.0,
        "x_tail_p50": 1.0,
        "x_tail_p99": 2.5,
    }
    assert all(type(value) is float for value in counters(stats).values())


def test_fields_left_off_the_panels_stay_readable():
    assert "phast_sweeps" not in counters(EngineStats())
    insertion = InsertionStatistics(candidates_rejected_by_bounds=2)
    assert insertion.candidates_rejected_by_bounds == 2
    assert counters(insertion) == {"enumerated": 0.0, "feasible": 0.0}
