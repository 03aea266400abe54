"""Shared builders for the benchmark harness.

Each experiment E<N> is regenerated by its own ``bench_e<N>_*.py`` module in
this directory.  The builders here create the city, the fleet and the
workloads at a laptop-friendly scale; the *shape* of the results (who wins,
by roughly what factor, where the trends bend) is what reproduces the paper,
not the absolute wall-clock numbers, because the substrate is pure Python
rather than the authors' C++-on-an-i7 testbed.

Run the full harness with::

    pytest benchmarks/ --benchmark-only

Each module also exposes a ``summarise()`` (or similarly named) helper that
returns the table / series for ``EXPERIMENTS.md``; pass ``-s`` to see the
tables while benchmarking.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Type

from repro.baselines.nearest import NearestVehicleMatcher
from repro.baselines.sharek import SharekStyleMatcher
from repro.baselines.tshare import TShareStyleMatcher
from repro.core.config import SystemConfig
from repro.core.dispatcher import Dispatcher, OptionPolicy
from repro.core.dual_side import DualSideSearchMatcher
from repro.core.matcher import Matcher
from repro.core.naive import NaiveKineticTreeMatcher
from repro.core.single_side import SingleSideSearchMatcher
from repro.model.request import Request
from repro.roadnet.generators import grid_network
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.grid_index import GridIndex
from repro.service.api import assemble_fleet
from repro.service.ingest import percentiles  # noqa: F401  (re-export: shared
# nearest-rank p50/p95/p99 helper for latency-reporting experiments, e.g. E17)
from repro.sim.engine import SimulationEngine, SimulationReport
from repro.sim.trips import ShanghaiLikeTripGenerator
from repro.sim.workload import RequestWorkload, random_requests
from repro.vehicles.fleet import Fleet

MATCHERS: Dict[str, Type[Matcher]] = {
    "naive": NaiveKineticTreeMatcher,
    "single_side": SingleSideSearchMatcher,
    "dual_side": DualSideSearchMatcher,
    "nearest": NearestVehicleMatcher,
    "sharek": SharekStyleMatcher,
    "tshare": TShareStyleMatcher,
}

#: Default experiment configuration used unless a sweep overrides a knob.
DEFAULT_CONFIG = SystemConfig(
    max_waiting=8.0, service_constraint=0.6, max_pickup_distance=12.0
)

#: Session-wide routing override, set by the benchmark conftest from the
#: ``--routing`` CLI option so a whole run can be ablated without touching
#: the experiment modules.  ``None`` means "no override": ``build_city``
#: then respects a caller-supplied config's ``routing_backend``.
DEFAULT_ROUTING: Optional[str] = None

try:  # SciPy accelerates the CSR backend; the speedup asserts require it.
    import scipy  # noqa: F401

    HAVE_SCIPY = True
except ImportError:  # pragma: no cover
    HAVE_SCIPY = False


@dataclass
class City:
    """A road network, its grid index, a fleet and the shared routing engine."""

    network: RoadNetwork
    grid: GridIndex
    fleet: Fleet
    config: SystemConfig
    seed: int

    @property
    def routing_backend(self) -> str:
        """Name of the routing backend the fleet's engine uses."""
        return self.fleet.routing_engine.backend

    def matcher(self, name: str) -> Matcher:
        """Build a fresh matcher of the given name on this city's fleet."""
        return MATCHERS[name](self.fleet, config=self.config)

    def dispatcher(self, name: str) -> Dispatcher:
        """Build a dispatcher driving the named matcher."""
        return Dispatcher(self.fleet, self.matcher(name), self.config)


def build_city(
    rows: int = 12,
    columns: int = 12,
    vehicles: int = 40,
    capacity: int = 4,
    grid_rows: int = 6,
    grid_columns: int = 6,
    seed: int = 7,
    config: Optional[SystemConfig] = None,
    routing: Optional[str] = None,
    network: Optional[RoadNetwork] = None,
) -> City:
    """Create a seeded city: jittered grid network plus a uniformly placed fleet.

    Routing-backend precedence: the explicit ``routing`` argument, then the
    session-wide ``--routing`` override, then a caller-supplied config's
    ``routing_backend``, then "csr".  ``network`` substitutes a pre-built
    road network for the default grid.
    """
    backend = (
        routing
        or DEFAULT_ROUTING
        or (config.routing_backend if config is not None else None)
        or "csr"
    )
    config = config or DEFAULT_CONFIG
    if config.routing_backend != backend:
        config = config.with_updates(routing_backend=backend)
    if network is None:
        network = grid_network(rows, columns, weight_jitter=0.3, seed=seed)
    fleet = assemble_fleet(
        network,
        config.with_updates(vehicle_capacity=capacity),
        vehicles,
        seed,
        grid_rows=grid_rows,
        grid_columns=grid_columns,
    )
    return City(network=network, grid=fleet.grid, fleet=fleet, config=config, seed=seed)


def warm_up_fleet(city: City, requests: int = 12, seed: int = 3) -> None:
    """Commit a handful of requests so the fleet contains non-empty vehicles."""
    dispatcher = city.dispatcher("single_side")
    workload = random_requests(
        city.network,
        requests,
        city.config.max_waiting,
        city.config.service_constraint,
        seed=seed,
        id_prefix=f"warm{seed}-",
    )
    dispatcher.dispatch_batch(workload, policy=OptionPolicy.BALANCED)


def probe_requests(city: City, count: int, seed: int = 11) -> List[Request]:
    """Uniform random probe requests carrying the city's global constraints."""
    return random_requests(
        city.network,
        count,
        city.config.max_waiting,
        city.config.service_constraint,
        seed=seed,
        id_prefix=f"probe{seed}-",
    )


def run_trip_simulation(
    city: City,
    trips: int,
    duration: float,
    matcher_name: str = "single_side",
    speed: float = 1.0,
    drain: float = 200.0,
    policy: OptionPolicy = OptionPolicy.BALANCED,
) -> SimulationReport:
    """Replay a Shanghai-like trip workload against the city and return the report."""
    generator = ShanghaiLikeTripGenerator(city.network, seed=city.seed)
    trip_records = generator.generate(trips, day_seconds=duration)
    workload = RequestWorkload.from_trips(
        trip_records, city.config.max_waiting, city.config.service_constraint
    )
    engine = SimulationEngine(
        city.dispatcher(matcher_name), workload, speed=speed, tick=1.0, seed=city.seed, policy=policy
    )
    return engine.run(until=duration + drain)


def option_points(options) -> List[Tuple[float, float]]:
    """Sorted (pickup distance, price) points of an option list, for comparisons."""
    return sorted((round(o.pickup_distance, 6), round(o.price, 6)) for o in options)


# ----------------------------------------------------------------------
# machine-readable results (BENCH_results.json)
# ----------------------------------------------------------------------
#: Accumulated per-experiment records; flushed by the benchmark conftest.
BENCH_RESULTS: List[Dict[str, object]] = []


def record_result(
    experiment: str,
    wall_seconds: float,
    routing_backend: Optional[str] = None,
    vehicles_evaluated: Optional[float] = None,
    **extra: object,
) -> None:
    """Append one machine-readable experiment record.

    The benchmark conftest writes the session's records to
    ``BENCH_results.json`` (latest run only -- the file is overwritten; CI
    archives it as a build artifact so the perf trajectory can be compared
    across commits).  Every record carries the box's ``cpu_count``, so walls
    -- worker arms above all -- are only ever compared like for like.
    """
    record: Dict[str, object] = {
        "experiment": experiment,
        "wall_seconds": round(wall_seconds, 6),
        "routing_backend": routing_backend or DEFAULT_ROUTING or "csr",
        "cpu_count": os.cpu_count() or 1,
    }
    if vehicles_evaluated is not None:
        record["vehicles_evaluated"] = vehicles_evaluated
    record.update(extra)
    BENCH_RESULTS.append(record)


def matcher_work(matcher: Matcher) -> Dict[str, float]:
    """A matcher's screening counters, as ``record_result`` keywords.

    ``vehicles_evaluated`` alone cannot tell a search that looked at few
    taxis from one that looked at many and pruned them, nor whether the
    verifications it did pay for produced options.
    """
    stats = matcher.statistics
    return {
        "vehicles_evaluated": float(stats.vehicles_evaluated),
        "vehicles_considered": float(stats.vehicles_considered),
        "cells_visited": float(stats.cells_visited),
        "options_per_evaluated_vehicle": round(
            stats.options_returned / max(1, stats.vehicles_evaluated), 4
        ),
    }


def write_results(path: Optional[Path] = None) -> Optional[Path]:
    """Write the accumulated records as JSON; returns the path (None if empty)."""
    if not BENCH_RESULTS:
        return None
    target = path or Path(__file__).resolve().parent.parent / "BENCH_results.json"
    target.write_text(json.dumps(BENCH_RESULTS, indent=2) + "\n")
    return target


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render a small fixed-width table for the experiment summaries."""
    widths = [len(str(h)) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(f"{cell}"))
    lines = ["  ".join(f"{h:>{widths[i]}}" for i, h in enumerate(headers))]
    for row in rows:
        lines.append("  ".join(f"{cell:>{widths[i]}}" for i, cell in enumerate(row)))
    return "\n".join(lines)
