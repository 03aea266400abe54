"""Simulation substrate: trips, workloads, statistics and the event loop.

The demonstration drives PTRider with a day of Shanghai taxi trips replayed
against a moving fleet.  This subpackage provides the equivalent machinery on
synthetic data:

* :mod:`repro.sim.trips` -- a seedable generator of Shanghai-like trip
  datasets (rush-hour peaks, hot spots, realistic trip lengths);
* :mod:`repro.sim.workload` -- request streams built from trip datasets,
  random endpoints or a synthetic day of surges and lulls;
* :mod:`repro.sim.stats` -- the statistics of the demo's website panel
  (average response time, average sharing rate, ...);
* :mod:`repro.sim.engine` -- the discrete-time simulation loop that moves
  vehicles, fires pick-ups / drop-offs and dispatches arriving requests.
"""

from repro.sim.engine import SimulationEngine, SimulationReport
from repro.sim.stats import SimulationStatistics
from repro.sim.trips import ShanghaiLikeTripGenerator, TripRecord
from repro.sim.workload import RequestWorkload

__all__ = [
    "RequestWorkload",
    "ShanghaiLikeTripGenerator",
    "SimulationEngine",
    "SimulationReport",
    "SimulationStatistics",
    "TripRecord",
]
