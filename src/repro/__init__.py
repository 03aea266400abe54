"""PTRider: a price-and-time-aware ridesharing system (reproduction).

This package reproduces *PTRider: A Price-and-Time-Aware Ridesharing System*
(Chen, Gao, Liu, Xiao, Jensen, Zhu; PVLDB 11(12), 2018) as a pure-Python
library:

* :mod:`repro.roadnet` -- the road network, shortest paths, the CSR routing
  engine (with its ALT accelerator) and the grid index;
* :mod:`repro.model` -- requests, ride options, dominance and skylines;
* :mod:`repro.vehicles` -- vehicles, kinetic trees, the fleet index, motion;
* :mod:`repro.core` -- the price model, the naive / single-side / dual-side
  matchers and the dispatcher;
* :mod:`repro.sim` -- the taxi-fleet simulation, trip/workload generators and
  statistics;
* :mod:`repro.baselines` -- SHAREK-style, nearest-vehicle and T-Share-style
  comparison systems;
* :mod:`repro.service` -- the in-memory PTRider service mirroring the demo's
  smartphone and website interfaces.

Quickstart::

    from repro import build_system, Request

    system = build_system(network_rows=20, network_columns=20, vehicles=50, seed=7)
    booking = system.book_request(Request(start=5, destination=310, riders=2))
    for option in booking.options:
        print(option)
"""

from repro.core.config import SystemConfig
from repro.core.context import MatchContext
from repro.core.dispatcher import Dispatcher, DispatchOutcome, OptionPolicy
from repro.core.dual_side import DualSideSearchMatcher
from repro.core.matcher import Matcher
from repro.core.naive import NaiveKineticTreeMatcher
from repro.core.pricing import LinearPriceModel, rider_price_ratio
from repro.core.single_side import SingleSideSearchMatcher
from repro.model.options import RideOption, Skyline, dominates, skyline_of
from repro.model.request import Request
from repro.model.stops import Stop, StopKind
from repro.roadnet.generators import figure1_network, grid_network
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.grid_index import GridIndex
from repro.roadnet.routing import (
    ROUTING_BACKENDS,
    CSREngine,
    RoutingEngine,
    make_engine,
)
from repro.service.api import PTRiderService, build_system
from repro.vehicles.fleet import Fleet
from repro.vehicles.kinetic_tree import KineticTree
from repro.vehicles.vehicle import Vehicle

__version__ = "1.0.0"

__all__ = [
    "CSREngine",
    "Dispatcher",
    "DispatchOutcome",
    "DualSideSearchMatcher",
    "Fleet",
    "GridIndex",
    "KineticTree",
    "LinearPriceModel",
    "MatchContext",
    "Matcher",
    "NaiveKineticTreeMatcher",
    "OptionPolicy",
    "PTRiderService",
    "ROUTING_BACKENDS",
    "Request",
    "RideOption",
    "RoadNetwork",
    "RoutingEngine",
    "SingleSideSearchMatcher",
    "Skyline",
    "Stop",
    "StopKind",
    "SystemConfig",
    "Vehicle",
    "build_system",
    "dominates",
    "figure1_network",
    "grid_network",
    "make_engine",
    "rider_price_ratio",
    "skyline_of",
    "__version__",
]
