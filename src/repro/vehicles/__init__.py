"""Vehicle substrate: vehicle state, kinetic trees, the fleet index and motion.

* :mod:`repro.vehicles.schedule` -- trip-schedule feasibility machinery
  (capacity, point order, waiting time and service constraints of
  Definition 2);
* :mod:`repro.vehicles.kinetic_tree` -- the kinetic tree of all valid trip
  schedules (Section 3.2.2 / Fig. 3);
* :mod:`repro.vehicles.vehicle` -- mutable per-vehicle state: location,
  assigned requests, occupancy;
* :mod:`repro.vehicles.fleet` -- the vehicle index: per-grid-cell empty and
  non-empty vehicle lists, kept in sync with vehicle state;
* :mod:`repro.vehicles.movement` -- constant-speed motion along shortest
  paths and the idle random-walk behaviour of Section 4.
"""

from repro.vehicles.fleet import Fleet
from repro.vehicles.kinetic_tree import KineticTree, KineticTreeNode
from repro.vehicles.schedule import (
    FeasibilityResult,
    RequestState,
    ScheduleMetrics,
    check_schedule,
    evaluate_schedule,
)
from repro.vehicles.vehicle import Vehicle
from repro.vehicles.movement import MotionState, plan_route, step_along_route

__all__ = [
    "FeasibilityResult",
    "Fleet",
    "KineticTree",
    "KineticTreeNode",
    "MotionState",
    "RequestState",
    "ScheduleMetrics",
    "Vehicle",
    "check_schedule",
    "evaluate_schedule",
    "plan_route",
    "step_along_route",
]
