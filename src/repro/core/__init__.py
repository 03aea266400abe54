"""PTRider's primary contribution: price-and-time-aware request matching.

The subpackage contains

* :mod:`repro.core.pricing` -- the price model of Definition 3;
* :mod:`repro.core.insertion` -- insertion of a request into a vehicle's
  kinetic tree, one prefix-sharing scan over exact distances;
* :mod:`repro.core.batch` -- shared routing contexts for a batch of
  simultaneous requests (pooled trees, batch-wide distance memo);
* :mod:`repro.core.matcher` -- the common matcher interface and statistics;
* :mod:`repro.core.naive` -- the kinetic-tree baseline that verifies every
  vehicle (Section 3.3, "a naive method");
* :mod:`repro.core.single_side` -- the single-side search algorithm;
* :mod:`repro.core.dual_side` -- the dual-side search algorithm;
* :mod:`repro.core.dispatcher` -- the request / options / choice cycle and
  the greedy strategy for simultaneous requests;
* :mod:`repro.core.config` -- the global system parameters of the website
  admin interface.
"""

from repro.core.batch import BatchContext, BatchStatistics
from repro.core.config import SystemConfig
from repro.core.dispatcher import Dispatcher, DispatchOutcome, OptionPolicy
from repro.core.dual_side import DualSideSearchMatcher
from repro.core.insertion import InsertionCandidate, insertion_candidates
from repro.core.matcher import Matcher, MatcherStatistics
from repro.core.naive import NaiveKineticTreeMatcher
from repro.core.pricing import LinearPriceModel, PriceModel, rider_price_ratio
from repro.core.single_side import SingleSideSearchMatcher

__all__ = [
    "BatchContext",
    "BatchStatistics",
    "Dispatcher",
    "DispatchOutcome",
    "DualSideSearchMatcher",
    "InsertionCandidate",
    "LinearPriceModel",
    "Matcher",
    "MatcherStatistics",
    "NaiveKineticTreeMatcher",
    "OptionPolicy",
    "PriceModel",
    "SingleSideSearchMatcher",
    "SystemConfig",
    "insertion_candidates",
    "rider_price_ratio",
]
