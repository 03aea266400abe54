"""Compare the three PTRider matchers and the baseline systems on one workload.

The demo website lets an administrator switch the matching algorithm between
single-side and dual-side search; this example goes further and runs the same
burst of requests through every matcher in the repository, reporting

* end-to-end matching latency,
* how many vehicles each algorithm had to verify exactly,
* how many options riders received,

which is a command-line rendition of experiments E3 / E9 / E11.

Run with::

    python examples/matcher_benchmark.py
"""

from __future__ import annotations

import time

from repro.baselines.nearest import NearestVehicleMatcher
from repro.baselines.sharek import SharekStyleMatcher
from repro.baselines.tshare import TShareStyleMatcher
from repro.core.config import SystemConfig
from repro.core.dispatcher import Dispatcher, OptionPolicy
from repro.core.dual_side import DualSideSearchMatcher
from repro.core.naive import NaiveKineticTreeMatcher
from repro.core.single_side import SingleSideSearchMatcher
from repro.roadnet.generators import grid_network
from repro.service.api import assemble_fleet
from repro.sim.workload import random_requests

SEED = 11
VEHICLES = 80
WARMUP_REQUESTS = 25
PROBE_REQUESTS = 40

MATCHERS = [
    ("naive", NaiveKineticTreeMatcher),
    ("single_side", SingleSideSearchMatcher),
    ("dual_side", DualSideSearchMatcher),
    ("nearest", NearestVehicleMatcher),
    ("sharek", SharekStyleMatcher),
    ("tshare", TShareStyleMatcher),
]


def build_busy_fleet(config: SystemConfig):
    """Build a fleet and commit a warm-up batch so kinetic trees are non-trivial."""
    network = grid_network(16, 16, weight_jitter=0.3, seed=SEED)
    fleet = assemble_fleet(network, config, VEHICLES, SEED)
    warmup = random_requests(network, WARMUP_REQUESTS, config.max_waiting,
                             config.service_constraint, seed=SEED, id_prefix="warm")
    dispatcher = Dispatcher(fleet, SingleSideSearchMatcher(fleet, config=config), config)
    dispatcher.dispatch_batch(warmup, policy=OptionPolicy.BALANCED)
    return network, fleet


def main() -> None:
    config = SystemConfig(max_waiting=8.0, service_constraint=0.6, max_pickup_distance=14.0)
    network, fleet = build_busy_fleet(config)
    probes = random_requests(network, PROBE_REQUESTS, config.max_waiting,
                             config.service_constraint, seed=SEED + 1, id_prefix="probe")

    print(f"{VEHICLES} taxis ({len(fleet.nonempty_vehicles())} busy), {PROBE_REQUESTS} probe requests\n")
    header = f"{'matcher':>12} {'total ms':>10} {'ms/request':>11} {'verified/req':>13} {'options/req':>12}"
    print(header)
    print("-" * len(header))

    for name, matcher_class in MATCHERS:
        matcher = matcher_class(fleet, config=config)
        started = time.perf_counter()
        option_lists = [matcher.match(request) for request in probes]
        elapsed = time.perf_counter() - started
        stats = matcher.statistics
        verified = stats.vehicles_evaluated / len(probes)
        options = sum(len(options) for options in option_lists) / len(probes)
        print(
            f"{name:>12} {elapsed * 1000:>10.1f} {elapsed * 1000 / len(probes):>11.2f} "
            f"{verified:>13.1f} {options:>12.2f}"
        )

    print(
        "\nReading the table: the indexed searches (single_side, dual_side) verify a fraction of"
        "\nthe vehicles the naive kinetic-tree matcher touches while returning the same skylines;"
        "\nthe single-option baselines (nearest, tshare) are fast but offer no price/time choice,"
        "\nand the SHAREK-style matcher only ever offers idle vehicles."
    )


if __name__ == "__main__":
    main()
