"""Pytest configuration for the benchmark harness."""

from __future__ import annotations

import sys
from pathlib import Path

# Make `import common` work regardless of the invocation directory, and
# `from tests.crash import kill` too (the crash legs share the tests' kill).
sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(1, str(Path(__file__).resolve().parents[1]))

from repro.roadnet.routing import ROUTING_BACKENDS  # noqa: E402


def pytest_addoption(parser):
    parser.addoption(
        "--routing",
        choices=ROUTING_BACKENDS,
        default=None,
        help="routing backend every experiment builds its city with",
    )


def pytest_configure(config):
    import common

    backend = config.getoption("--routing", default=None)
    if backend:
        common.DEFAULT_ROUTING = backend


def pytest_sessionfinish(session, exitstatus):
    import common

    target = common.write_results()
    if target is not None:
        print(f"\nbenchmark records written to {target}")
