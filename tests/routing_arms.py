"""Every routing backend on both tree arms, as a ``backend`` parametrization.

A routing engine computes its single-source trees in C through SciPy when
SciPy is importable and with the pure-Python heap Dijkstra over the same CSR
arrays otherwise (:meth:`repro.roadnet.routing.CSRGraph.tree`).  Tests that
take a ``backend`` argument parametrize it with :data:`ROUTING_ARMS` to hold
each backend's contract on both arms: the ``-python`` ids pass the plain
backend name and carry the ``pure_python_trees`` marker, on which the autouse
fixture in ``tests/conftest.py`` hides SciPy from the routing module for the
whole test -- the engine, the grid index and any engine rebuilt mid-test all
build their graphs without it, as on a NumPy-only install.
"""

from __future__ import annotations

import pytest

from repro.roadnet.routing import ROUTING_BACKENDS

#: marker that runs a test with the routing module's SciPy handles hidden
PURE_PYTHON_TREES = "pure_python_trees"

#: ``backend`` values: each backend as built, then each on the pure-Python arm
ROUTING_ARMS = (
    *ROUTING_BACKENDS,
    *(
        pytest.param(backend, id=f"{backend}-python", marks=getattr(pytest.mark, PURE_PYTHON_TREES))
        for backend in ROUTING_BACKENDS
    ),
)
