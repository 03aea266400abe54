"""The suite's pytest settings let a failing test fail without ending the run.

``filterwarnings = ["error"]`` turns every warning into an error.  A failing
Hypothesis test reaches code that warns inside a pytest hook, where an error
is an ``INTERNALERROR`` that stops the session and leaves every later test
unreported.  This runs the repository's settings on one failing ``@given``
test followed by a passing test, in a subprocess, and expects both reported.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, max_examples=5)
@given(st.integers())
def test_fails(value):
    assert value != value


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE, encoding="utf-8")
    completed = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
            "test_probe.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "INTERNALERROR" not in completed.stdout + completed.stderr
    assert "1 failed, 1 passed" in completed.stdout, completed.stdout
