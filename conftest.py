"""Repo-root pytest config: make the src layout importable without install.

Offline environments may lack the `wheel` module that `pip install -e .`
needs; `python setup.py develop` works there, and this path fallback keeps
`pytest` working in either case.

Also exposes the runtime determinism sanitizer (``repro.sim.sanitizer``)
as fixtures so any test can opt in with ``@pytest.mark.determinism``:

- ``determinism_harness`` -- factory: pass a scenario callable taking an
  :class:`~repro.sim.sanitizer.EventTrace`; call ``.check()`` to demand a
  bit-identical double run.
- ``write_conflict_detector`` -- a fresh
  :class:`~repro.sim.sanitizer.WriteWriteConflictDetector`; feed it every
  mutation and finish with ``.assert_clean()``.

``switch_interval_stress`` makes the GIL change hands every 10 µs for the
duration of one test (the real path's threads, not the simulator's).
"""

import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


@pytest.fixture
def determinism_harness():
    from repro.sim.sanitizer import DeterminismHarness

    return DeterminismHarness


@pytest.fixture
def write_conflict_detector():
    from repro.sim.sanitizer import WriteWriteConflictDetector

    return WriteWriteConflictDetector()


@pytest.fixture
def switch_interval_stress():
    """Hand the GIL over every 10 µs instead of every 5 ms, so races
    between threads get many chances to show within one test."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)
