"""The sanctioned host-clock API (profiling only).

Everything simulated reads virtual time from a
:class:`~repro.ports.clock.SimClock`; the replint DET001 rule and the
benchmark conftest guard exist to keep it that way.  But *profiling the
simulator itself* -- how many host-CPU microseconds one process resume
costs, how many events the scheduler drains per wall second -- is a
measurement **about the host**, not about the simulation, and it cannot
come from the virtual clock by construction.

This module is the single sanctioned doorway for those reads:

- :func:`host_perf_now` -- monotonic host wall time (throughput ladders);
- :func:`host_cpu_now` -- process CPU time (per-resume profiler charges);
- :func:`installed_host_clock` -- swap both sources for a fake in tests,
  so host-time *consumers* (the profiler, the perf harness) stay fully
  deterministic under test without ever touching the real clock.

Two invariants keep the determinism story intact:

1. Nothing in this module (or derived from its readings) may influence a
   simulation decision -- host time flows only into profiler/benchmark
   *outputs*, and those outputs segregate host fields from virtual fields
   so the determinism sanitizer compares only the virtual part.
2. Every other module still fails DET001 for a direct
   ``time.perf_counter`` / ``time.process_time`` read; only this file is
   allowlisted (enforced by ``tests/devtools`` regression tests).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Iterator

# module-level slots, mirroring repro.core.page's time-source shim
_perf_source: Callable[[], float] = time.perf_counter
_cpu_source: Callable[[], float] = time.process_time


def host_perf_now() -> float:
    """Monotonic host wall-clock seconds (includes time spent blocked)."""
    return _perf_source()


def host_cpu_now() -> float:
    """Host CPU seconds consumed by this process (excludes sleep/blocked)."""
    return _cpu_source()


@contextmanager
def installed_host_clock(
    perf: Callable[[], float] | None = None,
    cpu: Callable[[], float] | None = None,
) -> Iterator[None]:
    """Scope a fake host clock over a ``with`` block, always restoring.

    >>> ticks = iter(float(i) for i in range(10))
    >>> with installed_host_clock(cpu=lambda: next(ticks)):
    ...     host_cpu_now() < host_cpu_now()
    True
    """
    global _perf_source, _cpu_source
    previous = (_perf_source, _cpu_source)
    if perf is not None:
        _perf_source = perf
    if cpu is not None:
        _cpu_source = cpu
    try:
        yield
    finally:
        _perf_source, _cpu_source = previous
