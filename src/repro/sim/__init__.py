"""Discrete-event simulation kernel.

The paper's evaluation numbers come from production clusters; we reproduce
their *shape* on a virtual clock.  The kernel is intentionally small:

- :class:`~repro.sim.clock.SimClock` -- monotonic virtual time in seconds.
- :class:`~repro.sim.kernel.Kernel` -- the process-based discrete-event
  scheduler: generator-coroutine processes, FIFO :class:`~repro.sim.kernel.
  Resource`/:class:`~repro.sim.kernel.Channel` primitives with real queues
  and cancellation, plus the timer API for periodic background jobs (TTL
  eviction sweeps, rate-limiter bucket rotation, metrics flushes).
- :class:`~repro.sim.rng.RngStream` -- named, seeded random streams so every
  experiment is reproducible bit-for-bit.
- :mod:`repro.sim.sanitizer` -- the runtime determinism sanitizer: a
  double-run harness that diffs event-sequence hashes, plus a write-write
  conflict detector for the generation-stamp invariant.

Device queueing (the part of the paper that produces "blocked processes")
has two engines selected by :class:`~repro.sim.kernel.SimMode`: the analytic
channel-state model in :mod:`repro.storage.device`, and kernel processes
that *block* on device resources so queue depth is measured, not derived.
"""

from repro.sim.clock import SimClock
from repro.sim.kernel import (
    AllOf,
    AnyOf,
    Cancelled,
    Channel,
    Event,
    Kernel,
    KernelError,
    Process,
    Resource,
    SimMode,
    Timeout,
    Timer,
    all_of,
    any_of,
    collecting_io,
    current_kernel,
    defer_io,
    io_collection_active,
    replay_plan,
)
from repro.sim.rng import RngStream
from repro.sim.sanitizer import (
    DeterminismHarness,
    DeterminismViolation,
    EventTrace,
    WriteWriteConflictDetector,
)

__all__ = [
    "SimClock",
    "Kernel",
    "KernelError",
    "SimMode",
    "Process",
    "Resource",
    "Channel",
    "Event",
    "Timer",
    "Timeout",
    "Cancelled",
    "AnyOf",
    "AllOf",
    "any_of",
    "all_of",
    "collecting_io",
    "defer_io",
    "io_collection_active",
    "replay_plan",
    "current_kernel",
    "RngStream",
    "DeterminismHarness",
    "DeterminismViolation",
    "EventTrace",
    "WriteWriteConflictDetector",
]
