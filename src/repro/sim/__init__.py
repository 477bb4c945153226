"""Discrete-event simulation kernel.

The paper's evaluation numbers come from production clusters; we reproduce
their *shape* on a virtual clock.  The kernel is intentionally small:

- :class:`~repro.ports.clock.SimClock` -- monotonic virtual time in seconds.
- :class:`~repro.sim.kernel.Kernel` -- the process-based discrete-event
  scheduler: generator-coroutine processes, FIFO :class:`~repro.sim.kernel.
  Resource`/:class:`~repro.sim.kernel.Channel` primitives with real queues
  and cancellation, plus the timer API for periodic background jobs (TTL
  eviction sweeps, rate-limiter bucket rotation, metrics flushes).
- :class:`~repro.ports.rng.RngStream` -- named, seeded random streams so every
  experiment is reproducible bit-for-bit.
- :mod:`repro.sim.sanitizer` -- the runtime determinism sanitizer: a
  double-run harness that diffs event-sequence hashes, plus a write-write
  conflict detector for the generation-stamp invariant.

Device queueing (the part of the paper that produces "blocked processes")
is lived on the kernel: processes *block* on device resources, so queue
depth is measured, not derived.  Outside a kernel process the models in
:mod:`repro.storage.device` return service time and record no wait.
"""

from repro.ports.clock import SimClock
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
from repro.ports.rng import RngStream
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
