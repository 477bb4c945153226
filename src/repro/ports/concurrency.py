"""Concurrency ports: how the cache core hands off background work.

The core never spawns threads or kernel processes itself.  Periodic
maintenance (TTL sweeps) is registered against a :class:`SchedulerPort`
and blocking work can be pushed through an :class:`ExecutorPort`; each
transport supplies its own implementation:

- the virtual-time kernel satisfies :class:`SchedulerPort` through
  ``repro.service.sim_transport.KernelScheduler`` (``Kernel.call_periodic``);
- the asyncio service wraps ``loop.call_later`` rearming and a thread
  pool;
- unit tests use :class:`InlineExecutor` and drive sweeps by hand.
"""

from __future__ import annotations

from typing import Any, Callable, Protocol, runtime_checkable


@runtime_checkable
class SchedulerPort(Protocol):
    """Registers recurring background callbacks (e.g. TTL sweeps)."""

    def schedule_periodic(self, interval: float, fn: Callable[[], Any]) -> Any:
        """Arrange for ``fn()`` to run every ``interval`` seconds."""
        ...


@runtime_checkable
class ExecutorPort(Protocol):
    """Runs a callable somewhere appropriate for the transport."""

    def submit(self, fn: Callable[..., Any], /, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn(*args, **kwargs)``; the return contract is transport-defined."""
        ...


class InlineExecutor:
    """Executes submitted work synchronously on the calling thread.

    The default when no transport is attached: the core stays usable as a
    plain library, and deterministic tests see effects immediately.

    >>> InlineExecutor().submit(lambda a, b: a + b, 2, 3)
    5
    """

    def submit(self, fn: Callable[..., Any], /, *args: Any, **kwargs: Any) -> Any:
        return fn(*args, **kwargs)

    def __repr__(self) -> str:
        return "InlineExecutor()"
