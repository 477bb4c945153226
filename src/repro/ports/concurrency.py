"""Concurrency port: how the cache core hands off periodic maintenance.

The core never spawns threads or kernel processes itself.  Periodic
maintenance (TTL sweeps) is registered against a :class:`SchedulerPort`:

- the virtual-time kernel satisfies it through
  ``repro.service.sim_transport.KernelScheduler`` (``Kernel.call_periodic``);
- the asyncio service passes no scheduler: ``CacheServer`` runs its own
  sleep loop and hands ``engine.ttl_sweep()`` to its engine thread pool;
- unit tests pass none and call ``ttl_sweep`` by hand.
"""

from __future__ import annotations

from typing import Any, Callable, Protocol, runtime_checkable


@runtime_checkable
class SchedulerPort(Protocol):
    """Registers recurring background callbacks (e.g. TTL sweeps)."""

    def schedule_periodic(self, interval: float, fn: Callable[[], Any]) -> Any:
        """Arrange for ``fn()`` to run every ``interval`` seconds."""
        ...
