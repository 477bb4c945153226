"""The virtual-time transport: the kernel as one adapter over the cache core.

This is the counterpart of :mod:`repro.service.server` (DESIGN.md §14):
the same :class:`~repro.core.engine.CacheEngine` / ``LocalCacheManager``
core, driven by the discrete-event kernel instead of sockets.  It is one
of the two reviewed modules exempt from the
``cache-core-transport-agnostic`` contract -- the only places where the
core and ``repro.sim`` are allowed to meet.

Two things live here:

- :func:`build_sim_cache` -- the construction path every simulation
  caller (Presto workers, the cached DataNode, ``repro-cachesim``) uses to
  stand the core up in virtual time.  Keeping construction in one place
  is what makes the core's transport-agnosticism auditable.
- :class:`SimTransport` -- a closed-loop driver that replays a request
  sequence through a :class:`~repro.core.engine.CacheEngine` under the
  kernel with N concurrent client processes (deferred-IO collection +
  replay, device queueing included).  ``tests/service/test_sim_vs_real.py``
  runs one key sequence through this and through a real socket and
  asserts identical hit, miss and eviction counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.cache_manager import LocalCacheManager
from repro.core.config import CacheConfig
from repro.core.engine import CacheEngine
from repro.core.pagestore.simulated import SimulatedSsdPageStore
from repro.ports.clock import SimClock
from repro.sim.kernel import Kernel, collecting_io, replay_plan


def build_sim_cache(
    config: CacheConfig | None = None,
    *,
    clock=None,
    device=None,
    page_store=None,
    admission=None,
    quota=None,
    metrics=None,
    rng=None,
) -> LocalCacheManager:
    """Construct the cache core for a virtual-time caller.

    ``device`` is a :class:`~repro.storage.device.StorageDevice`; when
    given, page payloads live behind it in a
    :class:`SimulatedSsdPageStore` so hits cost modelled SSD time
    (Section 4.2).  Either pass ``device`` or an explicit ``page_store``,
    not both.
    """
    if device is not None and page_store is not None:
        raise ValueError("pass either device or page_store, not both")
    if device is not None:
        page_store = SimulatedSsdPageStore(device)
    return LocalCacheManager(
        config,
        clock=clock,
        page_store=page_store,
        admission=admission,
        quota=quota,
        metrics=metrics,
        rng=rng,
    )


@dataclass(slots=True)
class SimLoadResult:
    """Outcome of one :meth:`SimTransport.run_closed_loop`."""

    latencies: list[float] = field(default_factory=list)
    page_hits: int = 0
    page_misses: int = 0
    bytes_from_cache: int = 0
    bytes_from_remote: int = 0
    virtual_seconds: float = 0.0

    @property
    def requests(self) -> int:
        return len(self.latencies)

    @property
    def hit_ratio(self) -> float:
        total = self.page_hits + self.page_misses
        return self.page_hits / total if total else 0.0


class SimTransport:
    """Drive a :class:`CacheEngine` closed-loop under the event kernel.

    ``clients`` concurrent kernel processes each work a round-robin shard
    of the request sequence, so queueing contention at the
    (kernel-attached) page-store device shapes latencies the way
    connection concurrency shapes them over real sockets.  With one
    client the cache sees the sequence in order, so its hits, misses and
    evictions equal those of one real connection replaying it; with more,
    the interleaving differs and so may the counts.
    """

    def __init__(self, engine: CacheEngine, kernel: Kernel | None = None) -> None:
        self.engine = engine
        if kernel is None:
            if not isinstance(engine.clock, SimClock):
                raise ValueError(
                    "SimTransport needs an engine on a SimClock "
                    f"(got {type(engine.clock).__name__})"
                )
            kernel = Kernel(engine.clock)
        self.kernel = kernel
        device = getattr(self.engine.manager.page_store, "device", None)
        if device is not None:
            device.attach_kernel(self.kernel)

    def run_closed_loop(
        self,
        requests: Sequence[tuple[str, int, int]],
        *,
        clients: int = 1,
    ) -> SimLoadResult:
        """Replay ``requests`` (``(file_id, offset, length)``) to completion."""
        if clients <= 0:
            raise ValueError(f"clients must be positive, got {clients}")
        outcome = SimLoadResult()
        started = self.kernel.clock.now()

        def client_proc(shard: list[tuple[str, int, int]]):
            for file_id, offset, length in shard:
                t0 = self.kernel.clock.now()
                plan: list = []
                with collecting_io(plan):
                    result = self.engine.get(file_id, offset, length)
                yield from replay_plan(plan)
                outcome.latencies.append(self.kernel.clock.now() - t0)
                outcome.page_hits += result.page_hits
                outcome.page_misses += result.page_misses
                outcome.bytes_from_cache += result.bytes_from_cache
                outcome.bytes_from_remote += result.bytes_from_remote

        for index in range(clients):
            shard = [
                request for pos, request in enumerate(requests)
                if pos % clients == index
            ]
            if shard:
                self.kernel.spawn(client_proc(shard), name=f"sim-client-{index}")
        self.kernel.run_all()
        outcome.virtual_seconds = self.kernel.clock.now() - started
        return outcome
