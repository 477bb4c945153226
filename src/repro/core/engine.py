"""The transport-agnostic cache engine (DESIGN.md §14).

:class:`CacheEngine` is the hexagonal *core* of the reproduction: one
facade over :class:`~repro.core.cache_manager.LocalCacheManager` and the
page stores that owns no opinion about time, concurrency, or the wire.
Those arrive as injected ports (:mod:`repro.ports`):

- ``clock`` -- a :class:`~repro.ports.clock.SimClock` under the
  virtual-time kernel, a :class:`~repro.ports.clock.WallClock` behind the
  asyncio service;
- ``scheduler`` -- whoever rearms the periodic TTL sweep (kernel timers);
- ``source`` -- the read-through :class:`~repro.storage.remote.DataSource`
  (synthetic/simulated remotes, or a real socket client such as
  :class:`~repro.service.client.RemoteCacheDataSource`).

Two adapters drive the same engine: :mod:`repro.service.sim_transport`
(discrete-event kernel) and :mod:`repro.service.server` (asyncio TCP).
This module must therefore never import ``repro.sim`` -- enforced by the
``cache-core-transport-agnostic`` architecture contract and a subprocess
import-purity test.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Literal, Mapping, overload

from repro.core.cache_manager import CacheReadResult, LocalCacheManager
from repro.core.config import CacheConfig
from repro.core.metrics import MetricsRegistry
from repro.core.metrics_export import to_json_dict, to_prometheus_text
from repro.core.page import PageId
from repro.core.scope import CacheScope
from repro.ports.clock import Clock, SimClock
from repro.ports.concurrency import SchedulerPort
from repro.ports.rng import RngStream

if TYPE_CHECKING:
    from repro.storage.remote import DataSource


class CacheEngine:
    """One cache core, any transport.

    The engine exposes the verb set both transports speak -- ``get``,
    ``put``, ``evict``, ``stats``, ``health`` -- plus the maintenance
    hooks a transport schedules (``ttl_sweep``).  All state lives in the
    wrapped :class:`LocalCacheManager`, which is thread-safe (striped
    page locks + a metadata lock), so a thread-pool transport may call
    into one engine from many workers concurrently.

    Args:
        config: cache knobs; defaults to :class:`CacheConfig` defaults.
        source: default read-through data source for ``get``/``prefetch``;
            per-call overrides are accepted.  Without one, only explicit
            ``put``/``evict`` traffic is possible and ``get`` raises.
        clock: time port; defaults to a fresh :class:`SimClock` (library
            embeds that never sweep TTLs work fine with frozen time).
        scheduler: when supplied, the TTL sweep is registered on it at
            ``config.ttl_check_interval``.
        page_store / admission / quota / metrics / rng: forwarded to
            :class:`LocalCacheManager` untouched.
    """

    def __init__(
        self,
        config: CacheConfig | None = None,
        *,
        source: DataSource | None = None,
        clock: Clock | None = None,
        scheduler: SchedulerPort | None = None,
        page_store: Any = None,
        admission: Any = None,
        quota: Any = None,
        metrics: MetricsRegistry | None = None,
        rng: RngStream | None = None,
    ) -> None:
        self.clock = clock if clock is not None else SimClock()
        self.source = source
        self.manager = LocalCacheManager(
            config,
            clock=self.clock,
            page_store=page_store,
            admission=admission,
            quota=quota,
            metrics=metrics,
            rng=rng,
            event_loop=scheduler,
        )

    # ------------------------------------------------------------- data plane

    @overload
    def get(
        self, file_id: str, offset: int, length: int, *,
        scope: CacheScope | None = ..., ttl: float | None = ...,
        source: DataSource | None = ..., resident_only: Literal[False] = ...,
    ) -> CacheReadResult: ...

    @overload
    def get(
        self, file_id: str, offset: int, length: int, *,
        scope: CacheScope | None = ..., resident_only: Literal[True],
    ) -> CacheReadResult | None: ...

    def get(
        self,
        file_id: str,
        offset: int,
        length: int,
        *,
        scope: CacheScope | None = None,
        ttl: float | None = None,
        source: DataSource | None = None,
        resident_only: bool = False,
    ) -> CacheReadResult | None:
        """Positional read, read-through on miss.  See ``LocalCacheManager.read``.

        With ``resident_only=True`` this is the non-blocking read of
        ``LocalCacheManager.read_resident``: the same result and counters
        when the whole range can be served from memory without touching
        the source, else ``None`` with nothing counted -- call again
        without the flag, from a thread that may block.  It is a mode of
        ``get`` rather than a second verb so that whatever observes ``get``
        (metrics, an external tracer) sees these reads as well.
        """
        if resident_only:
            return self.manager.read_resident(file_id, offset, length)
        src = source if source is not None else self.source
        if src is None:
            raise ValueError(
                "CacheEngine.get needs a data source (constructor or per-call)"
            )
        return self.manager.read(
            file_id, offset, length, src, scope=scope, ttl=ttl
        )

    def put(
        self,
        file_id: str,
        page_index: int,
        data: bytes,
        *,
        scope: CacheScope | None = None,
        ttl: float | None = None,
    ) -> bool:
        """Insert one page; True if resident afterwards."""
        return self.manager.put_page(
            PageId(file_id, page_index), data, scope=scope, ttl=ttl
        )

    def evict(self, file_id: str, page_index: int | None = None) -> int:
        """Remove one page (or, with ``page_index=None``, a whole file).

        Returns the number of pages removed.
        """
        if page_index is None:
            return self.manager.delete_file(file_id)
        return int(self.manager.delete_page(PageId(file_id, page_index)))

    def contains(self, file_id: str, page_index: int) -> bool:
        return self.manager.contains(PageId(file_id, page_index))

    def prefetch(
        self,
        file_id: str,
        *,
        scope: CacheScope | None = None,
        ttl: float | None = None,
        source: DataSource | None = None,
    ) -> int:
        src = source if source is not None else self.source
        if src is None:
            raise ValueError(
                "CacheEngine.prefetch needs a data source (constructor or per-call)"
            )
        return self.manager.prefetch_file(file_id, src, scope=scope, ttl=ttl)

    def file_length(self, file_id: str) -> int:
        """Length of ``file_id`` at the read-through source."""
        if self.source is None:
            raise ValueError("CacheEngine.file_length needs a constructor source")
        return self.source.file_length(file_id)

    # ------------------------------------------------------------ maintenance

    def ttl_sweep(self) -> int:
        """Expire TTL-overdue pages; transports schedule this periodically."""
        return self.manager.ttl_sweep()

    # ------------------------------------------------------------ observation

    @property
    def metrics(self) -> MetricsRegistry:
        return self.manager.metrics

    @property
    def config(self) -> CacheConfig:
        return self.manager.config

    def stats(self) -> Mapping[str, Any]:
        """Metrics snapshot (the STATS frame body), via ``metrics_export``."""
        payload = dict(to_json_dict(self.manager.metrics))
        payload["engine"] = {
            "page_count": self.manager.page_count,
            "bytes_used": self.manager.bytes_used,
            "capacity_bytes": self.manager.capacity_bytes,
        }
        return payload

    def prometheus(self) -> str:
        """Prometheus exposition text (the STATS frame's text format)."""
        return to_prometheus_text(self.manager.metrics)

    def health(self) -> Mapping[str, Any]:
        """Cheap liveness summary (the HEALTH frame body)."""
        used = self.manager.bytes_used
        capacity = self.manager.capacity_bytes
        return {
            "status": "ok",
            "page_count": self.manager.page_count,
            "bytes_used": used,
            "capacity_bytes": capacity,
            "fill_fraction": (used / capacity) if capacity else 0.0,
        }

    def __repr__(self) -> str:
        return (
            f"CacheEngine(pages={self.manager.page_count}, "
            f"bytes={self.manager.bytes_used}/{self.manager.capacity_bytes})"
        )
