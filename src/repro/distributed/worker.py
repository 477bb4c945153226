"""A cache worker node: the local cache behind a (modelled) network hop."""

from __future__ import annotations

from repro.core.cache_manager import CacheReadResult
from repro.core.config import CacheConfig, CacheDirectory, MIB
from repro.core.metrics import MetricsRegistry
from repro.core.scope import CacheScope
from repro.obs.tracer import current_tracer
from repro.service.sim_transport import build_sim_cache
from repro.ports.clock import Clock, SimClock
from repro.storage.device import DeviceProfile, StorageDevice
from repro.storage.remote import DataSource


class CacheWorker:
    """One worker of the distributed cache tier.

    Serves ranged reads out of its embedded local cache (read-through to
    the backing store on miss); each served request pays a fixed network
    round-trip on top of the cache's own latency.
    """

    def __init__(
        self,
        name: str,
        source: DataSource,
        *,
        cache_capacity_bytes: int = 256 * MIB,
        page_size: int = 1 * MIB,
        network_rtt: float = 0.0005,
        clock: Clock | None = None,
    ) -> None:
        if network_rtt < 0:
            raise ValueError(f"network_rtt must be >= 0, got {network_rtt}")
        self.name = name
        self.source = source
        self.network_rtt = network_rtt
        self.clock = clock if clock is not None else SimClock()
        self.metrics = MetricsRegistry(name)
        self.online = True
        config = CacheConfig(
            page_size=page_size,
            directories=[CacheDirectory(f"/{name}/ssd0", cache_capacity_bytes)],
        )
        self.cache = build_sim_cache(
            config,
            clock=self.clock,
            device=StorageDevice(DeviceProfile.ssd_local(), self.clock,
                                 keep_records=False),
            metrics=self.metrics,
        )
        self.requests_served = 0
        self._crash_countdown: int | None = None

    def serve_read(
        self,
        file_id: str,
        offset: int,
        length: int,
        *,
        scope: CacheScope | None = None,
    ) -> CacheReadResult:
        """Handle one client read; raises if the worker is offline."""
        if not self.online:
            raise ConnectionError(f"cache worker {self.name} is offline")
        tracer = current_tracer()
        with tracer.span("serve_read", actor=self.name, file_id=file_id) as span:
            if self._crash_countdown is not None:
                self._crash_countdown -= 1
                if self._crash_countdown <= 0:
                    # the process dies while serving: the client sees a dropped
                    # connection, not a response
                    self._crash_countdown = None
                    self.fail()
                    raise ConnectionError(
                        f"cache worker {self.name} crashed mid-read"
                    )
            result = self.cache.read(
                file_id, offset, length, self.source, scope=scope
            )
            span.charge("network", self.network_rtt)
            result.latency += self.network_rtt
            self.requests_served += 1
            return result

    def schedule_crash_after(self, requests: int) -> None:
        """Chaos hook: crash while serving the ``requests``-th next read
        (the connection drops before any bytes are returned)."""
        if requests < 1:
            raise ValueError(f"requests must be >= 1, got {requests}")
        self._crash_countdown = requests

    def fail(self) -> None:
        """Take the worker offline (container restart, crash)."""
        self.online = False

    def recover(self) -> None:
        """Bring the worker back; its cache contents survive (the node
        restarted, the SSD did not lose its pages in this scenario)."""
        self.online = True

    @property
    def hit_ratio(self) -> float:
        return self.metrics.hit_ratio
