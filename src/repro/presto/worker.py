"""Presto workers: the compute nodes embedding the local cache (Figure 7)."""

from __future__ import annotations

from repro.core.admission.base import AdmissionPolicy
from repro.core.cache_manager import LocalCacheManager
from repro.core.config import CacheConfig, CacheDirectory, MIB
from repro.core.metrics import MetricsRegistry
from repro.core.quota import QuotaManager
from repro.presto.metadata_cache import MetadataCache
from repro.presto.operators import ScanFilterProjectOperator, ScanProfile
from repro.obs.tracer import current_tracer
from repro.presto.split import Split
from repro.presto.runtime_stats import QueryRuntimeStats
from repro.service.sim_transport import build_sim_cache
from repro.ports.clock import Clock, SimClock
from repro.sim.kernel import Timeout, collecting_io, replay_plan
from repro.storage.remote import DataSource


class Worker:
    """One worker node: local cache + metadata cache + scan operator."""

    def __init__(
        self,
        name: str,
        source: DataSource,
        *,
        cache_capacity_bytes: int = 512 * MIB,
        page_size: int = 1 * MIB,
        clock: Clock | None = None,
        admission: AdmissionPolicy | None = None,
        quota: QuotaManager | None = None,
        metadata_cache_capacity: int = 10_000,
        cache_enabled: bool = True,
        metadata_cache_enabled: bool = True,
        ssd_backed: bool = True,
    ) -> None:
        self.name = name
        self.source = source
        self.clock = clock if clock is not None else SimClock()
        self.metrics = MetricsRegistry(name)
        self.cache: LocalCacheManager | None = None
        if cache_enabled:
            config = CacheConfig(
                page_size=page_size,
                directories=[CacheDirectory(f"/{name}/ssd0", cache_capacity_bytes)],
            )
            device = None
            if ssd_backed:
                # hits cost local-SSD time, not zero (Section 4.2)
                from repro.storage.device import DeviceProfile, StorageDevice

                device = StorageDevice(DeviceProfile.ssd_local(), self.clock,
                                       keep_records=False,
                                       service_bucket="cache_ssd",
                                       metrics=self.metrics)
            self.cache = build_sim_cache(
                config,
                clock=self.clock,
                device=device,
                admission=admission,
                quota=quota,
                metrics=self.metrics,
            )
        self.metadata_cache: MetadataCache | None = (
            MetadataCache(metadata_cache_capacity) if metadata_cache_enabled else None
        )
        self._operator = ScanFilterProjectOperator(
            self.cache, self.metadata_cache, source
        )
        self.busy_seconds = 0.0
        self.splits_executed = 0
        self.online = True

    def attach_kernel(self, kernel) -> "Worker":
        """Attach the worker's SSD page-store device to an event kernel so
        concurrent splits on this worker queue for the SSD for real."""
        if self.cache is not None:
            device = getattr(self.cache.page_store, "device", None)
            if device is not None:
                device.attach_kernel(kernel)
        return self

    def fail(self) -> None:
        """Crash the worker (container kill); splits sent here error out
        until :meth:`recover`."""
        self.online = False

    def recover(self) -> None:
        """Bring the worker back; its SSD cache contents survived."""
        self.online = True

    def wipe_cache(self) -> int:
        """Lose the SSD cache contents (disk replaced, container
        rescheduled without its volume); returns pages dropped.  The
        worker restarts cold -- the recovery case the churn soak measures."""
        if self.cache is None:
            return 0
        removed = 0
        for directory in range(len(self.cache.config.directories)):
            removed += self.cache.delete_dir(directory)
        self.metrics.counter("cache_wipes").inc()
        return removed

    def execute_split_proc(
        self,
        split: Split,
        profile: ScanProfile,
        stats: QueryRuntimeStats | None = None,
        *,
        bypass_cache: bool = False,
    ):
        """Kernel-process split scan: IO is *lived* rather than summed.

        The operator runs synchronously under IO collection (cache
        decisions, admission, and chaos resolve at the arrival instant)
        and its deferred IO plan is then replayed -- the process queues in
        device/remote FIFOs alongside every other in-flight split.  CPU and input-handling costs become
        a kernel timer.  ``yield from`` this inside a kernel process (the
        coordinator's split executors do).
        """
        if not self.online:
            raise ConnectionError(f"presto worker {self.name} is offline")
        tracer = current_tracer()
        with tracer.span(
            "execute_split", actor=self.name,
            file_id=split.file_id, table=split.qualified_table,
        ) as span:
            plan: list = []
            with collecting_io(plan):
                result = self._operator.execute(
                    split, profile, stats, bypass_cache=bypass_cache
                )
            # synchronous residue: handling + CPU (the operator charged it
            # to this span already); deferred IO contributed zero latency
            sync = result.input_wall + result.cpu_time
            io_wall = yield from replay_plan(plan)
            if sync > 0:
                yield Timeout(sync)
            result.input_wall += io_wall
            if stats is not None:
                stats.input_wall += io_wall
            span.annotate("input_wall", result.input_wall)
            span.annotate("cpu_time", result.cpu_time)
            self.busy_seconds += result.input_wall + result.cpu_time
            self.splits_executed += 1
            return result

    @property
    def cache_hit_ratio(self) -> float:
        return self.metrics.hit_ratio

    def cache_usage_bytes(self) -> int:
        return self.cache.bytes_used if self.cache is not None else 0

    def __repr__(self) -> str:
        return f"Worker({self.name!r}, splits={self.splits_executed})"
