"""A DataNode wrapped with the Alluxio local cache (Figure 11).

Read workflow for a block request:

1. If the block's current version is cached (SSD), serve it from the cache
   -- both the block bytes and its checksum meta travel together (the
   all-or-nothing rule).
2. Otherwise the **cache rate limiter** records the access; a block that
   has been accessed more than X times in the past Y minutes is deemed
   cache-worthy, loaded into the cache (one full HDD read + SSD write), and
   served.
3. Anything else takes the non-cache read path straight to the HDD, whose
   single channel is where blocked processes pile up.

Every read is a process on the node's event kernel (:attr:`CachedDataNode.
kernel`), so it queues at the HDD and SSD for real; :meth:`CachedDataNode.
read_block` runs one such process to completion for a caller that reads
one block at a time.

Snapshot isolation across appends comes from the cache key
``blk_<id>@gs<stamp>``: an in-flight append creates a *new* generation, so
readers of the old stamp keep hitting the old cache entry, and the new
version becomes a distinct entry on first admission (Section 6.2.3).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.admission.rate_limiter import BucketTimeRateLimit
from repro.core.config import CacheConfig, CacheDirectory, GIB
from repro.core.metrics import MetricsRegistry
from repro.errors import BlockNotFoundError
from repro.hdfs_cache.block_mapping import BlockMapping
from repro.obs.tracer import current_tracer
from repro.service.sim_transport import build_sim_cache
from repro.ports.clock import SimClock
from repro.sim.kernel import Kernel, collecting_io, defer_io, replay_plan
from repro.storage.device import DeviceProfile, StorageDevice
from repro.storage.hdfs.block import BlockId
from repro.storage.hdfs.datanode import DataNode
from repro.storage.remote import ReadResult


@dataclass(frozen=True, slots=True)
class CachedReadResult:
    """One block read and where its bytes came from."""

    data: bytes
    latency: float
    from_cache: bool


@dataclass(slots=True)
class TrafficSample:
    """One data point for the cache-vs-non-cache rate series (Figure 13)."""

    timestamp: float
    bytes_read: int
    from_cache: bool


class _DataNodeSource:
    """Adapts the underlying DataNode's HDD to the cache's ``DataSource``
    interface, keyed by the versioned cache id."""

    def __init__(self, owner: "CachedDataNode") -> None:
        self._owner = owner

    def file_length(self, file_id: str) -> int:
        identity = self._owner._identity_of(file_id)
        return self._owner.datanode.block_length(identity) + self._owner._meta_size(
            identity
        )

    def read(self, file_id: str, offset: int, length: int) -> ReadResult:
        identity = self._owner._identity_of(file_id)
        return self._owner._read_block_and_meta(identity, offset, length)


class CachedDataNode:
    """DataNode + embedded local cache + BucketTimeRateLimit admission."""

    def __init__(
        self,
        datanode: DataNode,
        *,
        clock: SimClock,
        cache_capacity_bytes: int = 2 * GIB,
        page_size: int = 1024 * 1024,
        rate_limiter: BucketTimeRateLimit | None = None,
        ssd_profile: DeviceProfile | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.datanode = datanode
        self.clock = clock
        self.metrics = (
            metrics if metrics is not None else MetricsRegistry(datanode.name)
        )
        self.rate_limiter = (
            rate_limiter
            if rate_limiter is not None
            else BucketTimeRateLimit(threshold=15, window_buckets=10)
        )
        self.ssd = StorageDevice(
            ssd_profile if ssd_profile is not None else DeviceProfile.ssd_local(),
            clock,
            service_bucket="cache_ssd",
        )
        config = CacheConfig(
            page_size=page_size,
            directories=[CacheDirectory(f"/{datanode.name}/ssd0", cache_capacity_bytes)],
        )
        self.cache = build_sim_cache(
            config,
            clock=clock,
            device=self.ssd,
            metrics=self.metrics,
        )
        self.mapping = BlockMapping()
        self._source = _DataNodeSource(self)
        self._identities: dict[str, BlockId] = {}
        self.enabled = True
        self.traffic: list[TrafficSample] = []
        self.kernel = Kernel(clock)
        self.attach_kernel(self.kernel)

    def attach_kernel(self, kernel: Kernel) -> "CachedDataNode":
        """Bind both devices (HDD, cache SSD) to ``kernel`` and make it the
        one reads run on (:attr:`kernel`).

        Reads then block in the devices' FIFOs; the HDD exports live
        ``device_queue_depth`` / ``blocked_processes`` gauges through this
        node's registry.
        """
        self.kernel = kernel
        self.datanode.device.attach_kernel(kernel)
        self.datanode.device.metrics = self.metrics
        self.ssd.attach_kernel(kernel)
        return self

    # -- identity plumbing ----------------------------------------------------

    def _register(self, identity: BlockId) -> str:
        key = identity.cache_key()
        self._identities[key] = identity
        return key

    def _identity_of(self, cache_id: str) -> BlockId:
        try:
            return self._identities[cache_id]
        except KeyError:
            raise BlockNotFoundError(cache_id) from None

    def _meta_size(self, identity: BlockId) -> int:
        block = self.datanode._get(identity)
        return block.meta.size_bytes

    def _read_block_and_meta(
        self, identity: BlockId, offset: int, length: int
    ) -> ReadResult:
        """Serve the concatenated (block || meta) image off the HDD.

        Caching the pair as one image keeps the block file and its checksum
        meta file inseparable, the paper's reliability rule.
        """
        block = self.datanode._get(identity)
        meta_blob = b"META" + bytes(
            b
            for checksum in block.meta.checksums
            for b in checksum.to_bytes(4, "big")
        )
        meta_blob = meta_blob[: block.meta.size_bytes].ljust(block.meta.size_bytes, b"\0")
        image = block.data + meta_blob
        data = image[offset : offset + length]
        latency = self.datanode.device.read(len(data))
        return ReadResult(data=data, latency=latency)

    # -- the read path -------------------------------------------------------------

    def read_block(
        self, identity: BlockId, offset: int = 0, length: int | None = None
    ) -> CachedReadResult:
        """Read a block range now: one :meth:`read_block_proc` process on
        :attr:`kernel`, drained, so the clock moves past the read (and any
        cache load it started)."""
        process = self.kernel.spawn(self.read_block_proc(identity, offset, length))
        self.kernel.run()
        return process.value

    def read_block_proc(
        self, identity: BlockId, offset: int = 0, length: int | None = None
    ):
        """Read a block range through the Figure-11 workflow as a kernel
        process: decisions at the arrival instant, waits experienced.

        The workflow (mapping lookup, admission, eviction) runs at the
        arrival instant under deferred-I/O collection; the process then
        replays the collected device transfers, blocking in the HDD/SSD
        FIFO queues, and the result's latency is *measured* from the
        virtual clock.  Replay the generator with ``yield from`` inside a
        process on :attr:`kernel`.
        """
        tracer = current_tracer()
        with tracer.span(
            "block_read", actor=self.datanode.name, block=str(identity)
        ) as span:
            start = self.clock.now()
            plan: list = []
            with collecting_io(plan):
                result = self._read_block(identity, offset, length, span)
            yield from replay_plan(plan)
            latency = self.clock.now() - start
            span.annotate("latency", latency)
            span.annotate("from_cache", result.from_cache)
            return CachedReadResult(
                data=result.data, latency=latency, from_cache=result.from_cache
            )

    def _read_block(
        self, identity: BlockId, offset: int, length: int | None, span
    ) -> CachedReadResult:
        if length is None:
            length = self.datanode.block_length(identity) - offset
        if not self.enabled:
            return self._non_cache_read(identity, offset, length)

        key = self._register(identity)
        now = self.clock.now()
        cached = self.mapping.lookup(identity.block_id)
        if cached is not None and cached.cache_id == key:
            return self._cache_read(identity, key, offset, length)
        if cached is not None and cached.cache_id != key:
            # A newer generation superseded the cached one: drop the stale
            # entry; the new version competes for admission like any block.
            self._purge_cache_entry(identity.block_id)

        if self.rate_limiter.record_and_check(str(identity.block_id), now):
            span.event("cache_load", block=str(identity))
            self._load_into_cache(identity, key)
            return self._cache_read(identity, key, offset, length)
        return self._non_cache_read(identity, offset, length)

    def _cache_read(
        self, identity: BlockId, key: str, offset: int, length: int
    ) -> CachedReadResult:
        result = self.cache.read(key, offset, length, self._source)
        now = self.clock.now()
        # bytes are attributed to their true origin: pages the cache had to
        # read through from the HDD count as non-cache traffic (this is the
        # split Figure 13 plots)
        if result.bytes_from_cache:
            self.traffic.append(
                TrafficSample(now, result.bytes_from_cache, from_cache=True)
            )
        if result.bytes_from_remote:
            self.traffic.append(
                TrafficSample(now, result.bytes_from_remote, from_cache=False)
            )
        if result.fallbacks:
            # the cache timed out / errored and the HDD bailed it out --
            # served, but in degraded mode
            self.metrics.counter("degraded_serves").inc()
        return CachedReadResult(
            data=result.data, latency=result.latency, from_cache=True
        )

    def _non_cache_read(
        self, identity: BlockId, offset: int, length: int
    ) -> CachedReadResult:
        result = self.datanode.read_block(identity, offset, length)
        self.traffic.append(
            TrafficSample(self.clock.now(), len(result.data), from_cache=False)
        )
        return CachedReadResult(
            data=result.data, latency=result.latency, from_cache=False
        )

    def _load_into_cache(self, identity: BlockId, key: str) -> None:
        """Admit the whole (block || meta) image into the SSD cache.

        The load's latency is not charged to the triggering read (the
        reader is served from the freshly warmed cache); the ``off_path``
        attr keeps its charges out of that read's latency attribution.
        """
        tracer = current_tracer()
        with tracer.span(
            "cache_load", actor=self.datanode.name, off_path=True
        ):
            total = self._source.file_length(key)
            # the load's device transfers must not extend the triggering
            # read (it is served from the warmed cache), but they *do*
            # compete for the HDD/SSD -- collect them in a sub-plan and
            # replay it in a background process
            subplan: list = []
            with collecting_io(subplan):
                self.cache.read(key, 0, total, self._source)

            def _spawn_load(subplan: list = subplan) -> float:
                def load_proc():
                    with current_tracer().span(
                        "cache_load_io", actor=self.datanode.name, off_path=True
                    ):
                        yield from replay_plan(subplan)

                self.kernel.spawn(
                    load_proc(), name=f"cache-load/{self.datanode.name}"
                )
                return 0.0

            defer_io(_spawn_load)
        self.mapping.record(identity.block_id, key, total)

    # -- mutations the cache must track ----------------------------------------------

    def on_block_deleted(self, block_id: int) -> bool:
        """Purge the cached copy when HDFS deletes the block (the in-memory
        mapping makes this immediate rather than waiting for a TTL sweep)."""
        return self._purge_cache_entry(block_id)

    def _purge_cache_entry(self, block_id: int) -> bool:
        entry = self.mapping.remove(block_id)
        if entry is None:
            return False
        self.cache.delete_file(entry.cache_id)
        return True

    def restart(self) -> None:
        """Process restart: the in-memory mapping is lost, so the DataNode
        clears all local cached contents and rebuilds from the ground up
        (the paper's "viable compromise")."""
        self.datanode.restart()
        self.mapping.clear()
        for directory in range(len(self.cache.config.directories)):
            self.cache.delete_dir(directory)
        self._identities.clear()

    def set_enabled(self, enabled: bool) -> None:
        """Toggle the cache (Figure 14 disables it mid-experiment)."""
        self.enabled = enabled

    # -- reporting --------------------------------------------------------------------

    def traffic_rates(
        self, bucket_seconds: float = 60.0
    ) -> tuple[dict[int, int], dict[int, int]]:
        """Per-bucket byte counts: ``(cache_bytes, non_cache_bytes)``
        -- the two series of Figure 13."""
        cache_series: dict[int, int] = {}
        other_series: dict[int, int] = {}
        for sample in self.traffic:
            bucket = int(sample.timestamp // bucket_seconds)
            series = cache_series if sample.from_cache else other_series
            series[bucket] = series.get(bucket, 0) + sample.bytes_read
        return cache_series, other_series

    @property
    def total_bytes(self) -> int:
        return sum(s.bytes_read for s in self.traffic)
