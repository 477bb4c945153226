"""Block-device models with bounded concurrency and blocked-request accounting.

The paper's HDFS figures hinge on one physical fact: high-density HDDs gain
capacity much faster than bandwidth, so read bursts queue at the device and
processes block on I/O (Section 2.2; Figure 14 counts up to ~5000 blocked
processes per minute).  We model a device as ``channels`` parallel servers
(an HDD has 1, an SSD has many); each request occupies a channel for
``seek + size / bandwidth`` seconds.  A request that arrives while all
channels are busy *waits* -- that wait is exactly the paper's "blocked
process" signal, which :class:`StorageDevice` records per request so
benchmarks can bucket it per minute.

Queueing is lived on the event kernel and nowhere else.  A device bound to
a :class:`~repro.sim.kernel.Kernel` (:meth:`StorageDevice.attach_kernel`)
is a FIFO :class:`~repro.sim.kernel.Resource` of ``channels`` slots: a
read or write issued by a kernel process (:meth:`StorageDevice.read_proc`,
or any read under deferred-I/O collection) genuinely blocks in its queue,
waits are measured from live occupancy, and a cancelled request accounts
the bytes its partial transfer wasted.  Outside a kernel process a read or
write returns its service time and records no wait -- the contract every
other simulated source already follows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING

from repro.obs.tracer import current_tracer
from repro.ports.clock import Clock, SimClock
from repro.sim.kernel import IO_PLANS, Cancelled, Timeout, charge_wasted_bytes

if TYPE_CHECKING:
    from repro.core.metrics import Gauge, MetricsRegistry
    from repro.sim.kernel import Kernel, Resource


@dataclass(frozen=True, slots=True)
class DeviceProfile:
    """Performance envelope of one device.

    Attributes:
        name: label for reports.
        read_bandwidth: sustained read throughput, bytes/second.
        write_bandwidth: sustained write throughput, bytes/second.
        seek_latency: fixed per-request overhead, seconds (HDD seek +
            rotation, or SSD command overhead).
        channels: requests served truly in parallel (queue depth before
            arrivals start waiting).
    """

    name: str
    read_bandwidth: float
    write_bandwidth: float
    seek_latency: float
    channels: int = 1

    def __post_init__(self) -> None:
        if self.read_bandwidth <= 0 or self.write_bandwidth <= 0:
            raise ValueError("bandwidths must be positive")
        if self.seek_latency < 0:
            raise ValueError("seek_latency must be >= 0")
        if self.channels <= 0:
            raise ValueError("channels must be positive")

    @classmethod
    def hdd_high_density(cls) -> "DeviceProfile":
        """A dense 16+TB HDD: big capacity, one actuator, ~180 MB/s."""
        return cls(
            name="hdd-16tb",
            read_bandwidth=180e6,
            write_bandwidth=160e6,
            seek_latency=8e-3,
            channels=1,
        )

    @classmethod
    def ssd_local(cls) -> "DeviceProfile":
        """A local NVMe SSD: ~2 GB/s, deep internal parallelism."""
        return cls(
            name="nvme-ssd",
            read_bandwidth=2.0e9,
            write_bandwidth=1.2e9,
            seek_latency=80e-6,
            channels=32,
        )


@dataclass(slots=True)
class RequestRecord:
    """One completed request, for offline analysis."""

    arrival: float
    wait: float
    service: float
    size: int
    is_read: bool

    @property
    def latency(self) -> float:
        return self.wait + self.service

    @property
    def completion(self) -> float:
        return self.arrival + self.latency


@dataclass(slots=True)
class DeviceStats:
    """Aggregate counters plus the full request log."""

    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    blocked_requests: int = 0
    total_wait: float = 0.0
    busy_time: float = 0.0
    # requests a kernel process abandoned mid-flight (hedge losers, chaos
    # aborts) and the bytes their partial transfers had moved
    cancelled_requests: int = 0
    cancelled_bytes: int = 0
    records: list[RequestRecord] = field(default_factory=list)


class StorageDevice:
    """One device on a simulation clock.

    ``read``/``write`` count the request and return its service time; under
    deferred-I/O collection on an attached kernel they instead queue the
    transfer for the owning process to live (and return 0).  Waits, blocked
    counts and :class:`RequestRecord` entries come only from transfers a
    kernel process lives through.
    """

    def __init__(
        self,
        profile: DeviceProfile,
        clock: Clock | None = None,
        *,
        keep_records: bool = True,
        service_bucket: str = "remote",
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        self.profile = profile
        self.clock = clock if clock is not None else SimClock()
        self.stats = DeviceStats()
        self._keep_records = keep_records
        # attribution bucket replayed service time is charged to ("remote"
        # for a DataNode's HDD, "cache_ssd" for a cache's SSD)
        self.service_bucket = service_bucket
        # optional registry for the live device_queue_depth /
        # blocked_processes gauges; see `metrics`
        self.metrics = metrics
        # attach_kernel: a FIFO resource of `channels` slots
        self._resource: "Resource | None" = None

    def attach_kernel(self, kernel: "Kernel") -> "StorageDevice":
        """Bind the device to an event kernel.

        Reads/writes issued by its processes (``read_proc``/``write_proc``,
        or under deferred-I/O collection) then block at a FIFO resource.
        """
        self._resource = kernel.resource(
            self.profile.channels, name=f"device/{self.profile.name}"
        )
        return self

    @property
    def kernel_attached(self) -> bool:
        return self._resource is not None

    @property
    def metrics(self) -> "MetricsRegistry | None":
        return self._metrics

    @metrics.setter
    def metrics(self, registry: "MetricsRegistry | None") -> None:
        # the gauge handles are bound on the first kernel transfer (a gauge
        # appears in a registry only once it has been set) and rebound
        # after the registry is swapped
        self._metrics = registry
        self._gauges: "tuple[Gauge, Gauge] | None" = None

    def _submit(self, size: int, is_read: bool) -> float:
        if size < 0:
            raise ValueError(f"size must be >= 0, got {size}")
        profile = self.profile
        bandwidth = profile.read_bandwidth if is_read else profile.write_bandwidth
        service = profile.seek_latency + size / bandwidth
        stats = self.stats
        if is_read:
            stats.reads += 1
            stats.bytes_read += size
        else:
            stats.writes += 1
            stats.bytes_written += size
        if IO_PLANS and self._resource is not None:
            # decision-visible counters move at the arrival instant
            # (synchronous callers may inspect them); the transfer itself is
            # deferred to the owning process, which queues at the resource
            IO_PLANS[-1].append(partial(self._transfer_op, size, service, is_read))
            return 0.0
        return service

    def read(self, size: int) -> float:
        """Submit a read of ``size`` bytes; returns its service time (0 when
        deferred to a kernel process)."""
        if IO_PLANS and self._resource is not None and size >= 0:
            # `_submit`'s kernel branch, inlined: every simulated-SSD hit
            # comes through here, and this is its one frame (DESIGN.md §16)
            stats = self.stats
            stats.reads += 1
            stats.bytes_read += size
            service = self.profile.seek_latency + size / self.profile.read_bandwidth
            IO_PLANS[-1].append(partial(self._transfer_op, size, service, True))
            return 0.0
        return self._submit(size, is_read=True)

    def write(self, size: int) -> float:
        """Submit a write of ``size`` bytes; returns its service time (0 when
        deferred to a kernel process)."""
        return self._submit(size, is_read=False)

    # -- kernel processes ----------------------------------------------------

    def read_proc(self, size: int):
        """Process-style read: experiences queueing, returns measured latency."""
        if self._resource is None:
            raise RuntimeError("read_proc requires attach_kernel()")
        self.stats.reads += 1
        self.stats.bytes_read += size
        service = self.profile.seek_latency + size / self.profile.read_bandwidth
        return (yield from self._transfer_op(size, service, is_read=True))

    def write_proc(self, size: int):
        """Process-style write: experiences queueing, returns measured latency."""
        if self._resource is None:
            raise RuntimeError("write_proc requires attach_kernel()")
        self.stats.writes += 1
        self.stats.bytes_written += size
        service = self.profile.seek_latency + size / self.profile.write_bandwidth
        return (yield from self._transfer_op(size, service, is_read=False))

    def _transfer_op(self, size: int, service: float, is_read: bool):
        """One replayed transfer: queue at the FIFO resource, then serve.

        Cancellation mid-queue abandons the slot claim; cancellation
        mid-service accounts the bytes already moved (hedge-loser waste)
        and charges the partial time so trace attribution stays exact.
        With tracing off no span is opened and no charge is made.
        """
        tracer = current_tracer()
        resource = self._resource
        stats = self.stats
        clock = self.clock
        span = None
        if tracer.enabled:
            span = tracer.span(
                "device_read" if is_read else "device_write",
                actor=self.profile.name, size=size,
            )
        request = resource.request()
        try:
            self._update_gauges(tracer)
            arrival = clock.now()
            try:
                yield request
            except Cancelled:
                if span is not None:
                    span.charge("queueing", clock.now() - arrival)
                stats.cancelled_requests += 1
                raise
            started = clock.now()
            wait = started - arrival
            if span is not None:
                span.charge("queueing", wait)
            try:
                yield Timeout(service)
            except Cancelled:
                served = clock.now() - started
                if span is not None:
                    span.charge(self.service_bucket, served)
                moved = int(size * served / service) if service > 0 else 0
                stats.cancelled_requests += 1
                stats.cancelled_bytes += moved
                stats.busy_time += served
                charge_wasted_bytes(moved)
                raise
            if span is not None:
                span.charge(self.service_bucket, service)
        except BaseException as exc:
            if span is not None:  # what `with span:` records
                span.annotate("error", type(exc).__name__)
            raise
        finally:
            resource.release(request)
            self._update_gauges(tracer)
            if span is not None:
                span.finish()
        stats.busy_time += service
        if wait > 0.0:
            stats.blocked_requests += 1
            stats.total_wait += wait
        if self._keep_records:
            stats.records.append(
                RequestRecord(arrival=arrival, wait=wait, service=service,
                              size=size, is_read=is_read)
            )
        return wait + service

    def _update_gauges(self, tracer) -> None:
        """Publish live occupancy to ``device_queue_depth`` /
        ``blocked_processes``; an exemplar only when tracing."""
        gauges = self._gauges
        if gauges is None:
            metrics = self._metrics
            if metrics is None:
                return
            gauges = self._gauges = (
                metrics.gauge("device_queue_depth"),
                metrics.gauge("blocked_processes"),
            )
        depth, blocked = gauges
        resource = self._resource
        waiting = resource.waiting
        if tracer.enabled:
            exemplar = tracer.current_span_id()
            depth.set(resource.in_use + waiting, exemplar=exemplar)
            blocked.set(waiting, exemplar=exemplar)
        else:  # `Gauge.set` without an exemplar, minus its frame
            depth.value = resource.in_use + waiting
            blocked.value = waiting

    def blocked_per_bucket(
        self, bucket_seconds: float = 60.0, *, min_wait: float = 0.0
    ) -> dict[int, int]:
        """Per-time-bucket count of requests that waited (> ``min_wait``).

        This is the reproduction's "blocked processes per minute" series
        (Figure 14): each request that found every channel busy corresponds
        to a process in uninterruptible sleep on the real node.
        """
        buckets: dict[int, int] = {}
        for record in self.stats.records:
            if record.wait > min_wait:
                bucket = int(record.arrival // bucket_seconds)
                buckets[bucket] = buckets.get(bucket, 0) + 1
        return buckets

    def reset_stats(self) -> None:
        self.stats = DeviceStats()
