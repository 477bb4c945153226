"""An S3-like remote object store model.

The compute-storage-disaggregation pain the paper opens with: every byte
Presto scans crosses the network or an object-store API, each request pays
tens of milliseconds of overhead, and the provider throttles aggregate
request rate.  The model charges per request::

    latency = base_latency + size / bandwidth (+ throttle delay)

Throttling is a token bucket over requests/second; once the bucket is
drained, requests are serialized at the refill rate -- matching the
"API throughput" strain of Section 1.  Payloads are held in memory keyed by
name; :class:`~repro.storage.remote.SyntheticDataSource` is the alternative
when materializing data is unnecessary.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import (
    FileNotFoundInStorageError,
    RemoteCorruptionError,
    RemoteReadError,
)
from repro.obs.tracer import current_tracer
from repro.ports.clock import Clock, SimClock
from repro.sim.kernel import (
    Cancelled,
    Timeout,
    charge_wasted_bytes,
    defer_io,
    io_collection_active,
)


@dataclass(frozen=True, slots=True)
class ObjectStoreProfile:
    """Latency/throughput envelope of a remote object store.

    Attributes:
        base_latency: fixed time-to-first-byte per GET, seconds.
        bandwidth: per-request streaming throughput, bytes/second.
        max_requests_per_second: token-bucket throttle (``None`` = none).
        burst: token bucket depth.
    """

    base_latency: float = 0.03
    bandwidth: float = 120e6
    max_requests_per_second: float | None = None
    burst: int = 100

    def __post_init__(self) -> None:
        if self.base_latency < 0:
            raise ValueError("base_latency must be >= 0")
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if self.max_requests_per_second is not None and self.max_requests_per_second <= 0:
            raise ValueError("max_requests_per_second must be positive")
        if self.burst <= 0:
            raise ValueError("burst must be positive")

    @classmethod
    def s3_like(cls) -> "ObjectStoreProfile":
        """Cloud object storage: ~30 ms TTFB, ~120 MB/s per stream."""
        return cls(base_latency=0.03, bandwidth=120e6)


class ObjectStore:
    """In-memory object payloads plus the latency/throttle model."""

    def __init__(
        self, profile: ObjectStoreProfile | None = None, clock: Clock | None = None
    ) -> None:
        self.profile = profile if profile is not None else ObjectStoreProfile.s3_like()
        self.clock = clock if clock is not None else SimClock()
        self._objects: dict[str, bytes] = {}
        self._tokens = float(self.profile.burst)
        self._last_refill = 0.0
        self.request_count = 0
        self.bytes_served = 0
        self.throttled_requests = 0
        # throttle wait folded into the last request's latency, exposed so
        # tracing can attribute it to the queueing bucket
        self.last_throttle_wait = 0.0
        # chaos injection: a RemoteFaultState (duck-typed to avoid importing
        # the resilience package) plus the rng stream drawing its dice, both
        # armed by ChaosInjector.set_remote_faults
        self.chaos = None
        self.chaos_rng = None
        self.chaos_failures = 0
        self.chaos_corruptions = 0
        self.chaos_delays = 0
        # kernel mode: optional cap on concurrent in-flight GETs (a
        # connection pool); None = unbounded, requests only pay latency
        self._connections = None

    def attach_kernel(self, kernel, *, max_concurrent_requests: int | None = None) -> "ObjectStore":
        """Bind to an event kernel; optionally bound in-flight requests.

        With a bound, replayed GETs queue FIFO at a connection resource so
        a burst of concurrent scans *experiences* head-of-line blocking at
        the store, not just token-bucket latency.
        """
        if max_concurrent_requests is not None:
            self._connections = kernel.resource(
                max_concurrent_requests, name="object-store/connections"
            )
        return self

    # -- namespace -----------------------------------------------------------

    def put_object(self, name: str, data: bytes) -> None:
        self._objects[name] = bytes(data)

    def contains(self, name: str) -> bool:
        return name in self._objects

    def object_length(self, name: str) -> int:
        try:
            return len(self._objects[name])
        except KeyError:
            raise FileNotFoundInStorageError(name) from None

    # -- data path --------------------------------------------------------------

    def get_range(self, name: str, offset: int, length: int) -> tuple[bytes, float]:
        """Ranged GET; returns ``(data, latency_seconds)``.

        Under deferred-I/O collection the throttle decision (token-bucket
        state) and chaos dice still resolve at the arrival instant --
        identically to analytic mode -- but the transfer time is deferred:
        a replay operation is appended to the active plan and the reported
        latency is 0.  The owning process then *experiences* the throttle
        wait and streaming time (and any connection-pool queueing) when it
        replays the plan.
        """
        try:
            payload = self._objects[name]
        except KeyError:
            raise FileNotFoundInStorageError(name) from None
        data = payload[offset : offset + length]
        latency = self._request_latency(len(data))
        self.request_count += 1
        if io_collection_active():
            throttle_wait = self.last_throttle_wait
            # chaos may raise; the wasted attempt's transfer op was not
            # yet deferred, matching the analytic path where a failed GET
            # contributes no latency (the retry's backoff does).
            latency = self._apply_chaos(name, latency)
            self.bytes_served += len(data)
            defer_io(
                lambda: self._transfer_op(name, len(data), latency, throttle_wait)
            )
            # zero the side channel: the sync caller must not charge a
            # wait the replay op will charge from measurement
            self.last_throttle_wait = 0.0
            return data, 0.0
        latency = self._apply_chaos(name, latency)
        self.bytes_served += len(data)
        return data, latency

    def _transfer_op(self, name: str, nbytes: int, latency: float, throttle_wait: float):
        """Replay one GET: queue for a connection, wait out throttle + stream."""
        tracer = current_tracer()
        began = self.clock.now()
        with tracer.span("object_store_get", actor="object-store", object=name) as span:
            request = self._connections.request() if self._connections is not None else None
            try:
                queued = self.clock.now()
                if request is not None:
                    try:
                        yield request
                    except Cancelled:
                        span.charge("queueing", self.clock.now() - queued)
                        raise
                    span.charge("queueing", self.clock.now() - queued)
                if throttle_wait > 0.0:
                    started = self.clock.now()
                    try:
                        yield Timeout(throttle_wait)
                    except Cancelled:
                        span.charge("queueing", self.clock.now() - started)
                        raise
                    span.charge("queueing", throttle_wait)
                transfer = max(0.0, latency - throttle_wait)
                started = self.clock.now()
                try:
                    yield Timeout(transfer)
                except Cancelled:
                    moved = self.clock.now() - started
                    span.charge("remote", moved)
                    if transfer > 0:
                        charge_wasted_bytes(int(nbytes * moved / transfer))
                    raise
                span.charge("remote", transfer)
            finally:
                if request is not None:
                    self._connections.release(request)
        return self.clock.now() - began

    def set_chaos(self, state, rng) -> None:
        """Arm (or, with an inactive state, disarm) request-level faults."""
        self.chaos = state
        self.chaos_rng = rng

    def _apply_chaos(self, name: str, latency: float) -> float:
        """Roll injected request faults; failed requests still count as API
        calls (the provider billed them) before the error surfaces."""
        state = self.chaos
        if state is None or self.chaos_rng is None or not state.active:
            return latency
        rng = self.chaos_rng.rng
        if state.fail_probability > 0 and float(rng.random()) < state.fail_probability:
            self.chaos_failures += 1
            raise RemoteReadError(f"injected object-store failure on {name!r}")
        if state.corrupt_probability > 0 and (
            float(rng.random()) < state.corrupt_probability
        ):
            self.chaos_corruptions += 1
            raise RemoteCorruptionError(
                f"injected object-store corruption on {name!r}"
            )
        if state.delay_probability > 0 and (
            float(rng.random()) < state.delay_probability
        ):
            self.chaos_delays += 1
            current_tracer().current().event(
                "remote_brownout_delay", seconds=state.delay_seconds
            )
            return latency + state.delay_seconds
        return latency

    def _request_latency(self, size: int) -> float:
        latency = self.profile.base_latency + size / self.profile.bandwidth
        self.last_throttle_wait = 0.0
        limit = self.profile.max_requests_per_second
        if limit is None:
            return latency
        now = self.clock.now()
        self._tokens = min(
            float(self.profile.burst),
            self._tokens + (now - self._last_refill) * limit,
        )
        self._last_refill = now
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return latency
        # Out of tokens: this request waits for the next token to refill.
        deficit = 1.0 - self._tokens
        self._tokens = 0.0
        self.throttled_requests += 1
        self.last_throttle_wait = deficit / limit
        current_tracer().current().event("throttled", wait=self.last_throttle_wait)
        return latency + deficit / limit
