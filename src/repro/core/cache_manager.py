"""The Alluxio local cache manager (Figure 3) -- the paper's contribution.

:class:`LocalCacheManager` wires the components of Section 4 into the
read/write workflow:

1. **Admission controller** decides whether an access is cache-worthy;
   declined data takes the non-cache read path to the external source.
2. **Page translation** turns file-level positional reads into page-level
   operations (:func:`~repro.core.page.pages_for_range`).
3. **Cache hit** -- the page store serves the bytes; a read that exceeds
   the configured timeout or fails its checksum *falls back to the remote
   source* (Section 8), with corruption additionally triggering early
   eviction of the bad entry.
4. **Cache miss** -- read-through: the full page is fetched from the data
   source, admitted through allocation, quota verification, and capacity
   eviction, and the requested fragment is served.
5. **Quota manager** verifies the scope chain finest-to-global and cures
   violations with the paper's partition-level / table-random eviction.
6. **Evictor** (per cache directory, pluggable policy) reclaims space.
7. A periodic **TTL sweep** expires pages past their time-to-live.

Thread-safety: metadata mutations hold a manager-wide lock; page payload
I/O is guarded by striped per-page locks (Section 4.3's "fine-grained
locking mechanisms to support high-read concurrency").  Simulations are
single-threaded, but the cache is safe to embed in threaded applications.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.admission.base import AdmissionPolicy, AdmitAll
from repro.core.allocator import make_allocator
from repro.core.config import CacheConfig
from repro.core.eviction import make_eviction_policy
from repro.core.metastore import PageMetaStore
from repro.core.metrics import MetricsRegistry
from repro.core.page import PageId, PageInfo, pages_for_range
from repro.core.pagestore.memory import MemoryPageStore
from repro.core.quota import QuotaManager
from repro.core.scope import CacheScope
from repro.errors import (
    CacheReadTimeoutError,
    NoSpaceLeftError,
    PageCorruptedError,
    PageNotFoundError,
)
from repro.obs.tracer import current_tracer
from repro.ports.clock import Clock, SimClock
from repro.ports.rng import RngStream

if TYPE_CHECKING:
    from repro.ports.concurrency import SchedulerPort
    from repro.storage.remote import DataSource, ReadResult


@dataclass(slots=True)
class CacheReadResult:
    """Outcome of :meth:`LocalCacheManager.read`.

    ``latency`` sums modelled page-store and remote latencies for the
    request; simulators advance their clock by it.
    """

    data: bytes
    latency: float = 0.0
    page_hits: int = 0
    page_misses: int = 0
    bytes_from_cache: int = 0
    bytes_from_remote: int = 0
    fallbacks: int = 0

    @property
    def fully_cached(self) -> bool:
        return self.page_misses == 0 and self.fallbacks == 0


@dataclass(slots=True)
class _PutOutcome:
    admitted: bool
    reason: str = "ok"
    evicted_pages: int = 0


class LocalCacheManager:
    """The embeddable local (edge) cache.

    Args:
        config: knobs (page size, directories, policies, timeouts).
        clock: time source (virtual in simulations, wall in live embeds).
        page_store: payload storage; defaults to an in-memory store.
        admission: admission policy; defaults to admit-all.
        quota: hierarchical quota manager; defaults to no quotas.
        metrics: metrics registry; created if not supplied.
        rng: random stream (random eviction, quota randomization).
        event_loop: any :class:`~repro.ports.concurrency.SchedulerPort`
            (the kernel's ``EventLoop``, or the service scheduler); when
            supplied, a periodic TTL sweep is scheduled on it.
    """

    def __init__(
        self,
        config: CacheConfig | None = None,
        *,
        clock: Clock | None = None,
        page_store=None,
        admission: AdmissionPolicy | None = None,
        quota: QuotaManager | None = None,
        metrics: MetricsRegistry | None = None,
        rng: RngStream | None = None,
        event_loop: SchedulerPort | None = None,
    ) -> None:
        self.config = config if config is not None else CacheConfig()
        self.clock = clock if clock is not None else SimClock()
        self.page_store = page_store if page_store is not None else MemoryPageStore()
        self.admission = admission if admission is not None else AdmitAll()
        self.quota = quota if quota is not None else QuotaManager()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.rng = rng if rng is not None else RngStream(0, "cache")
        self.metastore = PageMetaStore()
        # attribution bucket for cache hits: device-backed stores are SSD
        # time, pure in-memory stores are memory time (DESIGN.md §8)
        self._hit_bucket = (
            "cache_ssd"
            if getattr(self.page_store, "device", None) is not None
            else "cache_mem"
        )
        self._allocator = make_allocator(self.config, self.metastore)
        self._policies = [
            make_eviction_policy(self.config.eviction_policy, self.rng.child(f"evict{i}"))
            for i in range(len(self.config.directories))
        ]
        self._meta_lock = threading.RLock()
        self._stripes = [
            threading.RLock() for __ in range(self.config.lock_stripes)
        ]
        if event_loop is not None:
            event_loop.schedule_periodic(
                self.config.ttl_check_interval, self.ttl_sweep
            )

    # -- convenience accessors ----------------------------------------------

    @property
    def bytes_used(self) -> int:
        return self.metastore.bytes_used

    @property
    def page_count(self) -> int:
        return len(self.metastore)

    @property
    def capacity_bytes(self) -> int:
        return self.config.capacity_bytes

    def contains(self, page_id: PageId) -> bool:
        return page_id in self.metastore

    def _stripe(self, page_id: PageId) -> threading.RLock:
        return self._stripes[hash(page_id) % len(self._stripes)]

    # ------------------------------------------------------------------ reads

    def read(
        self,
        file_id: str,
        offset: int,
        length: int,
        source: DataSource,
        *,
        scope: CacheScope | None = None,
        ttl: float | None = None,
    ) -> CacheReadResult:
        """Positional read of ``[offset, offset+length)`` of ``file_id``.

        The request is split into page fragments; each fragment is served
        from the cache when possible, otherwise read through the source
        (caching the full page when admission, quota, and space permit).
        Reads past end-of-file are truncated, mirroring ranged GETs.
        """
        tracer = current_tracer()
        with tracer.span(
            "cache_read", actor=self.metrics.name,
            file_id=file_id, offset=offset, length=length,
        ) as span:
            result = self._read(file_id, offset, length, source, scope, ttl, span)
            span.annotate("latency", result.latency)
            span.annotate("page_hits", result.page_hits)
            span.annotate("page_misses", result.page_misses)
            self.metrics.histogram("read_latency_seconds").observe(
                result.latency, exemplar=span.span_id or None
            )
            return result

    def _read(
        self,
        file_id: str,
        offset: int,
        length: int,
        source: DataSource,
        scope: CacheScope | None,
        ttl: float | None,
        span,
    ) -> CacheReadResult:
        scope = scope if scope is not None else CacheScope.global_scope()
        file_length = source.file_length(file_id)
        if offset >= file_length:
            return CacheReadResult(data=b"")
        length = min(length, file_length - offset)
        result = CacheReadResult(data=b"")
        chunks: list[bytes] = []
        now = self.clock.now()

        if not self.admission.admit(file_id, scope, now):
            # Non-cache read path (Figure 3): straight to the data source.
            self.metrics.counter("put_rejected_admission").inc()
            span.event("admission_bypass")
            remote = source.read(file_id, offset, length)
            self._charge_remote(span, source, remote.latency)
            result.latency += remote.latency
            result.bytes_from_remote += len(remote.data)
            result.page_misses += self._page_span(offset, length)
            self.metrics.counter("get_misses").inc(self._page_span(offset, length))
            self.metrics.counter("bytes_read_remote").inc(len(remote.data))
            result.data = remote.data
            return result

        for page_id, in_page, take in pages_for_range(
            file_id, offset, length, self.config.page_size
        ):
            fragment = self._read_fragment(
                page_id, in_page, take, source, scope, ttl, file_length, result
            )
            chunks.append(fragment)
        result.data = b"".join(chunks)
        return result

    @staticmethod
    def _charge_remote(span, source: DataSource, remote_latency: float) -> None:
        """Split one remote latency into attribution buckets on ``span``.

        Sources that decompose their latency expose side-channel attributes
        (``last_retry_backoff`` from the resilience wrapper,
        ``last_queue_wait`` from device/throttle-backed sources); whatever
        is unexplained is charged as pure remote time.  The bucket sum
        equals ``remote_latency`` exactly.
        """
        backoff = getattr(source, "last_retry_backoff", 0.0)
        wait = getattr(source, "last_queue_wait", 0.0)
        span.charge("retry_backoff", backoff)
        span.charge("queueing", wait)
        span.charge("remote", remote_latency - backoff - wait)

    def _page_span(self, offset: int, length: int) -> int:
        if length <= 0:
            return 0
        first = offset // self.config.page_size
        last = (offset + length - 1) // self.config.page_size
        return last - first + 1

    def _read_fragment(
        self,
        page_id: PageId,
        in_page: int,
        take: int,
        source: DataSource,
        scope: CacheScope,
        ttl: float | None,
        file_length: int,
        result: CacheReadResult,
    ) -> bytes:
        info = self.metastore.get(page_id)
        if info is not None:
            data = self._read_cached(page_id, info, in_page, take, source, result)
            if data is not None:
                return data
            # fell through: timeout/corruption fallback already fetched below
        return self._read_through(
            page_id, in_page, take, source, scope, ttl, file_length, result
        )

    def _read_cached(
        self,
        page_id: PageId,
        info: PageInfo,
        in_page: int,
        take: int,
        source: DataSource,
        result: CacheReadResult,
    ) -> bytes | None:
        """Serve a hit; on timeout/corruption return ``None`` to trigger the
        remote fallback path."""
        try:
            with self._stripe(page_id):
                data = self.page_store.get(
                    page_id, info.directory, in_page, take,
                    timeout=self.config.read_timeout,
                )
        except CacheReadTimeoutError as exc:
            # Section 8 "file read hanging": fall back to remote storage,
            # keep the cached entry (the data is fine, the device stalled).
            self.metrics.counter("timeout_fallbacks").inc()
            self.metrics.record_error("get", exc)
            current_tracer().current().event("timeout_fallback")
            result.fallbacks += 1
            return None
        except PageCorruptedError as exc:
            # Section 8 "corrupted files": early-evict the bad entry.
            self.metrics.counter("corruption_evictions").inc()
            self.metrics.record_error("get", exc)
            current_tracer().current().event("corruption_fallback")
            self.delete_page(page_id)
            result.fallbacks += 1
            return None
        except PageNotFoundError as exc:
            # Metadata said present but payload is gone (lost device);
            # repair metadata and treat as a miss.
            self.metrics.record_error("get", exc)
            self._forget(page_id)
            return None
        with self._meta_lock:
            info.touch(self.clock.now())
            self._policies[info.directory].on_access(page_id)
        self.metrics.counter("get_hits").inc()
        self.metrics.counter("bytes_read_cache").inc(len(data))
        latency = getattr(self.page_store, "last_op_latency", 0.0)
        wait = getattr(self.page_store, "last_op_wait", 0.0)
        span = current_tracer().current()
        span.charge("queueing", wait)
        span.charge(self._hit_bucket, latency - wait)
        result.latency += latency
        result.page_hits += 1
        result.bytes_from_cache += len(data)
        return data

    def _read_through(
        self,
        page_id: PageId,
        in_page: int,
        take: int,
        source: DataSource,
        scope: CacheScope,
        ttl: float | None,
        file_length: int,
        result: CacheReadResult,
    ) -> bytes:
        """Miss path: fetch the whole page remotely, try to cache it."""
        page_offset = page_id.page_index * self.config.page_size
        page_length = min(self.config.page_size, file_length - page_offset)
        remote: ReadResult = source.read(page_id.file_id, page_offset, page_length)
        self._charge_remote(current_tracer().current(), source, remote.latency)
        result.latency += remote.latency
        result.page_misses += 1
        result.bytes_from_remote += len(remote.data)
        self.metrics.counter("get_misses").inc()
        self.metrics.counter("bytes_read_remote").inc(len(remote.data))
        self.put_page(page_id, remote.data, scope=scope, ttl=ttl, pre_admitted=True)
        return remote.data[in_page : in_page + take]

    def read_resident(
        self,
        file_id: str,
        offset: int,
        length: int,
        *,
        scope: CacheScope | None = None,
    ) -> CacheReadResult | None:
        """:meth:`read` for callers that must not block (an event loop).

        Answers only when every page of the range is in the metastore *and*
        the page store declares ``nonblocking_reads`` (a class-level fact;
        a store that says nothing is treated as blocking).  It has no path
        to a ``DataSource``: a resident page shorter than the page size is
        the file's last page (the invariant of :meth:`_read_through`), so
        its stored size gives the end-of-file truncation ``read`` takes
        from ``file_length``.  The only waits are the metadata lock and the
        page stripes, which over such a store guard dict updates.

        Two phases.  The first collects every page's bytes and changes
        nothing; on any absence, store error or admission refusal the
        answer is ``None`` and the caller falls back to :meth:`read` with
        nothing counted twice.  Only then does the second apply what
        ``read`` applies per hit (``touch``, ``on_access``, ``get_hits``,
        ``bytes_read_cache``, ``read_latency_seconds``).  Admission is
        asked only when the policy declares ``stateless``: any other may
        count the access, and the fallback would make it count twice.
        """
        store = self.page_store
        if not (
            getattr(type(store), "nonblocking_reads", False)
            and getattr(type(self.admission), "stateless", False)
        ):
            return None
        page_size = self.config.page_size
        timeout = self.config.read_timeout
        infos: list[PageInfo] = []
        chunks: list[bytes] = []
        # not pages_for_range: `length` is the caller's, not yet cut to the
        # file (it may be 4 GiB), so walk lazily and stop at the first gap
        position, end = offset, offset + length
        while position < end:
            index = position // page_size
            in_page = position - index * page_size
            page_id = PageId(file_id, index)
            info = self.metastore.get(page_id)
            if info is None:
                return None
            take = min(info.size - in_page, end - position)
            if take <= 0:
                return None  # starts at or past end-of-file: `read` knows
            try:
                with self._stripe(page_id):
                    data = store.get(
                        page_id, info.directory, in_page, take, timeout=timeout
                    )
            except (PageNotFoundError, PageCorruptedError, CacheReadTimeoutError):
                return None  # `read` repeats it and does the repair
            infos.append(info)
            chunks.append(data)
            if info.size < page_size:
                break  # the short page is the last one; the rest is past EOF
            position += take
        now = self.clock.now()
        if not infos or not self.admission.admit(
            file_id, scope if scope is not None else CacheScope.global_scope(), now
        ):
            return None
        with self._meta_lock:
            for info in infos:
                info.touch(now)
                self._policies[info.directory].on_access(info.page_id)
        data = b"".join(chunks)
        self.metrics.counter("get_hits").inc(len(infos))
        self.metrics.counter("bytes_read_cache").inc(len(data))
        # a store whose reads do not block models no latency either
        self.metrics.histogram("read_latency_seconds").observe(0.0)
        return CacheReadResult(
            data=data, page_hits=len(infos), bytes_from_cache=len(data)
        )

    def prefetch_file(
        self,
        file_id: str,
        source: DataSource,
        *,
        scope: CacheScope | None = None,
        ttl: float | None = None,
    ) -> int:
        """Warm-up: pre-load every page of ``file_id`` from the source.

        This is the "data is pre-loaded into the cache" protocol of the
        paper's TPC-DS evaluation.  Returns the number of the file's pages
        resident after the prefetch (admission, quota, and capacity rules
        still apply -- a prefetch is not a guarantee).
        """
        length = source.file_length(file_id)
        if length > 0:
            self.read(file_id, 0, length, source, scope=scope, ttl=ttl)
        return len(self.metastore.pages_of_file(file_id))

    # ------------------------------------------------------------------ writes

    def put_page(
        self,
        page_id: PageId,
        data: bytes,
        *,
        scope: CacheScope | None = None,
        ttl: float | None = None,
        pre_admitted: bool = False,
    ) -> bool:
        """Insert one page; returns True if the page is resident afterwards.

        The admission pipeline: admission policy (unless ``pre_admitted``),
        allocator, quota verification + quota eviction, capacity eviction,
        then the page-store write (with the ENOSPC early-eviction retry of
        Section 8).
        """
        scope = scope if scope is not None else CacheScope.global_scope()
        now = self.clock.now()
        if not pre_admitted and not self.admission.admit(page_id.file_id, scope, now):
            self.metrics.counter("put_rejected_admission").inc()
            return False
        with self._meta_lock:
            outcome = self._admit(page_id, data, scope, ttl, now)
        if outcome.admitted:
            self.metrics.counter("puts").inc()
        return outcome.admitted

    def _admit(
        self,
        page_id: PageId,
        data: bytes,
        scope: CacheScope,
        ttl: float | None,
        now: float,
    ) -> _PutOutcome:
        size = len(data)
        if size > self.config.page_size:
            raise ValueError(
                f"payload of {size} bytes exceeds page size {self.config.page_size}"
            )
        if page_id in self.metastore:
            return _PutOutcome(admitted=True, reason="already-cached")
        if size == 0:
            return _PutOutcome(admitted=False, reason="empty")

        # Quota verification, finest level first (Section 5.2).
        if not self.quota.fits_eventually(scope, size):
            self.metrics.counter("put_rejected_quota").inc()
            return _PutOutcome(admitted=False, reason="quota-impossible")
        for violation in self.quota.check(scope, size, self.metastore):
            for victim in self.quota.plan_eviction(violation, self.metastore, self.rng):
                self._evict(victim.page_id)
        if self.quota.check(scope, size, self.metastore):
            self.metrics.counter("put_rejected_quota").inc()
            return _PutOutcome(admitted=False, reason="quota")

        directory = self._ensure_space(page_id.file_id, size)
        if directory is None:
            self.metrics.counter("put_rejected_space").inc()
            return _PutOutcome(admitted=False, reason="space")

        ttl = ttl if ttl is not None else self.config.default_ttl
        info = PageInfo(
            page_id=page_id,
            size=size,
            scope=scope,
            directory=directory,
            created_at=now,
            ttl=ttl,
        )
        try:
            with self._stripe(page_id):
                self.page_store.put(page_id, data, directory)
        except NoSpaceLeftError as exc:
            # Section 8 "insufficient disk capacity": early eviction, retry.
            self.metrics.record_error("put", exc)
            self._early_evict(directory)
            try:
                with self._stripe(page_id):
                    self.page_store.put(page_id, data, directory)
            except NoSpaceLeftError as retry_exc:
                self.metrics.record_error("put", retry_exc)
                self.metrics.counter("put_rejected_space").inc()
                return _PutOutcome(admitted=False, reason="enospc")
        self.metastore.add(info)
        self._policies[directory].on_put(page_id)
        return _PutOutcome(admitted=True)

    def _ensure_space(self, file_id: str, size: int) -> int | None:
        """Allocate a directory, evicting until the page fits."""
        directory = self._allocator.allocate(file_id, size)
        if directory is None:
            return None
        capacity = self.config.directories[directory].capacity_bytes
        guard = len(self.metastore) + 1
        while capacity - self.metastore.bytes_in_dir(directory) < size:
            victim = self._policies[directory].victim()
            if victim is None or guard <= 0:
                return None
            self._evict(victim)
            guard -= 1
        return directory

    def _early_evict(self, directory: int) -> None:
        """Reclaim a batch from ``directory`` before configured capacity."""
        for __ in range(self.config.eviction_batch):
            victim = self._policies[directory].victim()
            if victim is None:
                return
            self._evict(victim)

    def _evict(self, page_id: PageId) -> None:
        if self._delete(page_id):
            self.metrics.counter("evictions").inc()

    # ------------------------------------------------------------------ deletes

    def delete_page(self, page_id: PageId) -> bool:
        """Explicitly remove one page."""
        with self._meta_lock:
            return self._delete(page_id)

    def delete_file(self, file_id: str) -> int:
        """Remove every page of one file; returns pages removed."""
        with self._meta_lock:
            infos = self.metastore.pages_of_file(file_id)
            for info in list(infos):
                self._delete(info.page_id)
            return len(infos)

    def delete_scope(self, scope: CacheScope) -> int:
        """Remove every page under a scope subtree (partition drop,
        Section 4.4); returns pages removed."""
        with self._meta_lock:
            infos = self.metastore.pages_in_scope(scope)
            for info in list(infos):
                self._delete(info.page_id)
            return len(infos)

    def delete_dir(self, directory: int) -> int:
        """Remove every page on one storage directory (faulty device,
        Section 4.4); returns pages removed."""
        with self._meta_lock:
            infos = self.metastore.pages_in_dir(directory)
            for info in list(infos):
                self._delete(info.page_id)
            return len(infos)

    def _delete(self, page_id: PageId) -> bool:
        info = self.metastore.remove(page_id)
        if info is None:
            return False
        self._policies[info.directory].on_delete(page_id)
        self.metrics.counter("evicted_bytes").inc(info.size)
        with self._stripe(page_id):
            self.page_store.delete(page_id, info.directory)
        return True

    def _forget(self, page_id: PageId) -> None:
        """Drop metadata for a page whose payload vanished."""
        with self._meta_lock:
            info = self.metastore.remove(page_id)
            if info is not None:
                self._policies[info.directory].on_delete(page_id)

    # ------------------------------------------------------------------ TTL

    def ttl_sweep(self) -> int:
        """Evict every expired page (the periodic background job of
        Section 4.1); returns pages expired."""
        now = self.clock.now()
        with self._meta_lock:
            expired = self.metastore.expired_pages(now)
            for info in expired:
                if self._delete(info.page_id):
                    self.metrics.counter("ttl_evictions").inc()
            return len(expired)

    # ------------------------------------------------------------------ misc

    def scope_usage(self, scope: CacheScope) -> int:
        """Bytes cached under ``scope``."""
        return self.metastore.bytes_in_scope(scope)

    def dir_usage(self, directory: int) -> int:
        """Bytes cached on one storage directory (per-device reporting)."""
        return self.metastore.bytes_in_dir(directory)
