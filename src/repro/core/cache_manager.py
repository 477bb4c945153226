"""The Alluxio local cache manager (Figure 3) -- the paper's contribution.

:class:`LocalCacheManager` wires the components of Section 4 into the
read/write workflow:

1. **Admission controller** decides whether pages a read must fetch are
   cache-worthy; declined ones take the non-cache path to the source.
2. **Page translation** turns file-level positional reads into page-level
   operations (one step per page, :meth:`LocalCacheManager._walk`).
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
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

from repro.core.admission.base import AdmissionPolicy, AdmitAll
from repro.core.allocator import make_allocator
from repro.core.config import CacheConfig
from repro.core.eviction import make_eviction_policy
from repro.core.metastore import PageMetaStore
from repro.core.metrics import Counter, Histogram, MetricsRegistry
from repro.core.page import PageId, PageInfo
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
    from repro.storage.remote import DataSource


_GLOBAL_SCOPE = CacheScope.global_scope()
_STORE_READ_ERRORS = (CacheReadTimeoutError, PageCorruptedError, PageNotFoundError)


@dataclass(slots=True)
class CacheReadResult:
    """Outcome of :meth:`LocalCacheManager.read`.

    ``chunks`` are the read's bytes in order, as :meth:`LocalCacheManager._walk`
    produced them: one per page fragment, or per run of pages read past the
    cache.  A caller that can send pieces (the service's gather write) uses
    them as they are; ``data`` is their join.  ``latency`` sums modelled
    page-store and remote latencies for the request; simulators advance
    their clock by it.
    """

    chunks: list[bytes] = field(default_factory=list)
    latency: float = 0.0
    page_hits: int = 0
    page_misses: int = 0
    bytes_from_cache: int = 0
    bytes_from_remote: int = 0
    fallbacks: int = 0

    @property
    def data(self) -> bytes:
        """The read's bytes, joined on first access and kept: the chunks
        become that one join.  A one-chunk read's bytes are the store's (or
        the source's) own object, never a copy."""
        chunks = self.chunks
        if len(chunks) != 1:
            self.chunks = chunks = [b"".join(chunks)]
        return chunks[0]

    @property
    def fully_cached(self) -> bool:
        return self.page_misses == 0 and self.fallbacks == 0


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
            (a ``KernelScheduler`` over the sim kernel, or the service
            scheduler); when supplied, a periodic TTL sweep is scheduled
            on it.
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
        # looked up once, not per page: what the store declares, and the
        # well-known counters reads and puts move
        self._store_models_latency = hasattr(self.page_store, "last_op_latency")
        self._serves_resident = getattr(
            type(self.page_store), "nonblocking_reads", False
        )
        counter = self.metrics.counter
        self._hits, self._misses = counter("get_hits"), counter("get_misses")
        self._cache_bytes = counter("bytes_read_cache")
        self._remote_bytes = counter("bytes_read_remote")
        self._puts, self._evictions = counter("puts"), counter("evictions")
        self._evicted_bytes = counter("evicted_bytes")
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

    @cached_property
    def _read_latency(self) -> Histogram:
        """Bound on first use: a cache that never read shows no histogram."""
        return self.metrics.histogram("read_latency_seconds")

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
        if offset < 0 or length < 0 or not file_id:
            raise ValueError(f"bad read of {file_id!r}: {offset=} {length=}")
        tracer = current_tracer()
        span = None  # with tracing off no span is opened and no charge made
        if tracer.enabled:
            span = tracer.span(
                "cache_read", actor=self.metrics.name,
                file_id=file_id, offset=offset, length=length,
            )
        try:
            if scope is None:
                scope = _GLOBAL_SCOPE
            result = CacheReadResult()
            file_length = source.file_length(file_id)
            if offset < file_length:
                self._walk(
                    file_id, offset, min(offset + length, file_length),
                    self.clock.now(), result, source, scope, ttl, file_length, span,
                )
            if span is None:
                self._read_latency.observe(result.latency)
            else:
                span.annotate("latency", result.latency)
                span.annotate("page_hits", result.page_hits)
                span.annotate("page_misses", result.page_misses)
                self._read_latency.observe(result.latency, span.span_id)
            return result
        except BaseException as exc:
            if span is not None:  # what `with span:` records
                span.annotate("error", type(exc).__name__)
            raise
        finally:
            if span is not None:
                span.finish()

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

    def _walk(
        self, file_id: str, position: int, end: int, now: float,
        result: CacheReadResult, source: DataSource | None = None,
        scope: CacheScope | None = None, ttl: float | None = None,
        file_length: int = 0, span=None,
    ) -> bool:
        """The per-page step of :meth:`read` and :meth:`read_resident`
        (DESIGN.md §15.1).

        For each page of ``[position, end)``: find its record once, read
        the fragment under the page's stripe, remember the hit.  Hits are
        booked in runs (:meth:`_book_hits`, one ``_meta_lock`` hold each):
        before anything that may evict and when the walk ends, so the
        policy sees accesses in page order.  A page that is not resident,
        or whose store read fails (:meth:`_hit_failed`), is fetched from
        ``source``; the first such page asks admission, once per read.
        Admitted, each is read whole and put; declined, it and the absent
        pages after it are one ranged read of the requested bytes.  Without
        a ``source`` (the resident read) a fetch ends the walk with
        ``False``, nothing booked or counted.

        Each fragment's bytes are appended to ``result.chunks`` as the store
        or the source returned them; nothing here joins them
        (:attr:`CacheReadResult.data` does, for callers that want one
        object).
        """
        page_size = self.config.page_size
        timeout = self.config.read_timeout
        lookup = self.metastore.get
        store_get = self.page_store.get
        stripes = self._stripes
        models_latency = self._store_models_latency
        # PageId(file_id, index) minus its validating frame: offsets are
        # checked >= 0 on entry, and an empty file id matches no record
        new_page_id = tuple.__new__
        chunks = result.chunks
        hits: list[tuple[PageInfo, int]] = []  # read, not yet booked
        admitted = None
        while position < end:
            index = position // page_size
            in_page = position - index * page_size
            take = min(page_size - in_page, end - position)
            page_id = new_page_id(PageId, (file_id, index))
            info = lookup(page_id)
            data = None
            if info is not None:
                if source is None and info.size < page_size:
                    # a short page is the file's last (the read-through
                    # below keeps that so): its size stands in for EOF
                    end = min(end, position - in_page + info.size)
                    take = end - position
                    if take <= 0:
                        return False  # starts at or past end-of-file
                try:
                    with stripes[hash(page_id) % len(stripes)]:
                        data = store_get(
                            page_id, info.directory, in_page, take, timeout=timeout
                        )
                except _STORE_READ_ERRORS as exc:
                    failure = exc  # handled below; `data` stays None
                else:
                    hits.append((info, len(data)))
                    if models_latency:
                        latency = self.page_store.last_op_latency
                        result.latency += latency
                        if span is not None:
                            wait = getattr(self.page_store, "last_op_wait", 0.0)
                            span.charge("queueing", wait)
                            span.charge(self._hit_bucket, latency - wait)
            if data is None:
                if source is None:
                    return False  # `read` repeats it, and does any repair
                if hits:
                    self._book_hits(hits, now, result)
                if info is not None:
                    self._hit_failed(page_id, failure, result, span)
                if admitted is None:  # once per read, at its first fetch
                    admitted = self.admission.admit(file_id, scope, now)
                    if not admitted:
                        self.metrics.counter("put_rejected_admission").inc()
                        if span is not None:
                            span.event("admission_bypass")
                if admitted:
                    # miss: fetch the whole page remotely, try to cache it
                    page_offset = index * page_size
                    data = self._fetch(
                        source, file_id, page_offset,
                        min(page_offset + page_size, file_length), result, span,
                    )
                    self.put_page(
                        page_id, data, scope=scope, ttl=ttl, pre_admitted=True
                    )
                    data = data[in_page : in_page + take]
                else:
                    # the non-cache read path (Figure 3): the requested bytes
                    # of this page and of the absent pages after it, one read
                    stop = position + take
                    while stop < end and lookup(
                        new_page_id(PageId, (file_id, stop // page_size))
                    ) is None:
                        stop = min(stop + page_size, end)
                    take = stop - position
                    data = self._fetch(source, file_id, position, stop, result, span)
            chunks.append(data)
            position += take
        if hits:
            self._book_hits(hits, now, result)
        return True

    def _fetch(
        self, source: DataSource, file_id: str, start: int, stop: int,
        result: CacheReadResult, span,
    ) -> bytes:
        """Read ``[start, stop)`` from ``source``; book its pages as misses."""
        remote = source.read(file_id, start, stop - start)
        if span is not None:
            self._charge_remote(span, source, remote.latency)
        size = self.config.page_size
        pages = (stop - 1) // size - start // size + 1
        result.latency += remote.latency
        result.page_misses += pages
        self._misses.value += pages
        result.bytes_from_remote += len(remote.data)
        self._remote_bytes.value += len(remote.data)
        return remote.data

    def _book_hits(
        self, hits: list[tuple[PageInfo, int]], now: float, result: CacheReadResult
    ) -> None:
        """Apply what a run of hits changes, and empty the run."""
        policies = self._policies
        nbytes = 0
        with self._meta_lock:
            for info, size in hits:
                info.last_access = now  # PageInfo.touch, without the frame
                info.access_count += 1
                policies[info.directory].on_access(info.page_id)
                nbytes += size
        # plain attribute adds: a frame per counter was a fifth of a hit
        self._hits.value += len(hits)
        self._cache_bytes.value += nbytes
        result.page_hits += len(hits)
        result.bytes_from_cache += nbytes
        hits.clear()

    def _hit_failed(
        self, page_id: PageId, exc: Exception, result: CacheReadResult, span
    ) -> None:
        """A resident page's store read raised (Section 8); whichever way,
        the caller goes on to read the page from the remote source."""
        self.metrics.record_error("get", exc)
        if isinstance(exc, PageNotFoundError):
            # Metadata said present but payload is gone (lost device);
            # repair metadata and treat as a miss.
            with self._meta_lock:
                info = self.metastore.remove(page_id)
                if info is not None:
                    self._policies[info.directory].on_delete(page_id)
            return
        # "corrupted files": early-evict the bad entry.  "file read
        # hanging": keep it (the data is fine, the device stalled).
        corrupted = isinstance(exc, PageCorruptedError)
        counter = "corruption_evictions" if corrupted else "timeout_fallbacks"
        self.metrics.counter(counter).inc()
        if span is not None:
            span.event("corruption_fallback" if corrupted else "timeout_fallback")
        if corrupted:
            self.delete_page(page_id)
        result.fallbacks += 1

    def read_resident(
        self, file_id: str, offset: int, length: int
    ) -> CacheReadResult | None:
        """:meth:`read` for callers that must not block (an event loop).

        Answers only when every page of the range is in the metastore *and*
        the page store declares ``nonblocking_reads`` (a class-level fact;
        a store that says nothing is treated as blocking).  It has no path
        to a ``DataSource``: :meth:`_walk` without one takes end-of-file
        from the last page's stored size and changes nothing until every
        page's bytes are in hand.  The only waits are the metadata lock and
        the page stripes, which over such a store guard dict updates.

        On any absence or store error the answer is ``None`` and the caller
        falls back to :meth:`read` with nothing counted twice.  It fetches
        nothing, so it never asks admission.
        """
        if not self._serves_resident:
            return None
        if offset < 0 or length < 0 or not file_id:
            raise ValueError(f"bad read of {file_id!r}: {offset=} {length=}")
        result = CacheReadResult()
        if length == 0 or not self._walk(
            file_id, offset, offset + length, self.clock.now(), result
        ):
            return None
        self._read_latency.observe(result.latency)
        return result

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
        scope = scope if scope is not None else _GLOBAL_SCOPE
        now = self.clock.now()
        if not pre_admitted and not self.admission.admit(page_id.file_id, scope, now):
            self.metrics.counter("put_rejected_admission").inc()
            return False
        size = len(data)
        if size > self.config.page_size:
            raise ValueError(
                f"payload of {size} bytes exceeds page size {self.config.page_size}"
            )
        metastore, quota, rejected = self.metastore, self.quota, self.metrics.counter
        with self._meta_lock:
            if page_id in metastore:
                self._puts.value += 1  # already cached counts as a put
                return True
            if size == 0:
                return False

            # Quota verification, finest level first (Section 5.2).
            if not quota.fits_eventually(scope, size):
                rejected("put_rejected_quota").inc()
                return False
            violations = quota.check(scope, size, metastore)
            if violations:
                for violation in violations:
                    for victim in quota.plan_eviction(violation, metastore, self.rng):
                        self._delete(victim.page_id, self._evictions)
                if quota.check(scope, size, metastore):
                    rejected("put_rejected_quota").inc()
                    return False

            # Allocate a directory, evicting until the page fits.
            directory = self._allocator.allocate(page_id.file_id, size)
            if directory is None:
                rejected("put_rejected_space").inc()
                return False
            policy = self._policies[directory]
            capacity = self.config.directories[directory].capacity_bytes
            guard = len(metastore) + 1
            while capacity - metastore.bytes_in_dir(directory) < size:
                victim = policy.victim()
                if victim is None or guard <= 0:
                    rejected("put_rejected_space").inc()
                    return False
                self._delete(victim, self._evictions)
                guard -= 1

            info = PageInfo(
                page_id, size, scope, directory, now, now, 0,
                ttl if ttl is not None else self.config.default_ttl,
            )
            stripe = self._stripes[hash(page_id) % len(self._stripes)]
            for retried in (False, True):
                try:
                    with stripe:
                        self.page_store.put(page_id, data, directory)
                    break
                except NoSpaceLeftError as exc:
                    # Section 8 "insufficient disk capacity": reclaim a batch
                    # before configured capacity, retry once.
                    self.metrics.record_error("put", exc)
                    if retried:
                        rejected("put_rejected_space").inc()
                        return False
                    for __ in range(self.config.eviction_batch):
                        victim = policy.victim()
                        if victim is None:
                            break
                        self._delete(victim, self._evictions)
            metastore.add(info)
            policy.on_put(page_id)
            self._puts.value += 1
            return True

    # ------------------------------------------------------------------ deletes

    def delete_page(self, page_id: PageId) -> bool:
        """Explicitly remove one page."""
        with self._meta_lock:
            return self._delete(page_id)

    def delete_file(self, file_id: str) -> int:
        """Remove every page of one file; returns pages removed."""
        with self._meta_lock:
            return self._delete_all(self.metastore.pages_of_file(file_id))

    def delete_scope(self, scope: CacheScope) -> int:
        """Remove every page under a scope subtree (partition drop,
        Section 4.4); returns pages removed."""
        with self._meta_lock:
            return self._delete_all(self.metastore.pages_in_scope(scope))

    def delete_dir(self, directory: int) -> int:
        """Remove every page on one storage directory (faulty device,
        Section 4.4); returns pages removed."""
        with self._meta_lock:
            return self._delete_all(self.metastore.pages_in_dir(directory))

    def _delete_all(self, infos: list[PageInfo]) -> int:
        for info in infos:
            self._delete(info.page_id)
        return len(infos)

    def _delete(self, page_id: PageId, counter: Counter | None = None) -> bool:
        """Drop one page everywhere; ``counter`` moves only if it was there."""
        info = self.metastore.remove(page_id)
        if info is None:
            return False
        self._policies[info.directory].on_delete(page_id)
        self._evicted_bytes.value += info.size
        with self._stripes[hash(page_id) % len(self._stripes)]:
            self.page_store.delete(page_id, info.directory)
        if counter is not None:
            counter.value += 1
        return True

    # ------------------------------------------------------------------ TTL

    def ttl_sweep(self) -> int:
        """Evict every expired page (the periodic background job of
        Section 4.1); returns pages expired."""
        now = self.clock.now()
        with self._meta_lock:
            expired = self.metastore.expired_pages(now)
            for info in expired:
                self._delete(info.page_id, self.metrics.counter("ttl_evictions"))
            return len(expired)

    # ------------------------------------------------------------------ misc

    def scope_usage(self, scope: CacheScope) -> int:
        """Bytes cached under ``scope``."""
        return self.metastore.bytes_in_scope(scope)

    def dir_usage(self, directory: int) -> int:
        """Bytes cached on one storage directory (per-device reporting)."""
        return self.metastore.bytes_in_dir(directory)
