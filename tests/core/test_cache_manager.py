"""Tests for the local cache manager: the full Figure-3 workflow."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    AdmitNone,
    CacheConfig,
    CacheDirectory,
    CacheScope,
    LocalCacheManager,
    PageId,
    QuotaManager,
)
from repro.core.admission import (
    AdmitAll,
    BucketTimeRateLimit,
    CacheFilter,
    FilterAdmissionPolicy,
    ShadowCache,
)
from repro.core.pagestore import FaultPlan, MemoryPageStore, SimulatedSsdPageStore
from repro.service.sim_transport import KernelScheduler
from repro.ports.clock import SimClock
from repro.sim.kernel import Kernel
from repro.storage.device import DeviceProfile, StorageDevice
from repro.storage.remote import SyntheticDataSource

PAGE = 64
FILE = "warehouse/sales/orders/part-0"
SCOPE = CacheScope.for_partition("warehouse", "orders", "ds=1")


def make_source(length=PAGE * 16, file_id=FILE):
    source = SyntheticDataSource(base_latency=0.01, bandwidth=1e9)
    source.add_file(file_id, length)
    return source


def make_cache(capacity=PAGE * 8, **kwargs):
    config = kwargs.pop("config", None) or CacheConfig.small(capacity, page_size=PAGE)
    return LocalCacheManager(config, **kwargs)


class TestReadThrough:
    def test_cold_then_warm(self):
        cache, source = make_cache(), make_source()
        cold = cache.read(FILE, 0, 10, source)
        assert cold.page_misses == 1 and cold.page_hits == 0
        assert len(cold.data) == 10
        warm = cache.read(FILE, 0, 10, source)
        assert warm.fully_cached and warm.page_hits == 1
        assert warm.data == cold.data

    def test_data_matches_source_exactly(self):
        cache, source = make_cache(), make_source()
        direct = source.read(FILE, 37, 200).data
        via_cache = cache.read(FILE, 37, 200, source).data
        assert via_cache == direct

    def test_read_spanning_pages(self):
        cache, source = make_cache(), make_source()
        result = cache.read(FILE, PAGE - 5, 10, source)
        assert result.page_misses == 2
        assert len(result.data) == 10

    def test_partial_page_hit_mix(self):
        cache, source = make_cache(), make_source()
        cache.read(FILE, 0, PAGE, source)  # cache page 0
        result = cache.read(FILE, 0, PAGE * 2, source)  # page 0 hit, page 1 miss
        assert result.page_hits == 1 and result.page_misses == 1

    def test_miss_caches_whole_page(self):
        cache, source = make_cache(), make_source()
        cache.read(FILE, 10, 4, source)
        assert cache.contains(PageId(FILE, 0))
        assert cache.bytes_used == PAGE

    def test_read_past_eof_truncated(self):
        cache, source = make_cache(), make_source(length=100)
        result = cache.read(FILE, 90, 50, source)
        assert len(result.data) == 10
        beyond = cache.read(FILE, 200, 10, source)
        assert beyond.data == b""

    def test_last_short_page(self):
        cache, source = make_cache(), make_source(length=PAGE + 10)
        cache.read(FILE, PAGE, 10, source)
        assert cache.bytes_used == 10  # only the short tail page

    def test_remote_latency_charged_on_miss(self):
        cache, source = make_cache(), make_source()
        cold = cache.read(FILE, 0, 10, source)
        assert cold.latency >= 0.01  # at least the source base latency
        assert cold.bytes_from_remote == PAGE

    def test_metrics_accumulate(self):
        cache, source = make_cache(), make_source()
        cache.read(FILE, 0, 10, source)
        cache.read(FILE, 0, 10, source)
        counters = cache.metrics.counters()
        assert counters["get_hits"] == 1
        assert counters["get_misses"] == 1
        assert counters["bytes_read_cache"] == 10
        assert counters["bytes_read_remote"] == PAGE


class TestPrefetch:
    def test_prefetch_loads_whole_file(self):
        cache, source = make_cache(), make_source(length=PAGE * 4)
        resident = cache.prefetch_file(FILE, source, scope=SCOPE)
        assert resident == 4
        result = cache.read(FILE, 0, PAGE * 4, source)
        assert result.fully_cached

    def test_prefetch_respects_capacity(self):
        cache, source = make_cache(capacity=PAGE * 2), make_source(length=PAGE * 4)
        resident = cache.prefetch_file(FILE, source)
        assert resident <= 2

    def test_prefetch_empty_file(self):
        cache = make_cache()
        source = make_source(length=0, file_id="empty")
        assert cache.prefetch_file("empty", source) == 0


class TestAdmission:
    def test_admit_none_bypasses_cache(self):
        cache = make_cache(admission=AdmitNone())
        source = make_source()
        result = cache.read(FILE, 0, 10, source)
        assert result.bytes_from_remote == 10  # exact range, not whole page
        assert cache.page_count == 0
        again = cache.read(FILE, 0, 10, source)
        assert again.bytes_from_remote == 10

    def test_rate_limited_admission_warms_up(self):
        clock = SimClock()
        cache = make_cache(
            admission=BucketTimeRateLimit(threshold=3, window_buckets=10),
            clock=clock,
        )
        source = make_source()
        for __ in range(2):
            cache.read(FILE, 0, 10, source)
            clock.advance(1.0)
        assert cache.page_count == 0  # below threshold: never cached
        cache.read(FILE, 0, 10, source)  # third access crosses threshold
        assert cache.page_count == 1

    def test_put_page_respects_admission(self):
        cache = make_cache(admission=AdmitNone())
        assert not cache.put_page(PageId(FILE, 0), b"x" * 10)
        assert cache.put_page(PageId(FILE, 0), b"x" * 10, pre_admitted=True)

    def test_a_resident_page_is_read_after_the_window_rolls_over(self):
        """Admission decides what is cached, not what is read: at t = 120 s
        the limiter's window has forgotten page 0, which is still a hit."""
        mib = 1024 * 1024
        clock = SimClock()
        cache = LocalCacheManager(
            CacheConfig.small(8 * mib, page_size=mib), clock=clock,
            admission=BucketTimeRateLimit(threshold=2, window_buckets=1),
        )
        source = make_source(length=4 * mib)
        hits = []
        for now in (0.0, 1.0, 120.0, 121.0):
            clock.advance_to(now)
            hits.append(cache.read(FILE, 0, mib, source).page_hits)
        assert hits == [0, 0, 1, 1]

    def test_a_declined_read_serves_its_resident_pages(self):
        clock = SimClock()
        cache = make_cache(
            admission=BucketTimeRateLimit(threshold=2, window_buckets=1), clock=clock
        )
        source = make_source()
        cache.read(FILE, 0, 10, source)  # declined: first access
        cache.read(FILE, 2 * PAGE, 10, source)  # admitted: page 2 is cached
        clock.advance_to(120.0)
        expected = source.read(FILE, 5, 5 * PAGE).data
        requests = source.request_count
        result = cache.read(FILE, 5, 5 * PAGE, source)  # declined again
        assert result.data == expected
        assert (result.page_hits, result.page_misses) == (1, 5)
        assert result.bytes_from_remote == 4 * PAGE
        assert source.request_count - requests == 2  # one per run of misses
        assert cache.page_count == 1

    def test_a_retired_partition_keeps_serving_its_pages(self):
        """``maxCachedPartitions`` retires a partition from the filter's set;
        its resident pages still serve, a hit does not refresh it, and its
        next fetch re-admits it."""
        cache_filter = CacheFilter.from_json(
            [{"table": "warehouse.orders", "maxCachedPartitions": 1}]
        )
        cache = make_cache(admission=FilterAdmissionPolicy(cache_filter))
        source = make_source()
        source.add_file("other", PAGE)
        cache.read(FILE, 0, PAGE, source, scope=SCOPE)
        newer = CacheScope.for_partition("warehouse", "orders", "ds=2")
        cache.read("other", 0, PAGE, source, scope=newer)
        assert cache_filter.admitted_partitions("warehouse.orders") == ["ds=2"]
        assert cache.read(FILE, 0, PAGE, source, scope=SCOPE).page_hits == 1
        assert cache_filter.admitted_partitions("warehouse.orders") == ["ds=2"]
        assert cache.read(FILE, PAGE, PAGE, source, scope=SCOPE).page_misses == 1
        assert cache.contains(PageId(FILE, 1))
        assert cache_filter.admitted_partitions("warehouse.orders") == ["ds=1"]


class TestEviction:
    def test_lru_eviction_under_pressure(self):
        cache, source = make_cache(capacity=PAGE * 2), make_source()
        for index in range(3):
            cache.read(FILE, index * PAGE, PAGE, source)
        assert cache.page_count == 2
        assert not cache.contains(PageId(FILE, 0))  # LRU victim
        assert cache.metrics.counters()["evictions"] == 1

    def test_hot_page_survives(self):
        cache, source = make_cache(capacity=PAGE * 2), make_source()
        cache.read(FILE, 0, PAGE, source)
        cache.read(FILE, PAGE, PAGE, source)
        cache.read(FILE, 0, PAGE, source)  # touch page 0
        cache.read(FILE, 2 * PAGE, PAGE, source)  # evicts page 1
        assert cache.contains(PageId(FILE, 0))
        assert not cache.contains(PageId(FILE, 1))

    def test_page_larger_than_every_directory_rejected(self):
        config = CacheConfig(
            page_size=PAGE, directories=[CacheDirectory("/d", PAGE // 2)]
        )
        cache = LocalCacheManager(config)
        assert not cache.put_page(PageId(FILE, 0), b"x" * PAGE)
        assert cache.metrics.counters()["put_rejected_space"] == 1

    def test_oversized_payload_raises(self):
        cache = make_cache()
        with pytest.raises(ValueError):
            cache.put_page(PageId(FILE, 0), b"x" * (PAGE + 1))

    def test_empty_payload_not_cached(self):
        cache = make_cache()
        assert not cache.put_page(PageId(FILE, 0), b"")


class TestQuota:
    def test_quota_eviction_within_partition(self):
        quota = QuotaManager({str(SCOPE): PAGE * 2})
        cache, source = make_cache(capacity=PAGE * 8, quota=quota), make_source()
        for index in range(3):
            cache.read(FILE, index * PAGE, PAGE, source, scope=SCOPE)
        assert cache.scope_usage(SCOPE) <= PAGE * 2
        assert cache.page_count == 2

    def test_quota_impossible_rejected(self):
        quota = QuotaManager({str(SCOPE): PAGE // 2})
        cache = make_cache(quota=quota)
        assert not cache.put_page(PageId(FILE, 0), b"x" * PAGE, scope=SCOPE)
        assert cache.metrics.counters()["put_rejected_quota"] == 1

    def test_table_quota_shared_across_partitions(self):
        table = CacheScope.for_table("warehouse", "orders")
        quota = QuotaManager({str(table): PAGE * 3})
        cache = make_cache(capacity=PAGE * 8, quota=quota)
        part1, part2 = table.child("ds=1"), table.child("ds=2")
        source = make_source()
        for index in range(2):
            cache.read(FILE, index * PAGE, PAGE, source, scope=part1)
        cache.read(FILE, 2 * PAGE, PAGE, source, scope=part2)
        cache.read(FILE, 3 * PAGE, PAGE, source, scope=part2)
        assert cache.scope_usage(table) <= PAGE * 3


class TestDeletes:
    def test_delete_page(self):
        cache, source = make_cache(), make_source()
        cache.read(FILE, 0, 10, source)
        assert cache.delete_page(PageId(FILE, 0))
        assert not cache.delete_page(PageId(FILE, 0))
        assert cache.page_count == 0

    def test_delete_file(self):
        cache, source = make_cache(), make_source()
        cache.read(FILE, 0, PAGE * 3, source)
        other = "other-file"
        source.add_file(other, PAGE)
        cache.read(other, 0, 10, source)
        assert cache.delete_file(FILE) == 3
        assert cache.page_count == 1

    def test_delete_scope(self):
        cache, source = make_cache(), make_source()
        cache.read(FILE, 0, PAGE, source, scope=SCOPE)
        other_scope = CacheScope.for_partition("warehouse", "orders", "ds=2")
        cache.read(FILE, PAGE, PAGE, source, scope=other_scope)
        table = CacheScope.for_table("warehouse", "orders")
        assert cache.delete_scope(SCOPE) == 1
        assert cache.scope_usage(table) == PAGE

    def test_delete_dir(self):
        cache, source = make_cache(), make_source()
        cache.read(FILE, 0, PAGE * 2, source)
        assert cache.delete_dir(0) == 2
        assert cache.bytes_used == 0


class TestTtl:
    def test_ttl_sweep_evicts_expired(self):
        clock = SimClock()
        config = CacheConfig.small(PAGE * 8, page_size=PAGE)
        config.default_ttl = 100.0
        cache = make_cache(config=config, clock=clock)
        source = make_source()
        cache.read(FILE, 0, PAGE, source)
        clock.advance(50.0)
        assert cache.ttl_sweep() == 0
        clock.advance(60.0)
        assert cache.ttl_sweep() == 1
        assert cache.page_count == 0
        assert cache.metrics.counters()["ttl_evictions"] == 1

    def test_per_page_ttl_overrides_default(self):
        clock = SimClock()
        cache = make_cache(clock=clock)
        cache.put_page(PageId(FILE, 0), b"x" * 10, ttl=10.0)
        cache.put_page(PageId(FILE, 1), b"x" * 10)
        clock.advance(20.0)
        assert cache.ttl_sweep() == 1
        assert cache.contains(PageId(FILE, 1))

    def test_periodic_sweep_on_event_loop(self):
        loop = Kernel()
        config = CacheConfig.small(PAGE * 8, page_size=PAGE)
        config.default_ttl = 100.0
        config.ttl_check_interval = 60.0
        cache = LocalCacheManager(
            config, clock=loop.clock, event_loop=KernelScheduler(loop)
        )
        cache.put_page(PageId(FILE, 0), b"x" * 10)
        loop.run_until(90.0)
        assert cache.page_count == 1
        loop.run_until(130.0)  # sweep at t=120 > expiry at t=100
        assert cache.page_count == 0


class TestFailureHandling:
    """The Section 8 failure case studies."""

    def _sim_cache(self, **fault_kwargs):
        clock = SimClock()
        device = StorageDevice(DeviceProfile.ssd_local(), clock)
        store = SimulatedSsdPageStore(device, FaultPlan(**fault_kwargs))
        cache = make_cache(clock=clock, page_store=store)
        return cache, store

    def test_corrupted_page_early_evicted_and_remote_fallback(self):
        cache, store = self._sim_cache()
        source = make_source()
        direct = cache.read(FILE, 0, 10, source).data
        store.corrupt(PageId(FILE, 0))
        result = cache.read(FILE, 0, 10, source)
        assert result.data == direct  # served via remote fallback
        assert result.fallbacks == 1
        assert cache.metrics.counters()["corruption_evictions"] == 1
        # next read re-caches cleanly
        again = cache.read(FILE, 0, 10, source)
        assert again.data == direct

    def test_read_hang_falls_back_but_keeps_entry(self):
        cache, store = self._sim_cache()
        source = make_source()
        cache.read(FILE, 0, 10, source)
        store.faults.hang_reads_seconds = 600.0  # the 10-minute hang
        result = cache.read(FILE, 0, 10, source)
        assert result.fallbacks == 1
        assert cache.metrics.counters()["timeout_fallbacks"] == 1
        assert cache.contains(PageId(FILE, 0))  # entry not deleted
        store.faults.hang_reads_seconds = None
        healthy = cache.read(FILE, 0, 10, source)
        assert healthy.page_hits == 1

    def test_enospc_triggers_early_eviction_then_retry(self):
        """Device fills below configured capacity; cache early-evicts."""
        cache, store = self._sim_cache(physical_full_after_bytes=PAGE * 2)
        source = make_source()
        cache.read(FILE, 0, PAGE, source)
        cache.read(FILE, PAGE, PAGE, source)
        # configured capacity is 8 pages but the device holds only 2:
        result = cache.read(FILE, 2 * PAGE, PAGE, source)
        assert len(result.data) == PAGE
        assert cache.contains(PageId(FILE, 2))  # retried put succeeded
        assert "NoSpaceLeftError" in cache.metrics.error_breakdown()["put"]

    def test_lost_payload_repairs_metadata(self):
        cache = make_cache(page_store=MemoryPageStore())
        source = make_source()
        cache.read(FILE, 0, 10, source)
        # simulate payload vanishing underneath the metadata
        cache.page_store.delete(PageId(FILE, 0), 0)
        result = cache.read(FILE, 0, 10, source)
        assert len(result.data) == 10
        assert cache.contains(PageId(FILE, 0))  # re-cached


@settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow])
@given(
    reads=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),  # file
            st.integers(min_value=0, max_value=PAGE * 8 - 1),  # offset
            st.integers(min_value=1, max_value=PAGE * 3),  # length
        ),
        min_size=1,
        max_size=40,
    )
)
def test_reads_always_match_source_bytes(reads):
    """Property: whatever mix of hits, misses, and evictions occurs, the
    cache returns exactly the bytes the source holds."""
    cache = make_cache(capacity=PAGE * 4)
    source = SyntheticDataSource(base_latency=0.0, bandwidth=1e9)
    for n in range(4):
        source.add_file(f"file{n}", PAGE * 8)
    for file_n, offset, length in reads:
        file_id = f"file{file_n}"
        expected = source.read(file_id, offset, length).data
        actual = cache.read(file_id, offset, length, source).data
        assert actual == expected
        assert cache.bytes_used <= PAGE * 4


@settings(max_examples=20, suppress_health_check=[HealthCheck.too_slow])
@given(
    reads=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),
            st.integers(min_value=0, max_value=7),
        ),
        min_size=1,
        max_size=60,
    )
)
def test_capacity_never_exceeded(reads):
    """Property: resident bytes never exceed configured capacity."""
    cache = make_cache(capacity=PAGE * 3)
    source = SyntheticDataSource(base_latency=0.0, bandwidth=1e9)
    for n in range(6):
        source.add_file(f"file{n}", PAGE * 8)
    for file_n, page_n in reads:
        cache.read(f"file{file_n}", page_n * PAGE, PAGE, source)
        assert cache.bytes_used <= PAGE * 3
        # metastore and page store agree
        assert cache.bytes_used == cache.page_store.bytes_used(0)


class SpyPolicy:
    """Wraps an admission policy and remembers each answer it gave."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.answers: list[bool] = []

    def admit(self, file_id, scope, now):
        answer = self.inner.admit(file_id, scope, now)
        self.answers.append(answer)
        return answer


ADMISSION_POLICIES = {
    "admit_all": AdmitAll,
    "admit_none": AdmitNone,
    "rate_limit": lambda: BucketTimeRateLimit(
        threshold=2, window_buckets=2, bucket_seconds=1.0
    ),
    "shadow": lambda: ShadowCache(window_buckets=2, bucket_seconds=1.0),
    "partition_cap": lambda: FilterAdmissionPolicy.from_json(
        [{"table": "wh.t", "maxCachedPartitions": 1}]
    ),
}


@pytest.mark.parametrize(
    "make_policy", list(ADMISSION_POLICIES.values()), ids=list(ADMISSION_POLICIES)
)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    reads=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),  # file
            st.integers(min_value=0, max_value=PAGE * 5),  # offset
            st.integers(min_value=1, max_value=PAGE * 4),  # length
            st.sampled_from([0.0, 0.5, 2.0]),  # time since the last read
        ),
        min_size=1,
        max_size=40,
    )
)
def test_admission_is_asked_once_and_only_to_fetch(make_policy, reads):
    """Property: a fully resident read never asks admission; any read asks
    at most once; a declined read returns the source's bytes, books its
    resident pages as hits and puts nothing."""
    spy = SpyPolicy(make_policy())
    clock = SimClock()
    cache = make_cache(capacity=PAGE * 6, admission=spy, clock=clock)
    source = SyntheticDataSource(base_latency=0.0, bandwidth=1e9)
    for n in range(4):
        source.add_file(f"file{n}", PAGE * 5 + 7 * n)
    for file_n, offset, length, elapsed in reads:
        clock.advance(elapsed)
        file_id = f"file{file_n}"
        end = min(offset + length, source.file_length(file_id))
        pages = range(offset // PAGE, (end - 1) // PAGE + 1) if offset < end else ()
        resident = sum(cache.contains(PageId(file_id, i)) for i in pages)
        expected = source.read(file_id, offset, length).data
        asked, count = len(spy.answers), cache.page_count
        puts = cache.metrics.counters()["puts"]
        result = cache.read(
            file_id, offset, length, source,
            scope=CacheScope.for_partition("wh", "t", f"p{file_n % 2}"),
        )
        answers = spy.answers[asked:]
        assert result.data == expected
        if resident == len(pages):
            assert answers == []
            assert (result.page_hits, result.page_misses) == (len(pages), 0)
        elif answers == [False]:
            assert (result.page_hits, result.page_misses) == (
                resident, len(pages) - resident
            )
            assert cache.metrics.counters()["puts"] == puts
            assert cache.page_count == count
        else:
            assert answers == [True]
