"""Sustained-failure scenarios (Section 8's failure case studies).

The explicit single-fault paths are covered in ``test_cache_manager.py``;
here we verify the system's behaviour under *sustained* probabilistic
faults: corruption bursts, flapping write failures, and the combination --
correct bytes always, graceful hit-ratio degradation, early eviction
engaged, and error metrics that identify the root cause.
"""

import pytest

from repro.core import CacheConfig, LocalCacheManager, PageId
from repro.core.pagestore import FaultPlan, SimulatedSsdPageStore
from repro.ports.clock import SimClock
from repro.sim.kernel import Kernel, collecting_io, replay_plan
from repro.ports.rng import RngStream
from repro.storage.device import DeviceProfile, StorageDevice
from repro.storage.remote import SyntheticDataSource

KIB = 1024
PAGE = 16 * KIB


def make_faulty_cache(**fault_kwargs):
    clock = SimClock()
    device = StorageDevice(DeviceProfile.ssd_local(), clock)
    store = SimulatedSsdPageStore(
        device, FaultPlan(rng=RngStream(3, "faults"), **fault_kwargs)
    )
    cache = LocalCacheManager(
        CacheConfig.small(64 * PAGE, page_size=PAGE),
        clock=clock, page_store=store,
    )
    source = SyntheticDataSource(base_latency=0.001, bandwidth=1e9)
    for n in range(8):
        source.add_file(f"file-{n}", 16 * PAGE)
    return cache, store, source


class TestFaultPlanValidation:
    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            FaultPlan(read_corruption_probability=1.5, rng=RngStream(0, "x"))
        with pytest.raises(ValueError):
            FaultPlan(write_failure_probability=-0.1, rng=RngStream(0, "x"))

    def test_probability_requires_rng(self):
        with pytest.raises(ValueError):
            FaultPlan(read_corruption_probability=0.1)


class TestSustainedCorruption:
    def test_bytes_always_correct_under_corruption(self):
        cache, store, source = make_faulty_cache(
            read_corruption_probability=0.2
        )
        for i in range(300):
            file_id = f"file-{i % 8}"
            offset = (i * 3571) % (15 * PAGE)
            expected = source.read(file_id, offset, 256).data
            assert cache.read(file_id, offset, 256, source).data == expected

    def test_corruption_degrades_hit_ratio_but_not_availability(self):
        healthy, __, source = make_faulty_cache()
        corrupt, __, source2 = make_faulty_cache(read_corruption_probability=0.3)
        for i in range(400):
            file_id = f"file-{i % 4}"
            offset = (i % 16) * PAGE
            healthy.read(file_id, offset, 128, source)
            corrupt.read(file_id, offset, 128, source2)
        assert corrupt.metrics.hit_ratio < healthy.metrics.hit_ratio
        assert corrupt.metrics.counters()["corruption_evictions"] > 0
        # the error breakdown names the root cause (the Section 7 lesson)
        assert "PageCorruptedError" in corrupt.metrics.error_breakdown()["get"]

    def test_corrupted_entries_early_evicted_and_replaced(self):
        cache, store, source = make_faulty_cache()
        cache.read("file-0", 0, PAGE, source)
        store.corrupt(PageId("file-0", 0))
        cache.read("file-0", 0, PAGE, source)  # fallback + early eviction
        # the replacement copy is clean and serves hits again
        result = cache.read("file-0", 0, PAGE, source)
        assert result.page_hits == 1


class TestSustainedWriteFailures:
    def test_write_failures_keep_reads_correct(self):
        """The paper's incident: the cache cannot write new data; queries
        must keep succeeding off the non-cache path."""
        cache, __, source = make_faulty_cache(write_failure_probability=0.5)
        for i in range(300):
            file_id = f"file-{i % 8}"
            offset = (i * 2887) % (15 * PAGE)
            expected = source.read(file_id, offset, 200).data
            assert cache.read(file_id, offset, 200, source).data == expected
        # failures were recorded per operation and type
        breakdown = cache.metrics.error_breakdown()
        assert breakdown["put"]["NoSpaceLeftError"] > 0

    def test_total_write_failure_becomes_pass_through(self):
        cache, __, source = make_faulty_cache(write_failure_probability=1.0)
        for i in range(50):
            cache.read("file-0", (i % 16) * PAGE, 128, source)
        assert cache.page_count == 0  # nothing ever sticks
        assert cache.metrics.hit_ratio == 0.0
        # but every read succeeded via the remote path
        assert cache.metrics.counters()["bytes_read_remote"] > 0

    def test_flapping_writes_recover(self):
        cache, store, source = make_faulty_cache(write_failure_probability=1.0)
        for i in range(20):
            cache.read("file-0", (i % 8) * PAGE, 128, source)
        store.faults.write_failure_probability = 0.0  # device healed
        cache.read("file-0", 0, PAGE, source)
        warm = cache.read("file-0", 0, PAGE, source)
        assert warm.page_hits == 1


class TestCombinedFaults:
    def test_everything_at_once(self):
        cache, __, source = make_faulty_cache(
            read_corruption_probability=0.1,
            write_failure_probability=0.1,
        )
        for i in range(400):
            file_id = f"file-{i % 8}"
            offset = (i * 1231) % (15 * PAGE)
            expected = source.read(file_id, offset, 100).data
            assert cache.read(file_id, offset, 100, source).data == expected
        assert cache.bytes_used <= cache.capacity_bytes
        assert cache.bytes_used == cache.page_store.bytes_used(0)


class TestKernelReadHang:
    """Section 8's "file read hanging" under the kernel engine: the owning
    process lives what the cache decided at the arrival instant."""

    PAGE = 4 * KIB
    TIMEOUT = 10.0

    def replay_hung_hit(self, hang: float):
        clock = SimClock()
        kernel = Kernel(clock)
        device = StorageDevice(DeviceProfile.ssd_local(), clock).attach_kernel(kernel)
        store = SimulatedSsdPageStore(device)
        cache = LocalCacheManager(
            CacheConfig.small(16 * self.PAGE, page_size=self.PAGE),
            clock=clock, page_store=store,
        )
        assert cache.config.read_timeout == self.TIMEOUT  # the default budget
        source = SyntheticDataSource(base_latency=0.01)
        source.add_file("f", 8 * self.PAGE)
        cache.read("f", 0, self.PAGE, source)  # resident now
        store.faults.hang_reads_seconds = hang
        replayed = []

        def process():
            plan = []
            with collecting_io(plan):
                result = cache.read("f", 0, self.PAGE, source)
            replayed.append((result, (yield from replay_plan(plan))))

        kernel.spawn(process())
        kernel.run()
        [(result, elapsed)] = replayed
        assert clock.now() == elapsed
        return cache, device, source, result, elapsed

    def test_timed_out_read_waits_out_the_budget_not_the_hang(self):
        cache, device, source, result, elapsed = self.replay_hung_hit(600.0)
        remote = source.base_latency + self.PAGE / source.bandwidth
        assert elapsed == self.TIMEOUT + remote  # ~10.01 s, not 600.01 s
        assert result.fallbacks == 1 and result.page_hits == 0
        assert cache.metrics.counters()["timeout_fallbacks"] == 1
        assert cache.contains(PageId("f", 0))  # the data is fine; kept
        assert device.stats.reads == 0  # the stalled transfer was given up

    def test_hang_inside_the_budget_is_lived_in_full(self):
        cache, device, __, result, elapsed = self.replay_hung_hit(5.0)
        ssd = DeviceProfile.ssd_local()
        assert elapsed == ssd.seek_latency + self.PAGE / ssd.read_bandwidth + 5.0
        assert result.page_hits == 1 and result.fallbacks == 0
        assert device.stats.reads == 1
