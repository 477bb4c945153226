"""Budgets of the simulated read path (DESIGN.md §16), asserted without a clock.

Every paper figure runs a worker's cache on the event kernel: the operator's
ranged read is *collected* (``collecting_io``: the cache decides, the SSD
device and the remote source append replay operations to a plan) and then
*replayed* by the owning process.  Nothing reads the bytes a simulated
source hands out, so what the path may cost is what the model needs:

- **memory** -- ``tracemalloc`` counts what misses leave behind once they
  are cached.  Each miss used to fabricate a fresh zero-filled page, which
  the simulated SSD then kept: 64 one-MiB misses retained 64 MiB.  Now
  every payload of one size is one shared immutable ``bytes``; what is left
  is per-page metadata, flat in the miss count.
- **frames** -- ``sys.setprofile`` ``call`` events (the shape of
  ``tests/core/test_call_budget.py``) from entering ``collecting_io`` to
  the end of the replay, kernel steps included.  The commit before the
  simulated-read fast path made 65 calls per simulated-SSD hit and 95 per
  one-MiB miss.
"""

import sys
import tracemalloc

from repro.core.config import MIB, CacheConfig, CacheDirectory
from repro.core.metrics import MetricsRegistry
from repro.core.page import installed_time_source
from repro.service.sim_transport import build_sim_cache
from repro.ports.clock import SimClock
from repro.sim.kernel import Kernel, collecting_io, replay_plan
from repro.storage.device import DeviceProfile, StorageDevice
from repro.storage.remote import NullDataSource

PAGE = MIB
FILE_PAGES = 4096
CHUNK = 128 * 1024  # a column chunk, as the scan operator reads it


class KernelCache:
    """One Presto worker's cache as ``PrestoCluster`` builds it: an SSD
    device with live gauges, attached to a kernel, over a zero source."""

    def __init__(self, capacity_pages: int) -> None:
        self.clock = SimClock()
        self.kernel = Kernel(self.clock)
        metrics = MetricsRegistry("budget")
        device = StorageDevice(
            DeviceProfile.ssd_local(), self.clock, keep_records=False,
            service_bucket="cache_ssd", metrics=metrics,
        ).attach_kernel(self.kernel)
        self.cache = build_sim_cache(
            CacheConfig(
                page_size=PAGE,
                directories=[CacheDirectory("/budget/ssd0", capacity_pages * PAGE)],
            ),
            clock=self.clock, device=device, metrics=metrics,
        )
        self.source = NullDataSource()
        self.source.add_file("f", FILE_PAGES * PAGE)

    def run(self, reads, *, profile=None) -> float:
        """Collect and replay each ``(offset, length)`` read in one kernel
        process; ``profile`` is installed around the last one.  Returns the
        virtual seconds the replays took."""
        elapsed = []

        def process():
            for number, (offset, length) in enumerate(reads):
                last = number == len(reads) - 1
                if last and profile is not None:
                    sys.setprofile(profile)
                try:
                    plan = []
                    with collecting_io(plan):
                        self.cache.read("f", offset, length, self.source)
                    elapsed.append((yield from replay_plan(plan)))
                finally:
                    if last and profile is not None:
                        sys.setprofile(None)

        with installed_time_source(self.clock.now):
            self.kernel.spawn(process())
            self.kernel.run()
        return sum(elapsed)


def calls_in_last_read(sim: KernelCache, reads) -> int:
    count = 0

    def on_event(frame, event, arg):
        nonlocal count
        if event == "call":
            count += 1

    sim.run(reads, profile=on_event)
    return count


def retained_after_misses(misses: int) -> int:
    """Bytes still allocated after ``misses`` one-page misses were cached."""
    sim = KernelCache(capacity_pages=2 * misses)
    sim.run([(0, PAGE)])  # lazy structures and the zero page exist now
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        sim.run([(page * PAGE, PAGE) for page in range(1, misses + 1)])
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sim.cache.metrics.counters()["puts"] == misses + 1
    return after - before


def test_misses_retain_metadata_not_payloads():
    retained = {misses: retained_after_misses(misses) for misses in (64, 256)}
    assert all(size <= MIB for size in retained.values()), retained
    # flat: four times the misses adds per-page metadata, not pages
    assert retained[256] - retained[64] <= MIB // 2, retained


def test_simulated_ssd_hit_call_budget():
    sim = KernelCache(capacity_pages=4)
    calls = calls_in_last_read(sim, [(0, PAGE), (3 * CHUNK, CHUNK)])
    counters = sim.cache.metrics.counters()
    assert (counters["get_hits"], counters["get_misses"]) == (1, 1)
    assert sim.cache.page_store.device.stats.reads == 1
    assert calls <= 40, calls


def test_one_page_miss_call_budget():
    sim = KernelCache(capacity_pages=4)
    calls = calls_in_last_read(sim, [(0, PAGE), (PAGE, PAGE)])
    counters = sim.cache.metrics.counters()
    assert (counters["get_misses"], counters["puts"]) == (2, 2)
    assert calls <= 65, calls


def test_budget_reads_keep_their_simulated_time():
    """The budgets measure the real path: the replays still take the
    modelled SSD and remote time."""
    sim = KernelCache(capacity_pages=4)
    ssd = DeviceProfile.ssd_local()
    remote = sim.source.base_latency + PAGE / sim.source.bandwidth
    ssd_write = ssd.seek_latency + PAGE / ssd.write_bandwidth
    assert sim.run([(0, PAGE)]) == remote + ssd_write
    assert sim.run([(0, CHUNK)]) == ssd.seek_latency + CHUNK / ssd.read_bandwidth
