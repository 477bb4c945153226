"""The kernel as a transport adapter: construction helpers + closed loop."""

import pytest

from repro.core.cache_manager import LocalCacheManager
from repro.core.config import CacheConfig
from repro.core.engine import CacheEngine
from repro.core.pagestore.memory import MemoryPageStore
from repro.core.pagestore.simulated import SimulatedSsdPageStore
from repro.ports.clock import SimClock, WallClock
from repro.service.sim_transport import SimTransport, build_sim_cache
from repro.storage.device import DeviceProfile, StorageDevice
from repro.storage.remote import SyntheticDataSource

KIB = 1024
PAGE = 16 * KIB


def make_source(files: int = 4) -> SyntheticDataSource:
    source = SyntheticDataSource(base_latency=0.001, bandwidth=1e9)
    for index in range(files):
        source.add_file(f"file-{index}", 8 * PAGE)
    return source


def zipfish_requests(count: int = 60) -> list[tuple[str, int, int]]:
    # a fixed skewed sequence: file-0 dominates, offsets cycle pages
    return [
        (f"file-{(i * i) % 3}", ((i * 7) % 8) * PAGE, 2 * KIB)
        for i in range(count)
    ]


class TestBuildHelpers:
    def test_device_wraps_into_a_simulated_store(self):
        clock = SimClock()
        cache = build_sim_cache(
            CacheConfig.small(64 * PAGE, page_size=PAGE),
            clock=clock,
            device=StorageDevice(DeviceProfile.ssd_local(), clock),
        )
        assert isinstance(cache, LocalCacheManager)
        assert isinstance(cache.page_store, SimulatedSsdPageStore)

    def test_device_and_page_store_are_mutually_exclusive(self):
        clock = SimClock()
        with pytest.raises(ValueError, match="not both"):
            build_sim_cache(
                CacheConfig.small(64 * PAGE, page_size=PAGE),
                clock=clock,
                device=StorageDevice(DeviceProfile.ssd_local(), clock),
                page_store=MemoryPageStore(),
            )


class TestSimTransport:
    def _build(self, clients_device: bool = True):
        clock = SimClock()
        engine = CacheEngine(
            CacheConfig.small(64 * PAGE, page_size=PAGE),
            source=make_source(),
            clock=clock,
            page_store=(
                SimulatedSsdPageStore(StorageDevice(DeviceProfile.ssd_local(), clock))
                if clients_device
                else None
            ),
        )
        return SimTransport(engine)

    def test_wall_clock_engine_is_rejected(self):
        engine = CacheEngine(
            CacheConfig.small(64 * PAGE, page_size=PAGE),
            source=make_source(),
        )
        engine.clock = WallClock()  # simulate a wall-clock wiring mistake
        with pytest.raises(ValueError, match="SimClock"):
            SimTransport(engine)

    def test_closed_loop_is_deterministic(self):
        requests = zipfish_requests()
        first = self._build().run_closed_loop(requests, clients=4)
        second = self._build().run_closed_loop(requests, clients=4)
        assert first.latencies == second.latencies
        assert first.virtual_seconds == second.virtual_seconds
        assert first.hit_ratio == second.hit_ratio

    def test_closed_loop_covers_every_request(self):
        requests = zipfish_requests(37)  # not divisible by the client count
        outcome = self._build().run_closed_loop(requests, clients=5)
        assert outcome.requests == 37
        assert outcome.page_hits + outcome.page_misses >= 37
        assert outcome.bytes_from_cache + outcome.bytes_from_remote > 0
        assert outcome.virtual_seconds > 0

    def test_hit_ratio_matches_a_direct_replay(self):
        # the transport adds scheduling, not caching behaviour: replaying
        # the same single-client sequence directly through a manager built
        # the same way must produce the same hit counters
        requests = zipfish_requests()
        outcome = self._build(clients_device=False).run_closed_loop(
            requests, clients=1
        )
        source = make_source()
        manager = LocalCacheManager(
            CacheConfig.small(64 * PAGE, page_size=PAGE), clock=SimClock()
        )
        for file_id, offset, length in requests:
            manager.read(file_id, offset, length, source)
        counters = manager.metrics.counters()
        assert outcome.page_hits == counters["get_hits"]
        assert outcome.page_misses == counters["get_misses"]

    def test_more_clients_do_not_change_cache_outcomes_only_timing(self):
        requests = zipfish_requests()
        solo = self._build().run_closed_loop(requests, clients=1)
        crowd = self._build().run_closed_loop(requests, clients=8)
        assert solo.requests == crowd.requests
        # concurrent clients contend for the device, so the wall stretches
        # differently -- but every byte still gets served
        assert (
            solo.bytes_from_cache + solo.bytes_from_remote
            == crowd.bytes_from_cache + crowd.bytes_from_remote
        )

    def test_invalid_client_count(self):
        with pytest.raises(ValueError, match="positive"):
            self._build().run_closed_loop([], clients=0)
