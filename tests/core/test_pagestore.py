"""Tests for the three page stores: memory, local-file, simulated SSD."""

import struct
import zlib

import pytest

from repro.core.page import PageId
from repro.core.pagestore import (
    FaultPlan,
    LocalFilePageStore,
    MemoryPageStore,
    SimulatedSsdPageStore,
)
from repro.core.pagestore.local import MAGIC, SUB_BLOCK
from repro.errors import (
    CacheReadTimeoutError,
    NoSpaceLeftError,
    PageCorruptedError,
    PageNotFoundError,
)
from repro.ports.clock import SimClock
from repro.storage.device import DeviceProfile, StorageDevice

PID = PageId("warehouse/orders/part-0", 3)


class TestMemoryPageStore:
    def test_roundtrip(self):
        store = MemoryPageStore()
        store.put(PID, b"hello world", 0)
        assert store.get(PID, 0) == b"hello world"
        assert store.contains(PID, 0)
        assert store.bytes_used(0) == 11

    def test_ranged_get(self):
        store = MemoryPageStore()
        store.put(PID, b"hello world", 0)
        assert store.get(PID, 0, 6, 5) == b"world"
        assert store.get(PID, 0, 6) == b"world"

    def test_missing_raises(self):
        with pytest.raises(PageNotFoundError):
            MemoryPageStore().get(PID, 0)

    def test_delete(self):
        store = MemoryPageStore()
        store.put(PID, b"abc", 0)
        assert store.delete(PID, 0)
        assert not store.delete(PID, 0)
        assert store.bytes_used(0) == 0

    def test_directories_are_isolated(self):
        store = MemoryPageStore()
        store.put(PID, b"abc", 0)
        assert not store.contains(PID, 1)
        with pytest.raises(PageNotFoundError):
            store.get(PID, 1)

    def test_overwrite_updates_usage(self):
        store = MemoryPageStore()
        store.put(PID, b"abc", 0)
        store.put(PID, b"abcdef", 0)
        assert store.bytes_used(0) == 6

    def test_physical_limit_enforced(self):
        store = MemoryPageStore(physical_limit_bytes=10)
        store.put(PID, b"12345678", 0)
        with pytest.raises(NoSpaceLeftError):
            store.put(PageId("g", 0), b"12345678", 0)

    def test_bad_limit_rejected(self):
        with pytest.raises(ValueError):
            MemoryPageStore(physical_limit_bytes=0)


class TestLocalFilePageStore:
    def test_roundtrip(self, tmp_path):
        store = LocalFilePageStore([tmp_path], page_size=1024)
        store.put(PID, b"payload", 0)
        assert store.get(PID, 0) == b"payload"
        assert store.get(PID, 0, 3, 2) == b"lo"
        assert store.bytes_used(0) == 7

    def test_layout_matches_figure_4(self, tmp_path):
        """page_size folder -> bucket -> file-ID dir -> page-index file."""
        store = LocalFilePageStore([tmp_path], page_size=1024)
        store.put(PID, b"payload", 0)
        matches = list(tmp_path.glob("page_size=1024/bucket=*/file=*/3"))
        assert len(matches) == 1
        assert "warehouse" in matches[0].parent.name  # percent-encoded file id

    def test_missing_raises(self, tmp_path):
        store = LocalFilePageStore([tmp_path], page_size=1024)
        with pytest.raises(PageNotFoundError):
            store.get(PID, 0)

    def test_delete_prunes_empty_dirs(self, tmp_path):
        store = LocalFilePageStore([tmp_path], page_size=1024)
        store.put(PID, b"payload", 0)
        assert store.delete(PID, 0)
        assert not store.delete(PID, 0)
        assert list(tmp_path.glob("page_size=1024/bucket=*")) == []
        # the persistent page_size folder survives (cache recovery anchor)
        assert (tmp_path / "page_size=1024").exists()

    def test_corruption_detected(self, tmp_path):
        store = LocalFilePageStore([tmp_path], page_size=1024)
        store.put(PID, b"payload", 0)
        page_file = next(tmp_path.glob("page_size=1024/bucket=*/file=*/3"))
        page_file.write_bytes(b"tampered")
        with pytest.raises(PageCorruptedError):
            store.get(PID, 0)

    def test_truncated_header_detected(self, tmp_path):
        store = LocalFilePageStore([tmp_path], page_size=1024)
        store.put(PID, b"payload", 0)
        page_file = next(tmp_path.glob("page_size=1024/bucket=*/file=*/3"))
        page_file.write_bytes(page_file.read_bytes()[:6])  # the checksums are gone
        with pytest.raises(PageCorruptedError):
            store.get(PID, 0)

    def test_disabled_verification_serves_unchecked_bytes(self, tmp_path):
        store = LocalFilePageStore([tmp_path], page_size=1024, verify_checksums=False)
        store.put(PID, b"payload", 0)
        page_file = next(tmp_path.glob("page_size=1024/bucket=*/file=*/3"))
        raw = bytearray(page_file.read_bytes())
        raw[-1] ^= 0xFF  # the payload's last byte; its CRC no longer matches
        page_file.write_bytes(bytes(raw))
        assert store.get(PID, 0) == b"payloa" + bytes([ord("d") ^ 0xFF])

    def test_recovery_from_directory_walk(self, tmp_path):
        """Page identity is self-contained in names and parent folders."""
        store = LocalFilePageStore([tmp_path], page_size=1024)
        pages = [PageId("fileA", 0), PageId("fileA", 7), PageId("dir/fileB", 2)]
        for page in pages:
            store.put(page, b"x" * 100, 0)
        # a fresh store instance rebuilds state purely from the layout
        recovered = LocalFilePageStore([tmp_path], page_size=1024)
        found = recovered.recover(0)
        assert sorted((str(p), s) for p, s in found) == sorted(
            (str(p), 100) for p in pages
        )
        assert recovered.bytes_used(0) == 300
        assert recovered.get(PageId("dir/fileB", 2), 0) == b"x" * 100

    def test_recovery_skips_other_page_sizes(self, tmp_path):
        old = LocalFilePageStore([tmp_path], page_size=512)
        old.put(PID, b"old", 0)
        new = LocalFilePageStore([tmp_path], page_size=1024)
        assert new.recover(0) == []

    def test_multi_root(self, tmp_path):
        roots = [tmp_path / "ssd0", tmp_path / "ssd1"]
        store = LocalFilePageStore(roots, page_size=1024)
        store.put(PID, b"a", 0)
        store.put(PID, b"bb", 1)
        assert store.get(PID, 0) == b"a"
        assert store.get(PID, 1) == b"bb"
        assert store.bytes_used(1) == 2

    def test_empty_roots_rejected(self):
        with pytest.raises(ValueError):
            LocalFilePageStore([], page_size=1024)

    def test_header_carries_sub_block_crcs(self, tmp_path):
        store = LocalFilePageStore([tmp_path], page_size=2 * SUB_BLOCK)
        payload = bytes(range(256)) * (SUB_BLOCK // 256) + b"tail"
        store.put(PID, payload, 0)
        raw = next(tmp_path.glob(f"page_size={2 * SUB_BLOCK}/bucket=*/file=*/3")).read_bytes()
        magic, size, first, second = struct.unpack_from("<4sIII", raw)
        assert (magic, size) == (MAGIC, len(payload))
        assert first == zlib.crc32(payload[:SUB_BLOCK])
        assert second == zlib.crc32(payload[SUB_BLOCK:])
        assert raw[16:] == payload
        assert list(tmp_path.rglob("*.crc")) == []  # no sidecar


def make_sim_store(**fault_kwargs):
    clock = SimClock()
    device = StorageDevice(DeviceProfile.ssd_local(), clock)
    return SimulatedSsdPageStore(device, FaultPlan(**fault_kwargs)), clock


class TestSimulatedSsdPageStore:
    def test_roundtrip_and_latency(self):
        store, __ = make_sim_store()
        store.put(PID, b"x" * 1024, 0)
        assert store.last_op_latency > 0
        data = store.get(PID, 0)
        assert data == b"x" * 1024
        assert store.last_op_latency > 0
        assert store.bytes_used(0) == 1024

    def test_missing_raises(self):
        store, __ = make_sim_store()
        with pytest.raises(PageNotFoundError):
            store.get(PID, 0)

    def test_injected_corruption(self):
        store, __ = make_sim_store()
        store.put(PID, b"abc", 0)
        store.corrupt(PID)
        with pytest.raises(PageCorruptedError):
            store.get(PID, 0)
        # delete clears the fault marker
        store.delete(PID, 0)
        store.put(PID, b"abc", 0)
        assert store.get(PID, 0) == b"abc"

    def test_read_hang_exceeds_timeout(self):
        store, __ = make_sim_store(hang_reads_seconds=600.0)
        store.put(PID, b"abc", 0)
        with pytest.raises(CacheReadTimeoutError):
            store.get(PID, 0, timeout=10.0)

    def test_hang_without_timeout_budget_returns(self):
        store, __ = make_sim_store(hang_reads_seconds=600.0)
        store.put(PID, b"abc", 0)
        assert store.get(PID, 0) == b"abc"
        assert store.last_op_latency >= 600.0

    def test_physical_full(self):
        store, __ = make_sim_store(physical_full_after_bytes=10)
        store.put(PID, b"12345678", 0)
        with pytest.raises(NoSpaceLeftError):
            store.put(PageId("g", 0), b"123", 0)
        # freeing space lets the put succeed
        store.delete(PID, 0)
        store.put(PageId("g", 0), b"123", 0)


class TestOneGetSignature:
    """Every store takes ``get(page_id, directory, offset, length, *,
    timeout)``, so the manager calls it one way and hides nothing."""

    def test_every_store_accepts_the_read_budget(self, tmp_path):
        stores = [
            MemoryPageStore(),
            LocalFilePageStore([tmp_path], page_size=64),
            make_sim_store()[0],
        ]
        for store in stores:
            store.put(PID, b"hello world", 0)
            assert store.get(PID, 0, 6, 5, timeout=10.0) == b"world"
            assert store.get(PID, 0, timeout=None) == b"hello world"

    def test_a_type_error_inside_a_store_surfaces(self):
        # the manager used to treat TypeError as "this store has no timeout
        # parameter" and retry without it, swallowing genuine bugs
        from repro.core.cache_manager import LocalCacheManager
        from repro.core.config import CacheConfig
        from repro.storage.remote import SyntheticDataSource

        class BuggyStore(MemoryPageStore):
            def __init__(self) -> None:
                super().__init__()
                self.gets = 0

            def get(self, page_id, directory, offset=0, length=None, *, timeout=None):
                self.gets += 1
                return len(None)  # a programming error: TypeError

        store = BuggyStore()
        source = SyntheticDataSource(base_latency=0.0, bandwidth=1e12)
        source.add_file("f", 256)
        manager = LocalCacheManager(
            CacheConfig.small(1024, page_size=64), page_store=store
        )
        manager.read("f", 0, 64, source)  # miss: fills the page
        with pytest.raises(TypeError):
            manager.read("f", 0, 64, source)
        assert store.gets == 1  # raised once, not retried
        with pytest.raises(TypeError):
            manager.read_resident("f", 0, 64)
