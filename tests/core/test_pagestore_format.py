"""The local page file: syscall budget, crash points, corruption, old layout.

``LocalFilePageStore`` keeps one file per page with a header of per-sub-block
CRCs.  These tests hold it to what that format promises:

- a steady-state put is open, writev, close, stat, replace; a hit is open,
  pread, close; a delete is stat, unlink and at most two rmdirs -- and none
  of them goes through ``pathlib``;
- a ranged read costs at most the header, the range and one sub-block;
- a crash at any syscall of a put leaves the old page or the new one,
  and recovery through ``recover_cache`` agrees with the bytes on disk;
- a flipped byte or a truncation is ``PageCorruptedError``, which the
  manager turns into early eviction and a correct read from the remote;
- an old-layout directory (``N.crc`` sidecars) is never served.
"""

import contextlib
import os
import struct
import sys
import zlib
from pathlib import Path

import pytest

from repro.core.cache_manager import LocalCacheManager
from repro.core.config import CacheConfig, CacheDirectory
from repro.core.page import PageId
from repro.core.pagestore import LocalFilePageStore
from repro.core.pagestore.local import MAGIC, SUB_BLOCK
from repro.core.recovery import recover_cache
from repro.errors import NoSpaceLeftError, PageCorruptedError, PageNotFoundError
from repro.storage.remote import SyntheticDataSource

KIB = 1024
MIB = 1024 * KIB
PAGE = 4 * SUB_BLOCK
PID = PageId("warehouse/orders/part-0", 3)


def header_size(page_size: int) -> int:
    return 8 + 4 * -(-page_size // SUB_BLOCK)


def page_files(root: Path) -> list[Path]:
    return sorted(
        path for path in root.rglob("*") if path.is_file() and path.name.isdigit()
    )


def payload_of(path: Path, page_size: int = PAGE) -> bytes:
    raw = path.read_bytes()
    magic, size = struct.unpack_from("<4sI", raw)
    assert magic == MAGIC
    return raw[header_size(page_size):][:size]


@contextlib.contextmanager
def os_calls():
    """Every ``posix`` function called (and every ``pathlib`` frame
    entered) inside the block, in order."""
    calls: list[str] = []

    def profile(frame, event, arg):
        if event == "c_call" and getattr(arg, "__module__", None) == "posix":
            calls.append(arg.__name__)
        elif event == "call" and "pathlib" in frame.f_code.co_filename:
            calls.append("pathlib." + frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        yield calls
    finally:
        sys.setprofile(None)


def pattern(size: int, seed: int = 0) -> bytes:
    return bytes((i * 7 + seed) % 251 for i in range(size))


class TestSyscallBudget:
    def test_steady_state_put(self, tmp_path):
        store = LocalFilePageStore([tmp_path], page_size=PAGE)
        store.put(PID, pattern(PAGE), 0)
        with os_calls() as calls:
            store.put(PID, pattern(PAGE, 1), 0)
        assert calls == ["open", "writev", "close", "stat", "replace"]

    def test_hit(self, tmp_path):
        store = LocalFilePageStore([tmp_path], page_size=PAGE)
        store.put(PID, pattern(PAGE), 0)
        with os_calls() as calls:
            assert store.get(PID, 0) == pattern(PAGE)
        assert calls == ["open", "pread", "close"]
        with os_calls() as calls:
            assert store.get(PID, 0, SUB_BLOCK + 5, 100) == pattern(PAGE)[SUB_BLOCK + 5:][:100]
        assert calls == ["open", "pread", "close"]

    def test_delete(self, tmp_path):
        store = LocalFilePageStore([tmp_path], page_size=PAGE)
        sibling = PageId(PID.file_id, 4)
        store.put(PID, b"a", 0)
        store.put(sibling, b"b", 0)
        with os_calls() as calls:
            assert store.delete(PID, 0)
        assert calls == ["stat", "unlink", "rmdir"]  # ENOTEMPTY: the sibling
        with os_calls() as calls:
            assert store.delete(sibling, 0)
        assert calls == ["stat", "unlink", "rmdir", "rmdir"]  # folder, bucket

    def test_miss_is_one_open(self, tmp_path):
        store = LocalFilePageStore([tmp_path], page_size=PAGE)
        with pytest.raises(PageNotFoundError), os_calls() as calls:
            store.get(PID, 0)
        assert calls == ["open"]

    def test_ranged_read_amplification(self, tmp_path, monkeypatch):
        store = LocalFilePageStore([tmp_path], page_size=MIB)
        payload = pattern(MIB)
        store.put(PID, payload, 0)
        read = []
        real = os.pread

        def counted(fd, size, offset):
            data = real(fd, size, offset)
            read.append(len(data))
            return data

        monkeypatch.setattr(os, "pread", counted)
        with os_calls() as calls:
            assert store.get(PID, 0, 512 * KIB, 64 * KIB) == payload[512 * KIB:][:64 * KIB]
        assert sum(read) <= header_size(MIB) + 64 * KIB + SUB_BLOCK
        # past the second sub-block the header and the range are two reads
        assert calls == ["open", "pread", "pread", "close"]
        # unaligned: the range's first and last sub-blocks are read whole
        read.clear()
        assert store.get(PID, 0, 300 * KIB + 7, 64 * KIB) == payload[300 * KIB + 7:][:64 * KIB]
        assert sum(read) <= header_size(MIB) + 64 * KIB + 2 * SUB_BLOCK


class _Crash(BaseException):
    """A process death: no ``except OSError`` clean-up runs."""


PUT_CALLS = ("open", "writev", "close", "stat", "replace")


def _crashing(real, when):
    def call(*args, **kwargs):
        if when == "torn":  # writev got half the page down, then the crash
            fd, (header, data) = args
            real(fd, (header, data[: len(data) // 2]))
        elif when == "after":
            with contextlib.suppress(OSError):  # a fresh page's stat fails
                real(*args, **kwargs)
        raise _Crash()

    return call


CRASH_POINTS = [(call, when) for call in PUT_CALLS for when in ("before", "after")]
CRASH_POINTS.append(("writev", "torn"))


class TestCrashPoints:
    OLD, NEW = pattern(PAGE, 1), pattern(PAGE - 100, 2)

    def config(self, root: Path) -> CacheConfig:
        return CacheConfig(
            page_size=PAGE, directories=[CacheDirectory(str(root), 64 * PAGE)]
        )

    @pytest.mark.parametrize("call,when", CRASH_POINTS)
    def test_put_crash_never_leaves_a_torn_page(self, tmp_path, monkeypatch, call, when):
        manager = recover_cache(self.config(tmp_path), [tmp_path])
        kept, fresh = PageId("f", 0), PageId("f", 1)
        assert manager.put_page(kept, self.OLD)
        store = manager.page_store
        for page in (kept, fresh):  # an overwrite and a first write
            crashed = False
            # not pytest.raises: its traceback handling calls os.stat
            monkeypatch.setattr(os, call, _crashing(getattr(os, call), when))
            try:
                store.put(page, self.NEW, 0)
            except _Crash:
                crashed = True
            finally:
                monkeypatch.undo()
            assert crashed

        recovered = recover_cache(self.config(tmp_path), [tmp_path])
        store = recovered.page_store
        assert not [p for p in tmp_path.rglob("*") if p.name.endswith(".tmp")]
        on_disk = {path.name: payload_of(path) for path in page_files(tmp_path)}
        assert on_disk["0"] in (self.OLD, self.NEW)
        assert on_disk.get("1", self.NEW) == self.NEW
        found = store.recover(0)
        assert store.bytes_used(0) == sum(size for _, size in found)
        assert store.bytes_used(0) == sum(len(data) for data in on_disk.values())
        assert recovered.bytes_used == store.bytes_used(0)
        for page_id, size in found:
            assert store.get(page_id, 0) == on_disk[str(page_id.page_index)]
            assert len(on_disk[str(page_id.page_index)]) == size

    def test_a_failed_put_cleans_up_and_keeps_the_old_page(self, tmp_path, monkeypatch):
        store = LocalFilePageStore([tmp_path], page_size=PAGE)
        store.put(PID, self.OLD, 0)

        def full(*args):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "writev", full)
        with pytest.raises(NoSpaceLeftError):
            store.put(PID, self.NEW, 0)
        monkeypatch.undo()
        assert [p.name for p in tmp_path.rglob("*") if p.is_file()] == ["3"]
        assert store.get(PID, 0) == self.OLD
        assert store.bytes_used(0) == len(self.OLD)


def _flip(path: Path, position: int) -> None:
    raw = bytearray(path.read_bytes())
    raw[position] ^= 0x01
    path.write_bytes(bytes(raw))


CORRUPTIONS = {
    "payload byte": lambda path: _flip(path, header_size(PAGE) + PAGE // 2),
    "magic byte": lambda path: _flip(path, 0),
    "length byte": lambda path: _flip(path, 4),
    "crc byte": lambda path: _flip(path, 8),
    "truncated": lambda path: path.write_bytes(path.read_bytes()[:-1]),
    "truncated header": lambda path: path.write_bytes(path.read_bytes()[:5]),
}


class TestCorruption:
    @pytest.mark.parametrize("damage", sorted(CORRUPTIONS))
    def test_store_raises(self, tmp_path, damage):
        store = LocalFilePageStore([tmp_path], page_size=PAGE)
        store.put(PID, pattern(PAGE), 0)
        (path,) = page_files(tmp_path)
        CORRUPTIONS[damage](path)
        with pytest.raises(PageCorruptedError):
            store.get(PID, 0)

    def test_only_the_blocks_read_are_verified(self, tmp_path):
        store = LocalFilePageStore([tmp_path], page_size=PAGE)
        payload = pattern(PAGE)
        store.put(PID, payload, 0)
        (path,) = page_files(tmp_path)
        _flip(path, header_size(PAGE) + 3 * SUB_BLOCK + 1)  # the last block
        assert store.get(PID, 0, 0, SUB_BLOCK) == payload[:SUB_BLOCK]
        with pytest.raises(PageCorruptedError):
            store.get(PID, 0, 3 * SUB_BLOCK, 10)

    @pytest.mark.parametrize("damage", sorted(CORRUPTIONS))
    def test_manager_evicts_early_and_reads_the_remote(self, tmp_path, damage):
        source = SyntheticDataSource(base_latency=0.0, bandwidth=1e12)
        source.add_file("f", 4 * PAGE)
        manager = LocalCacheManager(
            CacheConfig.small(16 * PAGE, page_size=PAGE),
            page_store=LocalFilePageStore([tmp_path], page_size=PAGE),
        )
        expected = source.read("f", PAGE, PAGE).data
        assert manager.read("f", PAGE, PAGE, source).data == expected
        (path,) = page_files(tmp_path)
        CORRUPTIONS[damage](path)
        evictions = manager.metrics.counter("corruption_evictions").value
        result = manager.read("f", PAGE, PAGE, source)
        assert result.data == expected
        assert manager.metrics.counter("corruption_evictions").value == evictions + 1
        # the bad copy is gone; what is cached now is the remote's bytes
        assert manager.read("f", PAGE, PAGE, source).data == expected
        assert [payload_of(p) for p in page_files(tmp_path)] in ([], [expected])


class TestOldLayout:
    """Before per-page headers a page was raw bytes with an ``N.crc``
    sidecar.  Recovery removes sidecars and temp files; a raw page left
    behind fails the magic check on first read and is evicted early."""

    def write_old_layout(self, root: Path, payloads: dict[int, bytes]) -> Path:
        store = LocalFilePageStore([root], page_size=PAGE)
        store.put(PageId("f", 99), b"x", 0)  # only to learn the folder name
        (probe,) = page_files(root)
        folder = probe.parent
        probe.unlink()
        for index, payload in payloads.items():
            (folder / str(index)).write_bytes(payload)
            (folder / f"{index}.crc").write_bytes(zlib.crc32(payload).to_bytes(4, "big"))
        (folder / "7.tmp").write_bytes(b"half a page")
        (folder / "7.crc.tmp").write_bytes(b"\0\0")
        return folder

    def test_recovery_removes_sidecars_and_never_serves_a_raw_page(self, tmp_path):
        source = SyntheticDataSource(base_latency=0.0, bandwidth=1e12)
        source.add_file("f", 4 * PAGE)
        old = {index: source.read("f", index * PAGE, PAGE).data for index in (0, 1)}
        old[2] = b"tiny"  # shorter than a header: it cannot be a page file
        folder = self.write_old_layout(tmp_path, old)
        config = CacheConfig(
            page_size=PAGE, directories=[CacheDirectory(str(tmp_path), 64 * PAGE)]
        )
        manager = recover_cache(config, [tmp_path])
        assert sorted(p.name for p in folder.iterdir()) == ["0", "1"]
        assert manager.page_count == 2
        for index in (0, 1):
            assert manager.read("f", index * PAGE, PAGE, source).data == old[index]
        assert manager.metrics.counter("corruption_evictions").value == 2
        # re-read from the remote and re-admitted in the new format
        assert sorted(payload_of(p) for p in page_files(tmp_path)) == sorted(
            [old[0], old[1]]
        )
