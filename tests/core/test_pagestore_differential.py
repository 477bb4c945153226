"""Differential property test: LocalFilePageStore vs MemoryPageStore.

The two stores implement one interface; any random operation sequence must
produce identical observable behaviour (contents, membership, usage), with
the file store additionally surviving a "restart" (fresh instance over the
same directory) at any point.  Further arms: ranged reads across sub-blocks,
damaged page files, and eight threads writing sibling pages of one file.
"""

import errno
import os
import threading
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.page import PageId
from repro.core.pagestore import LocalFilePageStore, MemoryPageStore
from repro.core.pagestore.local import SUB_BLOCK
from repro.errors import PageCorruptedError, PageNotFoundError

PAGE_SIZE = 256

operations = st.lists(
    st.tuples(
        st.sampled_from(["put", "get", "delete", "restart"]),
        st.integers(min_value=0, max_value=5),   # file number
        st.integers(min_value=0, max_value=3),   # page index
        st.integers(min_value=0, max_value=PAGE_SIZE),  # payload length
    ),
    max_size=40,
)


@settings(
    max_examples=25,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(ops=operations)
def test_file_store_matches_memory_store(tmp_path_factory, ops):
    root = Path(tmp_path_factory.mktemp("pages"))
    file_store = LocalFilePageStore([root], page_size=PAGE_SIZE)
    memory_store = MemoryPageStore()
    for op, file_n, index, length in ops:
        page_id = PageId(f"dir/file-{file_n}", index)
        if op == "put":
            payload = bytes([file_n * 16 + index]) * length
            if length == 0:
                payload = b""
            file_store.put(page_id, payload, 0)
            memory_store.put(page_id, payload, 0)
        elif op == "get":
            assert file_store.contains(page_id, 0) == memory_store.contains(
                page_id, 0
            )
            if memory_store.contains(page_id, 0):
                assert file_store.get(page_id, 0) == memory_store.get(page_id, 0)
                # ranged reads agree too
                assert file_store.get(page_id, 0, 3, 5) == memory_store.get(
                    page_id, 0, 3, 5
                )
            else:
                with pytest.raises(PageNotFoundError):
                    file_store.get(page_id, 0)
        elif op == "delete":
            assert file_store.delete(page_id, 0) == memory_store.delete(
                page_id, 0
            )
        else:  # restart: rebuild the file store from disk
            file_store = LocalFilePageStore([root], page_size=PAGE_SIZE)
        assert file_store.bytes_used(0) == memory_store.bytes_used(0)
    # final restart: recovery finds exactly the resident pages
    recovered = LocalFilePageStore([root], page_size=PAGE_SIZE)
    found = {str(p) for p, __ in recovered.recover(0)}
    expected = {
        f"dir/file-{f}#{i}"
        for f in range(6)
        for i in range(4)
        if memory_store.contains(PageId(f"dir/file-{f}", i), 0)
    }
    assert found == expected


# -- ranged reads over several sub-blocks -------------------------------------

WIDE_PAGE = 4 * SUB_BLOCK

ranged_reads = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),            # page index
        st.integers(min_value=0, max_value=WIDE_PAGE),    # payload length
        st.integers(min_value=0, max_value=WIDE_PAGE + 8),  # read offset
        st.one_of(st.none(), st.integers(min_value=0, max_value=WIDE_PAGE)),
    ),
    min_size=1,
    max_size=12,
)


@settings(
    max_examples=25,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(reads=ranged_reads)
@example(reads=[(0, WIDE_PAGE, 2 * SUB_BLOCK + 3, SUB_BLOCK)])  # two preads
@example(reads=[(1, 3 * SUB_BLOCK - 7, SUB_BLOCK - 1, None)])  # short last block
def test_ranged_reads_match_memory_store(tmp_path_factory, reads):
    """Any offset and length inside (or past) a multi-block page reads the
    same bytes as the memory store, verifying only the blocks it touches."""
    root = Path(tmp_path_factory.mktemp("ranged"))
    file_store = LocalFilePageStore([root], page_size=WIDE_PAGE)
    memory_store = MemoryPageStore()
    for index, size, offset, length in reads:
        page_id = PageId("dir/wide", index)
        payload = bytes((i * 31 + index) % 256 for i in range(size))
        file_store.put(page_id, payload, 0)
        memory_store.put(page_id, payload, 0)
        assert file_store.get(page_id, 0, offset, length) == memory_store.get(
            page_id, 0, offset, length
        )


# -- corruption: a damaged page is an error, never wrong bytes -----------------

damage = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),            # page index
        st.integers(min_value=1, max_value=WIDE_PAGE),    # payload length
        st.integers(min_value=0, max_value=WIDE_PAGE + 64),  # byte to flip
        st.booleans(),                                    # or truncate there
        st.integers(min_value=0, max_value=WIDE_PAGE),    # read offset
        st.integers(min_value=1, max_value=WIDE_PAGE),    # read length
    ),
    min_size=1,
    max_size=8,
)


@settings(
    max_examples=25,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(cases=damage)
def test_damaged_pages_raise_or_read_true_bytes(tmp_path_factory, cases):
    """Flip any byte of a page file (header or payload) or cut it short:
    every read either returns exactly the memory store's bytes or raises
    PageCorruptedError -- a flip in a CRC slot no read uses, or past the
    range read, may go unnoticed, but damaged bytes are never served."""
    root = Path(tmp_path_factory.mktemp("damaged"))
    file_store = LocalFilePageStore([root], page_size=WIDE_PAGE)
    memory_store = MemoryPageStore()
    for index, size, position, truncate, offset, length in cases:
        page_id = PageId("dir/damaged", index)
        payload = bytes((i * 17 + index) % 256 for i in range(size))
        file_store.put(page_id, payload, 0)
        memory_store.put(page_id, payload, 0)
        (path,) = root.glob(f"page_size={WIDE_PAGE}/bucket=*/file=*/{index}")
        raw = bytearray(path.read_bytes())
        position %= len(raw)
        if truncate:
            del raw[position:]
        else:
            raw[position] ^= 0x40
        path.write_bytes(bytes(raw))
        for read in ((0, None), (offset, length)):
            try:
                data = file_store.get(page_id, 0, *read)
            except PageCorruptedError:
                continue
            assert data == memory_store.get(page_id, 0, *read)


# -- concurrent writers of sibling pages ---------------------------------------


def test_sibling_pages_from_eight_threads(tmp_path, switch_interval_stress):
    """Eight threads put, read and delete their own page of one file.  Each
    delete may prune the shared folder while another thread is about to
    create its temp file there; the put goes round until its folder holds."""
    store = LocalFilePageStore([tmp_path], page_size=PAGE_SIZE)
    rounds = 200
    barrier = threading.Barrier(8)
    failures: list[str] = []

    def worker(index: int) -> None:
        page_id = PageId("dir/shared", index)
        barrier.wait()
        for round_ in range(rounds):
            payload = bytes([index, round_ % 256]) * (1 + round_ % (PAGE_SIZE // 2))
            try:
                store.put(page_id, payload, 0)
                if store.get(page_id, 0) != payload:
                    failures.append(f"page {index} round {round_}: wrong bytes")
                if not store.delete(page_id, 0):
                    failures.append(f"page {index} round {round_}: not deleted")
            except Exception as exc:  # collected: a thread cannot fail the test
                failures.append(f"page {index} round {round_}: {exc!r}")

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert store.bytes_used(0) == 0
    assert [path for path in tmp_path.rglob("*") if path.is_file()] == []


def test_a_folder_pruned_inside_makedirs_is_made_again(tmp_path, monkeypatch):
    """``os.makedirs(exist_ok=True)`` raises ``FileExistsError`` when a
    sibling's delete prunes the folder between its ``mkdir`` and its own
    check; the put goes round instead of failing."""
    store = LocalFilePageStore([tmp_path], page_size=PAGE_SIZE)
    makedirs, calls = os.makedirs, []

    def pruned_once(name, mode=0o777, exist_ok=False):
        calls.append(name)
        if len(calls) == 1:
            raise FileExistsError(errno.EEXIST, "File exists", name)
        makedirs(name, mode, exist_ok)

    monkeypatch.setattr(os, "makedirs", pruned_once)
    store.put(PageId("dir/raced", 0), b"x" * 10, 0)
    assert store.get(PageId("dir/raced", 0), 0) == b"x" * 10
