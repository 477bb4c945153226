"""Local-file page store with the paper's on-disk layout (Figure 4).

Cached data is organized in a multi-level hierarchy rooted at each cache
directory::

    <root>/
      page_size=1048576/            top-level folder: persistent global info
        bucket=0007/                hash bucket (bounded directory fan-out)
          file=ab54d?????/          file-ID directory
            42                      page file: page_index 42 of that file

Design points the paper calls out, all honoured here:

- "Page information is self-contained in page names and parent folders":
  a directory walk alone reconstructs every ``(file_id, page_index,
  page_size)`` triple, which is exactly how :meth:`LocalFilePageStore.recover`
  rebuilds state after a restart.
- The ``page_size`` folder is top-level because the page size is needed to
  compute page indices during recovery.
- Buckets bound the number of sub-folders per directory so lookups do not
  degrade as the cache grows.
- Checksums let reads detect the corrupted-file failure mode of Section 8;
  a failed verification raises :class:`~repro.errors.PageCorruptedError`,
  which the cache manager turns into early eviction plus remote fallback.

**Page file format.**  One file per page, checksums inside it::

    offset 0   magic   4 bytes  b"RPG1"
           4   length  uint32   payload bytes (<= page_size), little-endian
           8   crc[i]  uint32   CRC32 of payload sub-block i, one slot per
                                SUB_BLOCK of page_size (unused slots are 0)
    HEADER     payload

The header has the same size for every page of a store (it depends on the
page size only), so a page's payload size is its file size minus that
header, which is what recovery and the usage count read from ``stat``.

**Write path.**  A put writes header and payload to one temp file in the
page's folder with one ``os.writev`` and moves it over the page with one
``os.replace``: a crash leaves the old page or the new one, never a mix.
A short write is treated as a full device (:class:`NoSpaceLeftError`).

**Read path.**  ``os.open``, one ``os.pread`` of the header and the
sub-blocks the range touches, ``os.close``; only those sub-blocks are
verified.  A range that starts past the second sub-block reads the header
and its blocks with two ``pread`` calls instead, so a ranged read costs at
most the header, the range and one sub-block.  A bad magic, a length past
the page size or past what the file holds, a short read or a CRC mismatch
is :class:`PageCorruptedError`; a missing file is
:class:`PageNotFoundError`.

**Flush policy.**  Nothing is fsynced.  The cache is a copy of remote data:
a page lost or torn by a power failure fails its checksum (or is missing)
on the next read and is fetched again, so durability is not worth a sync
per put.  The rename still guarantees that a *process* crash never exposes
a half-written page.

**Old-layout directories.**  Stores before this format kept a ``N.crc``
sidecar next to a headerless page.  :meth:`~LocalFilePageStore.recover`
removes every ``.crc`` sidecar and leftover ``.tmp`` file (and page files
too short to hold a header); a headerless page that is left fails the magic
check on its first read and takes the Section 8 path -- early eviction,
remote fallback -- so it is never served.

**Usage.**  ``bytes_used`` is kept from the sizes the store writes and
finds on disk (file size minus header); a page file changed behind the
store's back is counted by its size when it is overwritten or deleted.
"""

from __future__ import annotations

import errno
import os
import struct
import threading
import zlib
from pathlib import Path
from urllib.parse import quote, unquote

from repro.core.page import PageId
from repro.errors import NoSpaceLeftError, PageCorruptedError, PageNotFoundError

_BUCKETS = 1024

MAGIC = b"RPG1"
SUB_BLOCK = 16 * 1024
"""Payload bytes covered by one header CRC: the verification granule."""

_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def _bucket_of(file_id: str) -> int:
    return zlib.crc32(file_id.encode("utf-8")) % _BUCKETS


def _sorted_entries(path: str) -> list[os.DirEntry]:
    try:
        with os.scandir(path) as entries:
            return sorted(entries, key=lambda entry: entry.name)
    except FileNotFoundError:
        return []


def _discard(path: str) -> None:
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass


class LocalFilePageStore:
    """Page payloads as real files under one or more root directories.

    Args:
        roots: one filesystem root per cache directory index.
        page_size: cache page size; becomes the top-level layout folder and
            bounds every payload.
        verify_checksums: verify the sub-block CRCs a read touches.
    """

    def __init__(
        self,
        roots: list[str | Path],
        page_size: int,
        *,
        verify_checksums: bool = True,
    ) -> None:
        if not roots:
            raise ValueError("at least one root directory is required")
        if page_size <= 0:
            raise ValueError(f"page_size must be positive, got {page_size}")
        self._page_size = page_size
        self._verify = verify_checksums
        self._slots = -(-page_size // SUB_BLOCK)
        self._header = struct.Struct(f"<4sI{self._slots}I")
        self._size_dirs = [
            os.path.join(os.fspath(root), f"page_size={page_size}") for root in roots
        ]
        # (directory, file_id) -> that file's folder; an entry goes when its
        # folder is pruned.  Whether the folder exists is never cached.
        self._folders: dict[tuple[int, str], str] = {}
        self._used: dict[int, int] = {}
        # usage accounting is a read-modify-write shared by every put and
        # delete; the manager's striped page locks do not cover it, so it
        # needs its own lock to stay exact under concurrent writers
        self._used_lock = threading.Lock()
        for index, size_dir in enumerate(self._size_dirs):
            os.makedirs(size_dir, exist_ok=True)
            self._used[index] = sum(size for _, size in self.recover(index))

    # -- layout ------------------------------------------------------------

    def _folder(self, file_id: str, directory: int) -> str:
        folder = self._folders.get((directory, file_id))
        if folder is None:
            folder = (
                f"{self._size_dirs[directory]}/bucket={_bucket_of(file_id):04d}"
                f"/file={quote(file_id, safe='')}"
            )
            self._folders[directory, file_id] = folder
        return folder

    def _page_path(self, page_id: PageId, directory: int) -> str:
        return f"{self._folder(page_id.file_id, directory)}/{page_id.page_index}"

    # -- PageStore protocol ---------------------------------------------------

    def put(self, page_id: PageId, data: bytes, directory: int) -> None:
        size = len(data)
        if size > self._page_size:
            raise ValueError(
                f"payload of {size} bytes exceeds page size {self._page_size}"
            )
        view = memoryview(data)
        crcs = [zlib.crc32(view[i : i + SUB_BLOCK]) for i in range(0, size, SUB_BLOCK)]
        crcs.extend([0] * (self._slots - len(crcs)))
        header = self._header.pack(MAGIC, size, *crcs)
        folder = self._folder(page_id.file_id, directory)
        path = f"{folder}/{page_id.page_index}"
        # per-thread temp name: two writers of one page never share a file
        tmp = f"{path}.{threading.get_ident():x}.tmp"
        try:
            fd = self._create(folder, tmp)
            try:
                written = os.writev(fd, (header, view))
            finally:
                os.close(fd)
            if written != len(header) + size:
                raise OSError(errno.ENOSPC, "short write", tmp)
            try:
                previous = os.stat(path).st_size - len(header)
            except FileNotFoundError:
                previous = 0
            os.replace(tmp, path)
        except OSError as exc:
            _discard(tmp)
            if exc.errno == errno.ENOSPC:
                raise NoSpaceLeftError(str(exc)) from exc
            raise
        with self._used_lock:
            self._used[directory] = self._used.get(directory, 0) + size - previous

    def get(
        self, page_id: PageId, directory: int,
        offset: int = 0, length: int | None = None,
        *, timeout: float | None = None,
    ) -> bytes:
        try:
            fd = os.open(self._page_path(page_id, directory), os.O_RDONLY)
        except FileNotFoundError:
            raise PageNotFoundError(str(page_id)) from None
        header_size = self._header.size
        end = self._page_size if length is None else min(offset + length, self._page_size)
        first = offset // SUB_BLOCK
        last = max(first, -(-end // SUB_BLOCK))
        try:
            if first <= 1:  # the header and every block from 0: one read
                first = 0
                head = os.pread(fd, header_size + last * SUB_BLOCK, 0)
                blocks = memoryview(head)[header_size:]
            else:
                head = os.pread(fd, header_size, 0)
                blocks = memoryview(
                    os.pread(
                        fd, (last - first) * SUB_BLOCK,
                        header_size + first * SUB_BLOCK,
                    )
                )
        finally:
            os.close(fd)
        if len(head) < header_size:
            raise PageCorruptedError(f"short header for {page_id}")
        magic, size, *crcs = self._header.unpack_from(head)
        if magic != MAGIC:
            raise PageCorruptedError(f"bad magic for {page_id}")
        base = first * SUB_BLOCK
        if size > self._page_size or len(blocks) > max(size - base, 0):
            raise PageCorruptedError(f"bad length for {page_id}")
        stop = size if length is None else min(offset + length, size)
        if stop <= offset:
            return b""
        if base + len(blocks) < stop:
            raise PageCorruptedError(f"short read for {page_id}")
        if self._verify:
            for index in range(offset // SUB_BLOCK, -(-stop // SUB_BLOCK)):
                start = index * SUB_BLOCK - base
                chunk = blocks[start : min(start + SUB_BLOCK, size - base)]
                if zlib.crc32(chunk) != crcs[index]:
                    raise PageCorruptedError(f"checksum mismatch for {page_id}")
        return bytes(blocks[offset - base : stop - base])

    def delete(self, page_id: PageId, directory: int) -> bool:
        folder = self._folder(page_id.file_id, directory)
        path = f"{folder}/{page_id.page_index}"
        try:
            size = os.stat(path).st_size - self._header.size
            os.unlink(path)
        except FileNotFoundError:
            return False
        with self._used_lock:
            self._used[directory] = self._used.get(directory, 0) - size
        self._prune(folder, page_id.file_id, directory)
        return True

    def contains(self, page_id: PageId, directory: int) -> bool:
        return os.path.exists(self._page_path(page_id, directory))

    def bytes_used(self, directory: int) -> int:
        return self._used.get(directory, 0)

    # -- recovery ---------------------------------------------------------------

    def recover(self, directory: int) -> list[tuple[PageId, int]]:
        """Rebuild ``(page_id, payload size)`` pairs by walking the layout.

        Because page identity is self-contained in names and parent folders,
        no external metadata is needed for recovery -- the property the
        paper's layout was designed for.  Pages whose recorded page size
        differs from this store's are skipped (they belong to an older
        configuration and cannot be indexed consistently).  Temp files of
        interrupted puts, old-layout ``.crc`` sidecars and page files too
        short for a header are removed on the way.
        """
        recovered: list[tuple[PageId, int]] = []
        header_size = self._header.size
        for bucket in _sorted_entries(self._size_dirs[directory]):
            if not bucket.name.startswith("bucket="):
                continue
            for folder in _sorted_entries(bucket.path):
                if not folder.name.startswith("file="):
                    continue
                file_id = unquote(folder.name[len("file="):])
                for entry in _sorted_entries(folder.path):
                    if entry.name.endswith((".tmp", ".crc")):
                        _discard(entry.path)
                        continue
                    try:
                        index = int(entry.name)
                    except ValueError:
                        continue
                    size = entry.stat().st_size - header_size
                    if size < 0:
                        _discard(entry.path)
                        continue
                    recovered.append((PageId(file_id, index), size))
        return recovered

    # -- internals ----------------------------------------------------------------

    def _create(self, folder: str, tmp: str) -> int:
        """Open ``tmp`` for writing, making its folder on first use; a
        concurrent delete may prune the folder again, so go round."""
        while True:
            try:
                return os.open(tmp, _WRITE_FLAGS, 0o644)
            except FileNotFoundError:
                try:
                    os.makedirs(folder, exist_ok=True)
                except (FileNotFoundError, FileExistsError):
                    pass  # pruned under makedirs (it re-checks after EEXIST)

    def _prune(self, folder: str, file_id: str, directory: int) -> None:
        """Remove the file's folder, then its bucket, if now empty; the
        persistent ``page_size`` folder stays (the recovery anchor)."""
        try:
            os.rmdir(folder)
        except OSError:
            return  # ENOTEMPTY: sibling pages remain, the usual answer
        self._folders.pop((directory, file_id), None)
        try:
            os.rmdir(folder.rsplit("/", 1)[0])
        except OSError:
            pass  # other files share the bucket
