"""Local-file page store with the paper's on-disk layout (Figure 4).

Cached data is organized in a multi-level hierarchy rooted at each cache
directory::

    <root>/
      page_size=1048576/            top-level folder: persistent global info
        bucket=007/                 hash bucket (bounded directory fan-out)
          file=ab54d?????/          file-ID directory
            42                      page file: page_index 42 of that file
            42.crc                  checksum sidecar

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
"""

from __future__ import annotations

import os
import threading
import zlib
from pathlib import Path
from urllib.parse import quote, unquote

from repro.core.page import PageId
from repro.errors import NoSpaceLeftError, PageCorruptedError, PageNotFoundError

_BUCKETS = 1024


def _bucket_of(file_id: str) -> int:
    return zlib.crc32(file_id.encode("utf-8")) % _BUCKETS


class LocalFilePageStore:
    """Page payloads as real files under one or more root directories.

    Args:
        roots: one filesystem root per cache directory index.
        page_size: cache page size; becomes the top-level layout folder.
        verify_checksums: verify the CRC sidecar on every read.
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
        self._roots = [Path(r) for r in roots]
        self._page_size = page_size
        self._verify = verify_checksums
        self._used: dict[int, int] = {}
        # usage accounting is a read-modify-write shared by every put and
        # delete; the manager's striped page locks do not cover it, so it
        # needs its own lock to stay exact under concurrent writers
        self._used_lock = threading.Lock()
        for index, root in enumerate(self._roots):
            (root / f"page_size={page_size}").mkdir(parents=True, exist_ok=True)
            self._used[index] = self._scan_usage(index)

    # -- layout ------------------------------------------------------------

    def _file_dir(self, file_id: str, directory: int) -> Path:
        return (
            self._roots[directory]
            / f"page_size={self._page_size}"
            / f"bucket={_bucket_of(file_id):04d}"
            / f"file={quote(file_id, safe='')}"
        )

    def _page_path(self, page_id: PageId, directory: int) -> Path:
        return self._file_dir(page_id.file_id, directory) / str(page_id.page_index)

    # -- PageStore protocol ---------------------------------------------------

    def put(self, page_id: PageId, data: bytes, directory: int) -> None:
        path = self._page_path(page_id, directory)
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            # Write-then-rename so a page is never visible half-written;
            # the paper makes pages readable only once their write completes.
            tmp = path.with_suffix(".tmp")
            tmp.write_bytes(data)
            tmp.with_suffix(".crc.tmp").write_bytes(
                zlib.crc32(data).to_bytes(4, "big")
            )
            os.replace(tmp.with_suffix(".crc.tmp"), path.with_suffix(".crc"))
            previous = path.stat().st_size if path.exists() else 0
            os.replace(tmp, path)
        except OSError as exc:
            if exc.errno == 28:  # ENOSPC
                raise NoSpaceLeftError(str(exc)) from exc
            raise
        with self._used_lock:
            self._used[directory] = (
                self._used.get(directory, 0) + len(data) - previous
            )

    def get(
        self, page_id: PageId, directory: int,
        offset: int = 0, length: int | None = None,
        *, timeout: float | None = None,
    ) -> bytes:
        path = self._page_path(page_id, directory)
        if not path.exists():
            raise PageNotFoundError(str(page_id))
        data = path.read_bytes()
        if self._verify:
            crc_path = path.with_suffix(".crc")
            if not crc_path.exists():
                raise PageCorruptedError(f"missing checksum for {page_id}")
            expected = int.from_bytes(crc_path.read_bytes(), "big")
            if zlib.crc32(data) != expected:
                raise PageCorruptedError(f"checksum mismatch for {page_id}")
        if length is None:
            return data[offset:]
        return data[offset : offset + length]

    def delete(self, page_id: PageId, directory: int) -> bool:
        path = self._page_path(page_id, directory)
        if not path.exists():
            return False
        size = path.stat().st_size
        path.unlink()
        crc_path = path.with_suffix(".crc")
        if crc_path.exists():
            crc_path.unlink()
        with self._used_lock:
            self._used[directory] = self._used.get(directory, 0) - size
        self._prune_empty_dirs(path.parent, directory)
        return True

    def contains(self, page_id: PageId, directory: int) -> bool:
        return self._page_path(page_id, directory).exists()

    def bytes_used(self, directory: int) -> int:
        return self._used.get(directory, 0)

    # -- recovery ---------------------------------------------------------------

    def recover(self, directory: int) -> list[tuple[PageId, int]]:
        """Rebuild ``(page_id, size)`` pairs by walking the layout.

        Because page identity is self-contained in names and parent folders,
        no external metadata is needed for recovery -- the property the
        paper's layout was designed for.  Pages whose recorded page size
        differs from this store's are skipped (they belong to an older
        configuration and cannot be indexed consistently).
        """
        recovered: list[tuple[PageId, int]] = []
        size_dir = self._roots[directory] / f"page_size={self._page_size}"
        if not size_dir.exists():
            return recovered
        for bucket_dir in sorted(size_dir.iterdir()):
            if not bucket_dir.name.startswith("bucket="):
                continue
            for file_dir in sorted(bucket_dir.iterdir()):
                if not file_dir.name.startswith("file="):
                    continue
                file_id = unquote(file_dir.name[len("file="):])
                for page_file in sorted(file_dir.iterdir()):
                    if page_file.suffix:  # .crc / .tmp sidecars
                        continue
                    try:
                        index = int(page_file.name)
                    except ValueError:
                        continue
                    recovered.append(
                        (PageId(file_id, index), page_file.stat().st_size)
                    )
        return recovered

    # -- internals ----------------------------------------------------------------

    def _scan_usage(self, directory: int) -> int:
        total = 0
        for page_id, size in self.recover(directory):
            total += size
        return total

    def _prune_empty_dirs(self, start: Path, directory: int) -> None:
        root = self._roots[directory]
        current = start
        while current != root and current.exists() and not any(current.iterdir()):
            if current.name.startswith("page_size="):
                break  # keep the persistent top-level folder
            current.rmdir()
            current = current.parent
