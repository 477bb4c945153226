"""``DataSource``: the external storage interface the cache reads through.

Figure 3's "data sources" box.  A source serves positional reads and
reports the modelled latency of each; the cache manager charges that
latency on misses (read-through) and on fallback paths (timeouts,
corruption).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Protocol, runtime_checkable

from repro.errors import FileNotFoundInStorageError
from repro.obs.tracer import current_tracer
from repro.sim.kernel import (
    IO_PLANS,
    Cancelled,
    Timeout,
    charge_wasted_bytes,
    current_kernel,
)
from repro.storage.object_store import ObjectStore


@dataclass(frozen=True, slots=True)
class ReadResult:
    """Outcome of a positional read against a source or the cache."""

    data: bytes
    latency: float


# Distinct payload sizes `zero_bytes` keeps.  A simulated scan asks for a
# handful (the page size, short last pages, a table's column-chunk sizes).
ZERO_SIZES_KEPT = 64


@lru_cache(maxsize=ZERO_SIZES_KEPT)
def zero_bytes(size: int) -> bytes:
    """``size`` zero bytes, one shared immutable object per size.

    Simulated sources hand these out instead of a fresh buffer per read: no
    caller of a simulated read looks at the bytes, only at their length
    (DESIGN.md §16).  ``bytes`` is immutable, so sharing is safe, and a page
    store that keeps ``bytes(data)`` keeps a reference, not a copy.
    """
    return bytes(size)


def _remote_transfer(actor: str, nbytes: int, latency: float):
    """Replay op: experience a remote transfer of ``latency`` s.

    Cancellation mid-transfer charges the partial time and accounts the
    bytes already streamed as wasted (the hedge-loser signal).  With
    tracing off no span is opened and no charge is made.
    """
    tracer = current_tracer()
    clock = current_kernel().clock
    span = None
    if tracer.enabled:
        span = tracer.span("remote_read", actor=actor, size=nbytes)
    try:
        started = clock.now()
        try:
            yield Timeout(latency)
        except Cancelled:
            moved = clock.now() - started
            if span is not None:
                span.charge("remote", moved)
            if latency > 0:
                charge_wasted_bytes(int(nbytes * moved / latency))
            raise
        if span is not None:
            span.charge("remote", latency)
    except BaseException as exc:
        if span is not None:  # what `with span:` records
            span.annotate("error", type(exc).__name__)
        raise
    finally:
        if span is not None:
            span.finish()
    return latency


@runtime_checkable
class DataSource(Protocol):
    """A remote file namespace supporting ranged reads."""

    def file_length(self, file_id: str) -> int:
        ...

    def read(self, file_id: str, offset: int, length: int) -> ReadResult:
        ...


class SyntheticDataSource:
    """Deterministic synthetic file contents with a modelled latency.

    Files are registered with a length; contents are generated on demand
    from ``sha256(file_id || block_index)`` so any byte range is
    reproducible without storing petabytes.  Latency follows the
    object-store formula ``base_latency + size / bandwidth``.
    """

    _CHUNK = 64  # one sha256 digest covers 64 bytes via double expansion

    def __init__(
        self, *, base_latency: float = 0.03, bandwidth: float = 120e6
    ) -> None:
        if base_latency < 0:
            raise ValueError("base_latency must be >= 0")
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        self.base_latency = base_latency
        self.bandwidth = bandwidth
        self._lengths: dict[str, int] = {}
        self.request_count = 0
        self.bytes_served = 0

    def add_file(self, file_id: str, length: int) -> None:
        if length < 0:
            raise ValueError(f"length must be >= 0, got {length}")
        self._lengths[file_id] = length

    def file_length(self, file_id: str) -> int:
        try:
            return self._lengths[file_id]
        except KeyError:
            raise FileNotFoundInStorageError(file_id) from None

    def file_ids(self) -> list[str]:
        return sorted(self._lengths)

    def read(self, file_id: str, offset: int, length: int) -> ReadResult:
        total = self.file_length(file_id)
        if offset < 0 or length < 0:
            raise ValueError(f"offset/length must be >= 0, got {offset}/{length}")
        end = min(offset + length, total)
        if offset >= total:
            data = b""
        else:
            data = self._generate(file_id, offset, end - offset)
        self.request_count += 1
        self.bytes_served += len(data)
        latency = self.base_latency + len(data) / self.bandwidth
        if IO_PLANS:
            IO_PLANS[-1].append(
                partial(_remote_transfer, "synthetic-source", len(data), latency)
            )
            return ReadResult(data=data, latency=0.0)
        return ReadResult(data=data, latency=latency)

    def _generate(self, file_id: str, offset: int, length: int) -> bytes:
        first_chunk = offset // self._CHUNK
        last_chunk = (offset + length - 1) // self._CHUNK
        parts: list[bytes] = []
        for chunk in range(first_chunk, last_chunk + 1):
            seed = hashlib.sha256(f"{file_id}:{chunk}".encode("utf-8")).digest()
            parts.append(seed + hashlib.sha256(seed).digest())
        blob = b"".join(parts)
        start = offset - first_chunk * self._CHUNK
        return blob[start : start + length]


class NullDataSource:
    """Zero-filled synthetic files: the fastest possible source.

    Benchmarks that only measure latency/byte accounting (not content
    correctness) use this to avoid the hashing cost of
    :class:`SyntheticDataSource` while keeping the identical latency model.
    Every read of one length returns the same shared :func:`zero_bytes`
    object.
    """

    def __init__(
        self, *, base_latency: float = 0.03, bandwidth: float = 120e6
    ) -> None:
        if base_latency < 0:
            raise ValueError("base_latency must be >= 0")
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        self.base_latency = base_latency
        self.bandwidth = bandwidth
        self._lengths: dict[str, int] = {}
        self.request_count = 0
        self.bytes_served = 0

    def add_file(self, file_id: str, length: int) -> None:
        if length < 0:
            raise ValueError(f"length must be >= 0, got {length}")
        self._lengths[file_id] = length

    def file_length(self, file_id: str) -> int:
        try:
            return self._lengths[file_id]
        except KeyError:
            raise FileNotFoundInStorageError(file_id) from None

    def read(self, file_id: str, offset: int, length: int) -> ReadResult:
        total = self.file_length(file_id)
        if offset < 0 or length < 0:
            raise ValueError(f"offset/length must be >= 0, got {offset}/{length}")
        size = max(min(offset + length, total) - offset, 0)
        self.request_count += 1
        self.bytes_served += size
        latency = self.base_latency + size / self.bandwidth
        if IO_PLANS:
            IO_PLANS[-1].append(partial(_remote_transfer, "null-source", size, latency))
            return ReadResult(data=zero_bytes(size), latency=0.0)
        return ReadResult(data=zero_bytes(size), latency=latency)


class ObjectStoreDataSource:
    """Adapts an :class:`~repro.storage.object_store.ObjectStore` to
    :class:`DataSource` (real payloads, modelled latency and throttling)."""

    def __init__(self, store: ObjectStore) -> None:
        self._store = store
        # queueing share (throttle wait) of the last read's latency,
        # forwarded from the store for latency attribution
        self.last_queue_wait = 0.0

    @property
    def store(self) -> ObjectStore:
        return self._store

    def file_length(self, file_id: str) -> int:
        return self._store.object_length(file_id)

    def read(self, file_id: str, offset: int, length: int) -> ReadResult:
        data, latency = self._store.get_range(file_id, offset, length)
        self.last_queue_wait = self._store.last_throttle_wait
        return ReadResult(data=data, latency=latency)
