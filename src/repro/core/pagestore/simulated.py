"""Simulated-SSD page store: real payloads, virtual timing, injectable faults.

Used by every benchmark: payloads live in memory -- whatever bytes the
caller puts are the bytes a hit returns, so the cache's slicing, joining
and accounting are fully exercised -- while read/write *latency* is charged
to a :class:`~repro.storage.device.StorageDevice` on the simulation clock.
Over a simulated source the payloads are shared zero pages
(:func:`~repro.storage.remote.zero_bytes`), so a resident page costs its
metadata, not its size (DESIGN.md §16).  The three production failure modes
of Section 8 are injectable:

- **read hang** -- a read takes pathologically long (the paper saw up to 10
  minutes); if the modelled latency exceeds the caller's timeout budget the
  store raises :class:`~repro.errors.CacheReadTimeoutError` so the cache
  manager can fall back to remote storage.  On the event kernel the owning
  process then waits out only its timeout budget, not the hang.
- **corruption** -- a page's payload is flagged corrupt; reads raise
  :class:`~repro.errors.PageCorruptedError`.
- **ENOSPC** -- the device reports full below the configured cache
  capacity; puts raise :class:`~repro.errors.NoSpaceLeftError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from repro.core.page import PageId
from repro.core.pagestore.memory import MemoryPageStore
from repro.errors import CacheReadTimeoutError, NoSpaceLeftError, PageCorruptedError
from repro.sim.kernel import Timeout, defer_io, io_collection_active
from repro.storage.device import StorageDevice


def _timeout_error(page_id: PageId, latency: float, timeout: float) -> Exception:
    return CacheReadTimeoutError(
        f"read of {page_id} took {latency:.3f}s > timeout {timeout:.3f}s"
    )


def _stall(seconds: float):
    """Replay op: the owning process waits ``seconds``."""
    yield Timeout(seconds)
    return seconds


@dataclass(slots=True)
class FaultPlan:
    """Failure injection state for a simulated store.

    Attributes:
        corrupted: pages whose next read raises ``PageCorruptedError``.
        hang_reads_seconds: when set, every read stalls this long before
            completing (compare against the read timeout budget).
        physical_full_after_bytes: device-level capacity per directory; puts
            beyond it raise ``NoSpaceLeftError`` regardless of configured
            cache capacity.
        read_corruption_probability: each read independently fails its
            checksum with this probability (a decaying SSD region), on top
            of the explicit ``corrupted`` set.
        write_failure_probability: each put independently fails with this
            probability (the Section 8 "inability to write new data"
            failure mode), surfacing as ``NoSpaceLeftError`` so the cache's
            early-eviction mitigation engages.
        rng: random stream for the probabilistic modes (required when
            either probability is non-zero).
    """

    corrupted: set[PageId] = field(default_factory=set)
    hang_reads_seconds: float | None = None
    physical_full_after_bytes: int | None = None
    read_corruption_probability: float = 0.0
    write_failure_probability: float = 0.0
    rng: object = None

    def __post_init__(self) -> None:
        for name in ("read_corruption_probability", "write_failure_probability"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
            if value > 0 and self.rng is None:
                raise ValueError(f"{name} > 0 requires an rng")


class SimulatedSsdPageStore:
    """Memory-backed page store that charges SSD latency to a device model."""

    def __init__(
        self,
        device: StorageDevice,
        faults: FaultPlan | None = None,
    ) -> None:
        self._backing = MemoryPageStore()
        self._device = device
        self.faults = faults if faults is not None else FaultPlan()
        self.last_op_latency = 0.0

    @property
    def device(self) -> StorageDevice:
        return self._device

    # -- PageStore protocol ------------------------------------------------

    def put(self, page_id: PageId, data: bytes, directory: int) -> None:
        limit = self.faults.physical_full_after_bytes
        if limit is not None and self._backing.bytes_used(directory) + len(data) > limit:
            raise NoSpaceLeftError(
                f"simulated device full (dir={directory}, limit={limit})"
            )
        if self.faults.write_failure_probability > 0 and (
            self.faults.rng.rng.random() < self.faults.write_failure_probability
        ):
            raise NoSpaceLeftError(
                f"injected write failure on {page_id} (dir={directory})"
            )
        self.last_op_latency = self._device.write(len(data))
        self._backing.put(page_id, data, directory)

    def get(
        self, page_id: PageId, directory: int,
        offset: int = 0, length: int | None = None,
        *, timeout: float | None = None,
    ) -> bytes:
        data = self._backing.get(page_id, directory, offset, length)
        faults = self.faults
        if page_id in faults.corrupted:
            raise PageCorruptedError(f"injected corruption on {page_id}")
        if faults.read_corruption_probability > 0 and (
            faults.rng.rng.random() < faults.read_corruption_probability
        ):
            raise PageCorruptedError(
                f"injected probabilistic corruption on {page_id}"
            )
        if faults.hang_reads_seconds is not None:
            return self._hung_get(page_id, data, faults.hang_reads_seconds, timeout)
        latency = self._device.read(len(data))
        self.last_op_latency = latency
        if timeout is not None and latency > timeout:
            raise _timeout_error(page_id, latency, timeout)
        return data

    def _hung_get(
        self, page_id: PageId, data: bytes, hang: float, timeout: float | None
    ) -> bytes:
        """A read that stalls ``hang`` seconds on top of the device time."""
        device = self._device
        if io_collection_active() and device.kernel_attached:
            # kernel process: the device time is lived at replay and reported
            # here as 0, so the read times out iff the hang alone exceeds
            # the budget.  Then the owning process waits out the budget and
            # falls back; the transfer and the hang it gave up on are never
            # replayed.
            self.last_op_latency = hang
            if timeout is not None and hang > timeout:
                defer_io(partial(_stall, timeout))
                raise _timeout_error(page_id, hang, timeout)
            device.read(len(data))
            defer_io(partial(_stall, hang))
            return data
        # outside a kernel process: the caller is charged nothing for a
        # timed-out wait (a known divergence from the kernel path above)
        latency = device.read(len(data)) + hang
        self.last_op_latency = latency
        if timeout is not None and latency > timeout:
            raise _timeout_error(page_id, latency, timeout)
        return data

    def delete(self, page_id: PageId, directory: int) -> bool:
        self.faults.corrupted.discard(page_id)
        return self._backing.delete(page_id, directory)

    def contains(self, page_id: PageId, directory: int) -> bool:
        return self._backing.contains(page_id, directory)

    def bytes_used(self, directory: int) -> int:
        return self._backing.bytes_used(directory)

    # -- fault helpers ---------------------------------------------------------

    def corrupt(self, page_id: PageId) -> None:
        """Mark a resident page as corrupted (takes effect on next read)."""
        self.faults.corrupted.add(page_id)
