"""The DataNode: block storage on an HDD device model.

Blocks live on the node's HDD (the dense, bandwidth-starved SKU of Section
2.2); every read/write is charged to the device model, whose bounded
concurrency produces the queueing ("blocked processes") that Figure 14
measures.  Only finalized blocks are served; an append produces a new
finalized version under a bumped generation stamp, with the old version
retained until the NameNode-driven replacement completes -- giving the
cache the snapshot it isolates on.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import BlockNotFoundError, DataNodeOfflineError, StaleReadError
from repro.obs.tracer import current_tracer
from repro.ports.clock import Clock, SimClock
from repro.storage.hdfs.block import Block, BlockId
from repro.storage.device import DeviceProfile, StorageDevice


@dataclass(frozen=True, slots=True)
class BlockReadResult:
    """A block-range read plus the HDD latency it cost."""

    data: bytes
    latency: float


class DataNode:
    """One DataNode: versioned block replicas on a modelled HDD."""

    def __init__(
        self,
        name: str,
        *,
        device: StorageDevice | None = None,
        clock: Clock | None = None,
    ) -> None:
        self.name = name
        self.clock = clock if clock is not None else SimClock()
        self.device = (
            device
            if device is not None
            else StorageDevice(DeviceProfile.hdd_high_density(), self.clock)
        )
        # bare block_id -> {generation_stamp -> Block}
        self._blocks: dict[int, dict[int, Block]] = {}
        self.restart_count = 0
        self.online = True

    # -- storage ----------------------------------------------------------------

    def store_block(self, block: Block) -> None:
        """Finalize a block replica (data + meta file written to the HDD)."""
        self.device.write(block.length + block.meta.size_bytes)
        self._blocks.setdefault(block.identity.block_id, {})[
            block.identity.generation_stamp
        ] = block

    def block_length(self, identity: BlockId) -> int:
        self._check_online()
        return self._get(identity).length

    def _check_online(self) -> None:
        if not self.online:
            raise DataNodeOfflineError(f"DataNode {self.name} is offline")

    def _get(self, identity: BlockId) -> Block:
        versions = self._blocks.get(identity.block_id)
        if not versions:
            raise BlockNotFoundError(str(identity))
        block = versions.get(identity.generation_stamp)
        if block is None:
            # the caller holds a stale (or future) generation stamp
            raise StaleReadError(
                f"{identity} not present; live stamps: {sorted(versions)}"
            )
        return block

    # -- reads ---------------------------------------------------------------------

    def read_block(
        self, identity: BlockId, offset: int = 0, length: int | None = None
    ) -> BlockReadResult:
        """Ranged read of one block version off the HDD.

        Reads both the block bytes and (implicitly) the matching meta file
        -- never a mix of versions (Section 6.2.1's all-or-nothing rule is
        guaranteed by versioned storage: a generation stamp addresses one
        immutable (block, meta) pair).
        """
        self._check_online()
        block = self._get(identity)
        if length is None:
            length = block.length - offset
        data = block.data[offset : offset + length]
        tracer = current_tracer()
        with tracer.span("hdd_read", actor=self.name) as span:
            latency = self.device.read(len(data))
            span.charge("remote", latency)
        return BlockReadResult(data=data, latency=latency)

    # -- mutations ------------------------------------------------------------------

    def append_block(self, identity: BlockId, extra: bytes) -> BlockId:
        """Append to a block: new version under a bumped generation stamp.

        The previous version is dropped once the new one is finalized (as
        in HDFS, where the block file is replaced); cache entries keyed by
        the old stamp simply become unreachable and age out.
        """
        block = self._get(identity)
        new_block = block.appended(extra)
        self.store_block(new_block)
        del self._blocks[identity.block_id][identity.generation_stamp]
        return new_block.identity

    def delete_block(self, identity: BlockId) -> bool:
        """Delete every version of the block (HDFS deletes by block, and a
        deleted block's history goes with it)."""
        return self._blocks.pop(identity.block_id, None) is not None

    def restart(self) -> None:
        """Simulate a DataNode process restart (Section 6.2.3: the cache's
        in-memory block mapping is lost; callers must clear their cache)."""
        self.restart_count += 1

    def fail(self) -> None:
        """Crash the node: reads are refused until :meth:`recover`.

        Only the read path is gated -- the chaos scenarios exercise
        degraded *serving*; block placement/writes stay NameNode business.
        """
        self.online = False

    def recover(self) -> None:
        """Bring the node back; its finalized blocks survived on the HDD."""
        self.online = True
