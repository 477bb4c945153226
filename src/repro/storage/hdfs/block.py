"""HDFS blocks: data + checksum metadata, versioned by generation stamps.

Section 6.2.3: "HDFS employs a versioning system where each block is
assigned a *generation stamp*.  Each invocation of the append operation
increments the block's generation stamp."  The HDFS local cache keys cache
entries by ``(blockId, generationStamp)`` for snapshot isolation -- readers
of the old version keep reading old pages while an append is in flight.

A DataNode stores each block as two files: the block file and a metadata
file holding checksums of the block's chunks; "either both ... are read
from the cache, or both from their original locations, never any mix."
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

CHECKSUM_CHUNK = 512  # HDFS checksums data in 512-byte chunks by default


@dataclass(frozen=True, slots=True)
class BlockId:
    """Identity of one block version."""

    block_id: int
    generation_stamp: int

    def __post_init__(self) -> None:
        if self.block_id < 0 or self.generation_stamp < 0:
            raise ValueError(
                f"ids must be >= 0, got {self.block_id}/{self.generation_stamp}"
            )

    def next_generation(self) -> "BlockId":
        """The identity after one append (generation stamp + 1)."""
        return BlockId(self.block_id, self.generation_stamp + 1)

    def cache_key(self) -> str:
        """The snapshot-isolation cache key: ``blk_<id>@gs<stamp>``."""
        return f"blk_{self.block_id}@gs{self.generation_stamp}"

    def __str__(self) -> str:
        return self.cache_key()


@dataclass(frozen=True, slots=True)
class BlockMetaFile:
    """The checksum metadata file paired with a block file."""

    checksums: tuple[int, ...]

    @classmethod
    def for_data(cls, data: bytes) -> "BlockMetaFile":
        sums = tuple(
            zlib.crc32(data[i : i + CHECKSUM_CHUNK])
            for i in range(0, max(len(data), 1), CHECKSUM_CHUNK)
        )
        return cls(checksums=sums)

    @property
    def size_bytes(self) -> int:
        """Approximate on-disk size of the meta file (4 bytes per chunk + header)."""
        return 7 + 4 * len(self.checksums)


@dataclass(slots=True)
class Block:
    """One finalized block replica: data, meta file, and version identity."""

    identity: BlockId
    data: bytes
    meta: BlockMetaFile = field(default=None)  # type: ignore[assignment]
    finalized: bool = True

    def __post_init__(self) -> None:
        if self.meta is None:
            self.meta = BlockMetaFile.for_data(self.data)

    @property
    def length(self) -> int:
        return len(self.data)

    def appended(self, extra: bytes) -> "Block":
        """A new finalized block version with ``extra`` appended and the
        generation stamp bumped (Section 6.2.3 append semantics)."""
        new_data = self.data + extra
        return Block(
            identity=self.identity.next_generation(),
            data=new_data,
            meta=BlockMetaFile.for_data(new_data),
        )
