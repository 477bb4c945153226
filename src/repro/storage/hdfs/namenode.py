"""The NameNode: namespace, block map, and placement.

Holds files as sequences of block IDs, assigns blocks to DataNodes
round-robin with a replication factor, and brokers the mutations the HDFS
local cache must survive: ``append`` (generation bump on the last block)
and ``delete`` (block removal).  Because the NameNode "has already
maintained a metadata table recording the location of each data block"
(Section 6.2.1), clients need no soft-affinity scheduling here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.errors import BlockNotFoundError, FileNotFoundInStorageError
from repro.storage.hdfs.block import Block, BlockId
from repro.storage.hdfs.datanode import DataNode


@dataclass(frozen=True, slots=True)
class FileStatus:
    """What a client learns about a file: its blocks and total length."""

    path: str
    blocks: tuple[BlockId, ...]
    length: int


class NameNode:
    """Namespace + block placement over a set of DataNodes."""

    def __init__(
        self,
        datanodes: list[DataNode],
        *,
        block_size: int = 128 * 1024 * 1024,
        replication: int = 1,
    ) -> None:
        if not datanodes:
            raise ValueError("at least one DataNode is required")
        if block_size <= 0:
            raise ValueError(f"block_size must be positive, got {block_size}")
        if not 1 <= replication <= len(datanodes):
            raise ValueError(
                f"replication must be in [1, {len(datanodes)}], got {replication}"
            )
        self.datanodes = list(datanodes)
        self.block_size = block_size
        self.replication = replication
        self._files: dict[str, list[BlockId]] = {}
        self._locations: dict[int, list[DataNode]] = {}  # by bare block_id
        self._lengths: dict[int, int] = {}  # metadata table (Section 6.2.1)
        self._block_counter = itertools.count()
        self._placement_cursor = 0

    # -- namespace ----------------------------------------------------------

    def create_file(self, path: str, data: bytes) -> FileStatus:
        """Write a file, splitting into blocks and placing replicas."""
        if path in self._files:
            raise ValueError(f"file already exists: {path}")
        blocks: list[BlockId] = []
        for offset in range(0, max(len(data), 1), self.block_size):
            chunk = data[offset : offset + self.block_size]
            identity = BlockId(next(self._block_counter), generation_stamp=1)
            block = Block(identity=identity, data=chunk)
            for node in self._place():
                node.store_block(block)
                self._locations.setdefault(identity.block_id, []).append(node)
            self._lengths[identity.block_id] = len(chunk)
            blocks.append(identity)
        self._files[path] = blocks
        return self.get_file_status(path)

    def _place(self) -> list[DataNode]:
        chosen = []
        for i in range(self.replication):
            node = self.datanodes[(self._placement_cursor + i) % len(self.datanodes)]
            chosen.append(node)
        self._placement_cursor = (self._placement_cursor + 1) % len(self.datanodes)
        return chosen

    def get_file_status(self, path: str) -> FileStatus:
        try:
            blocks = self._files[path]
        except KeyError:
            raise FileNotFoundInStorageError(path) from None
        length = sum(self._block_length(b) for b in blocks)
        return FileStatus(path=path, blocks=tuple(blocks), length=length)

    def _block_length(self, identity: BlockId) -> int:
        # answered from the NameNode's own metadata table (Section 6.2.1),
        # so file status never depends on DataNode availability
        try:
            return self._lengths[identity.block_id]
        except KeyError:
            raise BlockNotFoundError(str(identity)) from None

    def block_length(self, identity: BlockId) -> int:
        """Metadata-table lookup of one block's length (no DataNode I/O)."""
        return self._block_length(identity)

    def exists(self, path: str) -> bool:
        return path in self._files

    # -- block operations ---------------------------------------------------------

    def locate_block(self, identity: BlockId) -> list[DataNode]:
        """DataNodes holding replicas of this block."""
        nodes = self._locations.get(identity.block_id)
        if not nodes:
            raise BlockNotFoundError(str(identity))
        return list(nodes)

    def append_to_file(self, path: str, extra: bytes) -> BlockId:
        """Append to the file's last block; returns its new identity.

        The generation stamp bumps on every replica; the file's block list
        is updated to reference the new version (Section 6.2.3).
        """
        status = self.get_file_status(path)
        if not status.blocks:
            raise ValueError(f"file has no blocks: {path}")
        last = status.blocks[-1]
        new_identity: BlockId | None = None
        for node in self.locate_block(last):
            new_identity = node.append_block(last, extra)
        assert new_identity is not None
        self._lengths[last.block_id] = self._lengths.get(last.block_id, 0) + len(extra)
        self._files[path][-1] = new_identity
        return new_identity

    def delete_file(self, path: str) -> list[BlockId]:
        """Remove a file and its block replicas; returns the removed blocks."""
        try:
            blocks = self._files.pop(path)
        except KeyError:
            raise FileNotFoundInStorageError(path) from None
        for identity in blocks:
            self._lengths.pop(identity.block_id, None)
            for node in self._locations.pop(identity.block_id, []):
                node.delete_block(identity)
        return blocks
