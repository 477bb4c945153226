"""An HDFS subset: the substrate the HDFS local cache embeds into.

Implements just enough of HDFS semantics for the Section 6.2 case study:

- :mod:`~repro.storage.hdfs.block` -- blocks identified by ``(blockId,
  generationStamp)`` with a paired checksum metadata file; appends bump the
  generation stamp.
- :mod:`~repro.storage.hdfs.namenode` -- the namespace: files as block
  sequences, block -> DataNode placement, create/append/delete.
- :mod:`~repro.storage.hdfs.datanode` -- serves block reads off an HDD
  device model (the queue where "blocked processes" accumulate); finalized
  blocks only.
- :mod:`~repro.storage.hdfs.client` -- a DFS client tying the pieces
  together for whole-file and ranged reads.
"""

from repro.storage.hdfs.block import Block, BlockId, BlockMetaFile
from repro.storage.hdfs.client import DfsClient
from repro.storage.hdfs.datanode import DataNode
from repro.storage.hdfs.namenode import FileStatus, NameNode

__all__ = [
    "Block",
    "BlockId",
    "BlockMetaFile",
    "NameNode",
    "FileStatus",
    "DataNode",
    "DfsClient",
]
