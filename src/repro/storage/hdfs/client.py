"""A DFS client: file-level reads over the NameNode/DataNode pair.

The read path is resilience-aware: every block has up to ``replication``
replica locations, and the client walks them with per-node circuit
breakers (open-breaker nodes are skipped without a connection attempt) and
an exponential-backoff retry loop across replica rounds.  Only when every
replica of a block stays unreachable through the retry budget does the
read fail -- the condition the chaos soak asserts never happens while at
least one replica survives.
"""

from __future__ import annotations

from repro.core.metrics import MetricsRegistry
from repro.errors import DataNodeOfflineError, RetriesExhaustedError
from repro.resilience.health import NodeHealthTracker
from repro.resilience.policy import RetryPolicy
from repro.ports.rng import RngStream
from repro.storage.hdfs.block import BlockId
from repro.storage.hdfs.datanode import BlockReadResult, DataNode
from repro.storage.hdfs.namenode import FileStatus, NameNode
from repro.storage.remote import ReadResult


class DfsClient:
    """Client-side logic: resolve blocks via the NameNode, read from
    DataNodes (failing over across replicas), reassemble file ranges."""

    def __init__(
        self,
        namenode: NameNode,
        *,
        retry_policy: RetryPolicy | None = None,
        health: NodeHealthTracker | None = None,
        metrics: MetricsRegistry | None = None,
        rng: RngStream | None = None,
    ) -> None:
        self.namenode = namenode
        self.retry_policy = (
            retry_policy if retry_policy is not None else RetryPolicy(max_attempts=2)
        )
        self.health = health
        self.metrics = metrics if metrics is not None else MetricsRegistry("dfs-client")
        self.rng = rng if rng is not None else RngStream(0, "dfs/retry")

    def create(self, path: str, data: bytes) -> FileStatus:
        return self.namenode.create_file(path, data)

    def append(self, path: str, extra: bytes) -> BlockId:
        return self.namenode.append_to_file(path, extra)

    def delete(self, path: str) -> list[BlockId]:
        return self.namenode.delete_file(path)

    def file_length(self, path: str) -> int:
        return self.namenode.get_file_status(path).length

    # -- replica failover ----------------------------------------------------

    def _read_from_replicas(
        self, nodes: list[DataNode], identity: BlockId, offset: int, length: int
    ) -> BlockReadResult:
        """Read one block range, failing over across replicas.

        Walks the replica list per round, skipping open-breaker nodes;
        between rounds the retry policy charges its backoff as latency.
        """
        policy = self.retry_policy
        extra_latency = 0.0
        last_exc: Exception | None = None
        for round_number in range(1, policy.max_attempts + 1):
            for node in nodes:
                breaker = (
                    self.health.breaker_for(node.name)
                    if self.health is not None
                    else None
                )
                if breaker is not None and not breaker.allow():
                    continue
                try:
                    result = node.read_block(identity, offset, length)
                except DataNodeOfflineError as exc:
                    last_exc = exc
                    self.metrics.counter("failovers").inc()
                    self.metrics.record_error("dfs_read", exc)
                    if self.health is not None:
                        self.health.record_failure(node.name)
                    continue
                if self.health is not None:
                    self.health.record_success(node.name)
                if extra_latency:
                    self.metrics.counter("degraded_serves").inc()
                return BlockReadResult(
                    data=result.data, latency=result.latency + extra_latency
                )
            if round_number < policy.max_attempts:
                self.metrics.counter("retries").inc()
                extra_latency += policy.backoff(round_number, self.rng)
        self.metrics.counter("retry_exhausted").inc()
        raise RetriesExhaustedError(
            f"every replica of {identity} failed across "
            f"{policy.max_attempts} rounds"
        ) from last_exc

    # -- reads ---------------------------------------------------------------

    def read(self, path: str, offset: int, length: int) -> ReadResult:
        """Ranged read across block boundaries; latency sums DataNode I/O."""
        status = self.namenode.get_file_status(path)
        if offset < 0 or length < 0:
            raise ValueError(f"offset/length must be >= 0, got {offset}/{length}")
        parts: list[bytes] = []
        latency = 0.0
        position = 0
        remaining_offset = offset
        remaining_length = min(length, max(status.length - offset, 0))
        for identity in status.blocks:
            nodes = self.namenode.locate_block(identity)
            # block length comes from the NameNode's metadata table, so
            # range planning works even while replicas are down
            block_length = self.namenode.block_length(identity)
            block_start = position
            position += block_length
            if remaining_length <= 0:
                break
            if remaining_offset >= position:
                continue
            in_block = max(remaining_offset - block_start, 0)
            take = min(block_length - in_block, remaining_length)
            result = self._read_from_replicas(nodes, identity, in_block, take)
            parts.append(result.data)
            latency += result.latency
            remaining_offset += take
            remaining_length -= take
        return ReadResult(data=b"".join(parts), latency=latency)

    def read_fully(self, path: str) -> ReadResult:
        return self.read(path, 0, self.file_length(path))
