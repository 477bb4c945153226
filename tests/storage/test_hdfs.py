"""Tests for the HDFS subset: blocks, NameNode, DataNode, client."""

import pytest

from repro.errors import (
    BlockNotFoundError,
    DataNodeOfflineError,
    FileNotFoundInStorageError,
    StaleReadError,
)
from repro.ports.clock import SimClock
from repro.sim.kernel import Kernel, collecting_io, replay_plan
from repro.storage.hdfs import Block, BlockId, BlockMetaFile, DataNode, DfsClient, NameNode


def make_cluster(n_nodes=2, block_size=1000, replication=1):
    clock = SimClock()
    nodes = [DataNode(f"dn{i}", clock=clock) for i in range(n_nodes)]
    namenode = NameNode(nodes, block_size=block_size, replication=replication)
    return clock, nodes, namenode, DfsClient(namenode)


class TestBlockId:
    def test_validation(self):
        with pytest.raises(ValueError):
            BlockId(-1, 0)

    def test_next_generation(self):
        identity = BlockId(7, 1)
        assert identity.next_generation() == BlockId(7, 2)

    def test_cache_key(self):
        assert BlockId(17, 5).cache_key() == "blk_17@gs5"
        assert str(BlockId(17, 5)) == "blk_17@gs5"


class TestBlockMetaFile:
    def test_checksums_verify(self):
        meta = BlockMetaFile.for_data(b"x" * 2000)
        assert meta == BlockMetaFile.for_data(b"x" * 2000)
        assert meta != BlockMetaFile.for_data(b"y" * 2000)
        assert len(meta.checksums) == 4  # ceil(2000/512)

    def test_size_bytes(self):
        meta = BlockMetaFile.for_data(b"x" * 512)
        assert meta.size_bytes == 7 + 4


class TestBlock:
    def test_append_bumps_generation(self):
        block = Block(identity=BlockId(1, 1), data=b"abc")
        appended = block.appended(b"def")
        assert appended.identity == BlockId(1, 2)
        assert appended.data == b"abcdef"
        assert appended.meta == BlockMetaFile.for_data(b"abcdef")
        assert block.data == b"abc"  # original immutable

    def test_auto_meta(self):
        block = Block(identity=BlockId(1, 1), data=b"abc")
        assert block.meta == BlockMetaFile.for_data(b"abc")
        assert block.length == 3


class TestNameNode:
    def test_create_splits_into_blocks(self):
        __, __, namenode, client = make_cluster(block_size=1000)
        status = client.create("/f", b"z" * 2500)
        assert len(status.blocks) == 3
        assert status.length == 2500
        assert namenode.exists("/f")
        assert namenode.get_file_status("/f").length == 2500

    def test_duplicate_create_rejected(self):
        __, __, __, client = make_cluster()
        client.create("/f", b"x")
        with pytest.raises(ValueError):
            client.create("/f", b"x")

    def test_missing_file_raises(self):
        __, __, namenode, __ = make_cluster()
        with pytest.raises(FileNotFoundInStorageError):
            namenode.get_file_status("/nope")

    def test_placement_round_robin(self):
        __, nodes, namenode, client = make_cluster(n_nodes=2, block_size=100)
        (first,) = client.create("/a", b"x" * 100).blocks
        (second,) = client.create("/b", b"x" * 100).blocks
        assert namenode.locate_block(first) == [nodes[0]]
        assert namenode.locate_block(second) == [nodes[1]]

    def test_replication(self):
        __, nodes, namenode, client = make_cluster(n_nodes=3, replication=2)
        status = client.create("/f", b"x" * 10)
        located = namenode.locate_block(status.blocks[0])
        assert len(located) == 2

    def test_invalid_config(self):
        clock = SimClock()
        nodes = [DataNode("dn0", clock=clock)]
        with pytest.raises(ValueError):
            NameNode([], block_size=10)
        with pytest.raises(ValueError):
            NameNode(nodes, block_size=0)
        with pytest.raises(ValueError):
            NameNode(nodes, replication=2)

    def test_locate_unknown_block(self):
        __, __, namenode, __ = make_cluster()
        with pytest.raises(BlockNotFoundError):
            namenode.locate_block(BlockId(999, 1))

    def test_delete_removes_replicas(self):
        __, nodes, __, client = make_cluster(n_nodes=1, block_size=100)
        blocks = client.create("/f", b"x" * 250).blocks
        removed = client.delete("/f")
        assert len(removed) == 3
        for identity in blocks:
            with pytest.raises(BlockNotFoundError):
                nodes[0].read_block(identity)
        with pytest.raises(FileNotFoundInStorageError):
            client.delete("/f")


class TestAppend:
    def test_append_updates_file_and_stamp(self):
        __, __, __, client = make_cluster(block_size=1000)
        status = client.create("/f", b"a" * 1500)
        old_last = status.blocks[-1]
        new_identity = client.append("/f", b"b" * 100)
        assert new_identity.generation_stamp == old_last.generation_stamp + 1
        assert client.file_length("/f") == 1600
        data = client.read("/f", 1400, 200).data
        assert data == b"a" * 100 + b"b" * 100

    def test_stale_generation_read_fails(self):
        """Readers holding a pre-append stamp can no longer read the node's
        replaced block (the cache isolates them with its own snapshot)."""
        __, nodes, __, client = make_cluster(n_nodes=1, block_size=1000)
        status = client.create("/f", b"a" * 500)
        old = status.blocks[0]
        client.append("/f", b"b")
        with pytest.raises(StaleReadError):
            nodes[0].read_block(old, 0, 10)

    def test_latest_identity(self):
        __, nodes, __, client = make_cluster(n_nodes=1)
        status = client.create("/f", b"a" * 10)
        client.append("/f", b"b")
        (latest,) = client.namenode.get_file_status("/f").blocks
        assert latest == status.blocks[0].next_generation()
        assert nodes[0].read_block(latest).data == b"a" * 10 + b"b"


class TestDataNodeReads:
    def test_ranged_read_with_latency(self):
        __, nodes, __, client = make_cluster(n_nodes=1, block_size=1000)
        status = client.create("/f", bytes(range(256)) * 4)
        result = nodes[0].read_block(status.blocks[0], 10, 20)
        assert result.data == (bytes(range(256)) * 4)[10:30]
        assert result.latency > 0

    def test_hdd_queueing_produces_blocked_requests(self):
        """Burst reads on the single-channel HDD, issued by kernel processes
        at one instant, wait in line."""
        clock, nodes, __, client = make_cluster(n_nodes=1, block_size=10**6)
        client.create("/f", b"x" * 10**6)
        status = client.namenode.get_file_status("/f")
        node = nodes[0]
        kernel = Kernel(clock)
        node.device.attach_kernel(kernel)
        node.device.reset_stats()

        def reader():
            plan: list = []
            with collecting_io(plan):
                node.read_block(status.blocks[0])
            yield from replay_plan(plan)

        for __ in range(5):
            kernel.spawn(reader())
        kernel.run()
        assert node.device.stats.blocked_requests == 4

    def test_bytes_stored(self):
        __, nodes, __, client = make_cluster(n_nodes=1, block_size=100)
        blocks = client.create("/f", b"x" * 250).blocks
        assert sum(len(nodes[0].read_block(b).data) for b in blocks) == 250


class TestClientReads:
    def test_cross_block_read(self):
        __, __, __, client = make_cluster(block_size=100)
        payload = bytes(i % 251 for i in range(350))
        client.create("/f", payload)
        assert client.read("/f", 50, 200).data == payload[50:250]
        assert client.read("/f", 0, len(payload)).data == payload

    def test_read_past_eof(self):
        __, __, __, client = make_cluster(block_size=100)
        client.create("/f", b"x" * 150)
        assert client.read("/f", 100, 500).data == b"x" * 50
        assert client.read("/f", 500, 10).data == b""

    def test_negative_args_rejected(self):
        __, __, __, client = make_cluster()
        client.create("/f", b"x")
        with pytest.raises(ValueError):
            client.read("/f", -1, 10)


class TestReplicaFailover:
    def make_replicated(self, n_nodes=3, replication=2):
        clock = SimClock()
        nodes = [DataNode(f"dn{i}", clock=clock) for i in range(n_nodes)]
        namenode = NameNode(nodes, block_size=1000, replication=replication)
        return clock, nodes, namenode, DfsClient(namenode)

    def test_read_fails_over_to_live_replica(self):
        __, nodes, namenode, client = self.make_replicated()
        client.create("/f", b"z" * 1500)
        first_block_nodes = namenode.locate_block(
            namenode.get_file_status("/f").blocks[0]
        )
        first_block_nodes[0].fail()
        result = client.read("/f", 0, 1500)
        assert result.data == b"z" * 1500
        assert client.metrics.counter("failovers").value >= 1

    def test_all_replicas_down_exhausts_retries(self):
        from repro.errors import RetriesExhaustedError

        __, nodes, __, client = self.make_replicated()
        client.create("/f", b"z" * 500)
        for node in nodes:
            node.fail()
        with pytest.raises(RetriesExhaustedError):
            client.read("/f", 0, 500)
        assert client.metrics.counter("retry_exhausted").value == 1

    def test_backoff_charged_as_latency_on_recovery_round(self):
        """When every replica fails the first round but recovers before the
        second, the read succeeds with the backoff charged as latency."""
        from repro.resilience import RetryPolicy

        clock = SimClock()
        nodes = [DataNode(f"dn{i}", clock=clock) for i in range(2)]
        namenode = NameNode(nodes, block_size=1000, replication=2)
        client = DfsClient(
            namenode,
            retry_policy=RetryPolicy(max_attempts=2, base_delay=0.5, jitter=0.0),
        )
        client.create("/f", b"q" * 400)
        baseline = client.read("/f", 0, 400).latency

        original_read = DataNode.read_block
        calls = {"n": 0}

        def flaky_read(node_self, identity, offset=0, length=None):
            # both replicas refuse the first round; the retry round succeeds
            calls["n"] += 1
            if calls["n"] <= len(nodes):
                raise DataNodeOfflineError(f"{node_self.name} transient")
            return original_read(node_self, identity, offset, length)

        DataNode.read_block = flaky_read
        try:
            result = client.read("/f", 0, 400)
        finally:
            DataNode.read_block = original_read
        assert result.data == b"q" * 400
        # the 0.5s backoff is charged on top of device time (the HDD model
        # is stateful, so the exact device latency drifts between reads)
        assert result.latency >= baseline + 0.5 - 1e-9
        assert client.metrics.counter("retries").value == 1
        assert client.metrics.counter("degraded_serves").value == 1

    def test_breaker_skips_dead_replica_without_attempt(self):
        from repro.resilience import BreakerBoard, NodeHealthTracker

        clock = SimClock()
        nodes = [DataNode(f"dn{i}", clock=clock) for i in range(2)]
        namenode = NameNode(nodes, block_size=1000, replication=2)
        health = NodeHealthTracker(
            clock=clock, breakers=BreakerBoard(clock=clock, min_volume=1)
        )
        client = DfsClient(namenode, health=health)
        client.create("/f", b"k" * 300)
        nodes[0].fail()
        client.read("/f", 0, 300)          # records the failure, trips breaker
        assert not health.is_available("dn0")
        before = client.metrics.counter("failovers").value
        client.read("/f", 0, 300)          # dn0 skipped: no new failover
        assert client.metrics.counter("failovers").value == before
