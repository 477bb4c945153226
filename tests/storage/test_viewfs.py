"""Tests for ViewFs mount-table routing."""

import pytest

from repro.errors import FileNotFoundInStorageError
from repro.ports.clock import SimClock
from repro.storage.hdfs import DataNode, DfsClient, NameNode
from repro.storage.hdfs.viewfs import ViewFs


def make_client(name: str) -> DfsClient:
    clock = SimClock()
    node = DataNode(name, clock=clock)
    return DfsClient(NameNode([node], block_size=1024))


@pytest.fixture()
def viewfs():
    return ViewFs({
        "/warehouse": make_client("wh-dn"),
        "/warehouse/archive": make_client("arch-dn"),
        "/logs": make_client("logs-dn"),
    })


class TestMountTable:
    def test_mounts_listed(self, viewfs):
        assert viewfs.mounts() == ["/logs", "/warehouse", "/warehouse/archive"]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ViewFs({})

    def test_duplicate_rejected(self, viewfs):
        with pytest.raises(ValueError):
            viewfs.add_mount("warehouse", make_client("x"))

    def test_add_mount(self, viewfs):
        viewfs.add_mount("/ml", make_client("ml-dn"))
        assert "/ml" in viewfs.mounts()


class TestRouting:
    def test_longest_prefix_wins(self, viewfs):
        client, __ = viewfs.resolve("/warehouse/archive/2020/part-0")
        other, __ = viewfs.resolve("/warehouse/orders/part-0")
        assert client is not other

    def test_exact_prefix_boundary(self, viewfs):
        """/warehouse2 must not match the /warehouse mount."""
        with pytest.raises(FileNotFoundInStorageError):
            viewfs.resolve("/warehouse2/file")

    def test_unmounted_path_raises(self, viewfs):
        with pytest.raises(FileNotFoundInStorageError):
            viewfs.resolve("/tmp/scratch")

    def test_relative_path_normalized(self, viewfs):
        client, path = viewfs.resolve("logs/app.log")
        assert path == "/logs/app.log"


class TestRoutedOperations:
    def test_namespaces_are_isolated(self, viewfs):
        viewfs.create("/warehouse/orders/f", b"wh-data")
        viewfs.create("/logs/f", b"log-data")
        assert viewfs.read_fully("/warehouse/orders/f").data == b"wh-data"
        assert viewfs.read_fully("/logs/f").data == b"log-data"

    def test_ranged_read(self, viewfs):
        viewfs.create("/logs/big", bytes(range(256)) * 16)
        result = viewfs.read("/logs/big", 100, 50)
        assert result.data == (bytes(range(256)) * 16)[100:150]

    def test_append_and_delete(self, viewfs):
        viewfs.create("/warehouse/t/f", b"base")
        viewfs.append("/warehouse/t/f", b"+tail")
        assert viewfs.file_length("/warehouse/t/f") == 9
        viewfs.delete("/warehouse/t/f")
        with pytest.raises(FileNotFoundInStorageError):
            viewfs.file_length("/warehouse/t/f")

    def test_archive_mount_shadows_parent(self, viewfs):
        viewfs.create("/warehouse/archive/old", b"cold")
        # the file lives in the archive cluster, not the warehouse one
        archive_client, __ = viewfs.resolve("/warehouse/archive/old")
        assert archive_client.namenode.exists("/warehouse/archive/old")
        warehouse_client, __ = viewfs.resolve("/warehouse/other")
        assert not warehouse_client.namenode.exists("/warehouse/archive/old")
