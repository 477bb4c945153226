"""The sync facade over the service composes with the resilience stack.

``RemoteCacheDataSource`` implements the same ``DataSource`` protocol as
``SyntheticDataSource``, so ``ResilientDataSource`` (retry / circuit
breaker; its hedge and deadline need the event kernel) must wrap it
unchanged -- over real sockets.
"""

import asyncio
import threading
import time

import pytest

from repro.core.config import CacheConfig
from repro.core.engine import CacheEngine
from repro.errors import FileNotFoundInStorageError, RemoteReadError
from repro.ports.clock import WallClock
from repro.resilience.source import ResilientDataSource
from repro.service.client import RemoteCacheDataSource
from repro.service.server import CacheServer
from repro.storage.remote import ReadResult, SyntheticDataSource

KIB = 1024
PAGE = 16 * KIB


class StallingSource:
    """Really sleeps through its first ``stalls`` reads, then answers at once."""

    def __init__(self, stalls: int, delay: float) -> None:
        self.stalls = stalls
        self.delay = delay
        self.reads = 0

    def file_length(self, file_id: str) -> int:
        return 8 * PAGE

    def read(self, file_id: str, offset: int, length: int) -> ReadResult:
        self.reads += 1
        if self.reads <= self.stalls:
            time.sleep(self.delay)
        return ReadResult(b"s" * length, 0.0)


class ServerThread:
    """A CacheServer on its own event-loop thread, for sync-client tests."""

    def __init__(self, source=None) -> None:
        if source is None:
            source = SyntheticDataSource(base_latency=0.0, bandwidth=1e12)
            for index in range(4):
                source.add_file(f"file-{index}", 8 * PAGE)
        self.engine = CacheEngine(
            CacheConfig.small(64 * PAGE, page_size=PAGE),
            source=source,
            clock=WallClock(),
        )
        self.server = CacheServer(self.engine)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="test-server-loop", daemon=True
        )
        self._thread.start()
        asyncio.run_coroutine_threadsafe(
            self.server.start(), self._loop
        ).result(10)

    @property
    def port(self) -> int:
        return self.server.port

    def stop(self) -> dict:
        summary = asyncio.run_coroutine_threadsafe(
            self.server.drain(), self._loop
        ).result(30)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)
        self._loop.close()
        return summary


@pytest.fixture()
def server():
    rig = ServerThread()
    try:
        yield rig
    finally:
        rig.stop()


class TestSyncFacade:
    def test_read_matches_reference_content(self, server):
        reference = SyntheticDataSource(base_latency=0.0, bandwidth=1e12)
        reference.add_file("file-1", 8 * PAGE)
        with RemoteCacheDataSource("127.0.0.1", server.port) as remote:
            result = remote.read("file-1", 3 * KIB, 2 * KIB)
            assert result.data == reference.read("file-1", 3 * KIB, 2 * KIB).data
            assert result.latency > 0  # measured wall time, not modelled
            assert remote.file_length("file-1") == 8 * PAGE

    def test_missing_file_raises_the_repo_exception(self, server):
        with RemoteCacheDataSource("127.0.0.1", server.port) as remote:
            with pytest.raises(FileNotFoundInStorageError):
                remote.read("no/such/file", 0, KIB)

    def test_resilient_wrapper_composes_over_sockets(self, server):
        reference = SyntheticDataSource(base_latency=0.0, bandwidth=1e12)
        reference.add_file("file-2", 8 * PAGE)
        with RemoteCacheDataSource("127.0.0.1", server.port) as remote:
            resilient = ResilientDataSource(remote)
            result = resilient.read("file-2", 0, 4 * KIB)
            assert result.data == reference.read("file-2", 0, 4 * KIB).data
            assert resilient.file_length("file-2") == 8 * PAGE

    def test_resilient_wrapper_does_not_retry_not_found(self, server):
        # NOT_FOUND maps to FileNotFoundInStorageError, which is not in
        # the retryable set -- one socket round trip, then a clean raise
        with RemoteCacheDataSource("127.0.0.1", server.port) as remote:
            resilient = ResilientDataSource(remote)
            with pytest.raises(FileNotFoundInStorageError):
                resilient.read("no/such/file", 0, KIB)
            assert resilient.metrics.counters().get("retries", 0) == 0


class TestTimeouts:
    """A call that outlives ``timeout`` is a retryable error, and it is over:
    nothing keeps running for it on the facade's private loop."""

    @pytest.fixture()
    def stalling(self):
        rig = ServerThread(StallingSource(stalls=1, delay=1.0))
        try:
            yield rig
        finally:
            rig.stop()

    def test_a_timed_out_read_raises_remote_read_error_and_is_cancelled(self, stalling):
        with RemoteCacheDataSource("127.0.0.1", stalling.port, timeout=0.2) as remote:
            with pytest.raises(RemoteReadError, match="timed out"):
                remote.read("f", 0, KIB)
            clients = remote._pool._clients
            remote.stats()  # a round trip through the private loop: it has run
            assert [client._pending for client in clients] == [{}, {}]
            # the same facade, the same connections: the stall is over
            assert remote.read("f", 2 * PAGE, KIB).data == b"s" * KIB

    def test_resilient_wrapper_retries_a_timeout(self, stalling):
        with RemoteCacheDataSource("127.0.0.1", stalling.port, timeout=0.2) as remote:
            resilient = ResilientDataSource(remote)
            result = resilient.read("f", 0, KIB)
            assert result.data == b"s" * KIB
            assert resilient.metrics.counters()["retries"] >= 1
            assert resilient.metrics.error_breakdown() == {
                "remote_read": {"RemoteReadError": resilient.metrics.counters()["retries"]}
            }
