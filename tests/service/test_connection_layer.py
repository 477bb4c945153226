"""The server's connection layer: who runs where, the window, hostile peers.

``CacheServer`` answers resident GETs on the event loop and sends
everything else to its engine pool.  These tests pin the properties that
split must keep: a blocking call never reaches the loop thread, the
per-connection window bounds what one peer can have on the pool, write-side
backpressure bounds what it can make the server buffer, and whatever a
hostile peer does, connections, window slots and pool threads are back
at baseline afterwards (ROADMAP item 4b).
"""

import asyncio
import threading
import time

import pytest

from repro.core.config import CacheConfig
from repro.core.engine import CacheEngine
from repro.ports.clock import WallClock
from repro.service import protocol as wire
from repro.service.client import AsyncCacheClient
from repro.service.server import CacheServer
from repro.storage.remote import ReadResult
from tests.service.conftest import NOW, run, settle
from tests.service.rawpeer import open_raw

KIB = 1024
PAGE = 16 * KIB
FILE_PAGES = 64


class SlowSource:
    """Zeros after ``delay`` seconds; records which threads ran it and how
    many reads overlapped."""

    def __init__(self, delay: float = 0.0, size: int = FILE_PAGES * PAGE) -> None:
        self.delay = delay
        self.size = size
        self.threads: set[str] = set()
        self.active = 0
        self.peak = 0
        self._lock = threading.Lock()

    def file_length(self, file_id: str) -> int:
        self.threads.add(threading.current_thread().name)
        return self.size

    def read(self, file_id: str, offset: int, length: int) -> ReadResult:
        self.threads.add(threading.current_thread().name)
        with self._lock:
            self.active += 1
            self.peak = max(self.peak, self.active)
        try:
            time.sleep(self.delay)
        finally:
            with self._lock:
                self.active -= 1
        return ReadResult(bytes(length), self.delay)


def make_engine(source: SlowSource, *, page: int = PAGE, pages: int = 256) -> CacheEngine:
    return CacheEngine(
        CacheConfig.small(pages * page, page_size=page),
        source=source, clock=WallClock(),
    )


class TestWhoRunsWhere:
    def test_hits_run_on_the_loop_and_misses_never_do(self):
        source = SlowSource()
        engine = make_engine(source)
        loop_thread = threading.current_thread().name

        async def scenario(server):
            client = await AsyncCacheClient.connect(server.host, server.port)
            try:
                miss = await client.get("f", 0, PAGE)
                dispatched = []
                real = server._dispatch
                server._dispatch = lambda request: dispatched.append(request) or real(request)
                hits = [await client.get("f", 0, PAGE) for _ in range(20)]
                await client.get("f", 5 * PAGE, PAGE)  # another miss
                return miss, hits, dispatched
            finally:
                await client.close()

        (miss, hits, dispatched), summary = run(scenario, engine)
        assert miss.page_misses == 1
        assert all(h.fully_cached and h.page_hits == 1 for h in hits)
        # only the second miss went through the pool; the 20 hits did not
        assert [type(r).__name__ for r in dispatched] == ["GetRequest"]
        assert source.threads and loop_thread not in source.threads
        assert all(name.startswith("cache-engine") for name in source.threads)
        assert summary == {"clean": True, "served": 22, "rejected": 0}
        assert engine.metrics.histogram("service_request_seconds").count == 22

    def test_a_hit_is_not_queued_behind_parked_workers(self):
        source = SlowSource(delay=0.2)
        engine = make_engine(source)
        engine.put("hot", 0, b"h" * PAGE)

        async def scenario(server):
            client = await AsyncCacheClient.connect(server.host, server.port)
            try:
                # park both workers (and queue two more misses behind them)
                misses = [
                    asyncio.ensure_future(client.get("cold", n * PAGE, PAGE))
                    for n in range(4)
                ]
                while source.active < 2:
                    await asyncio.sleep(0.005)
                began = NOW()
                hit = await client.get("hot", 0, PAGE)
                elapsed = NOW() - began
                still_parked = source.active
                await asyncio.gather(*misses)
                return hit, elapsed, still_parked
            finally:
                await client.close()

        (hit, elapsed, still_parked), summary = run(
            scenario, engine, executor_workers=2
        )
        assert hit.data == b"h" * PAGE
        assert still_parked == 2  # answered while both workers slept
        assert elapsed < 0.05
        assert threading.current_thread().name not in source.threads
        assert summary["clean"] is True

    def test_a_blocking_store_sends_every_get_to_the_pool(self, tmp_path):
        from repro.core.pagestore import LocalFilePageStore

        source = SlowSource()
        engine = CacheEngine(
            CacheConfig.small(64 * PAGE, page_size=PAGE), source=source,
            clock=WallClock(), page_store=LocalFilePageStore([tmp_path], PAGE),
        )

        async def scenario(server):
            dispatched = []
            real = server._dispatch
            server._dispatch = lambda request: dispatched.append(request) or real(request)
            client = await AsyncCacheClient.connect(server.host, server.port)
            try:
                replies = [await client.get("f", 0, PAGE) for _ in range(3)]
            finally:
                await client.close()
            return replies, dispatched

        (replies, dispatched), _ = run(scenario, engine)
        assert [r.page_hits for r in replies] == [0, 1, 1]
        assert len(dispatched) == 3


class TestWindow:
    def test_one_connection_never_has_more_than_max_inflight_on_the_pool(self):
        source = SlowSource(delay=0.005)
        engine = make_engine(source)
        running = peak = 0
        lock = threading.Lock()

        async def scenario(server):
            real = server._dispatch

            def counted(request):
                nonlocal running, peak
                with lock:
                    running += 1
                    peak = max(peak, running)
                try:
                    return real(request)
                finally:
                    with lock:
                        running -= 1

            server._dispatch = counted
            client = await AsyncCacheClient.connect(server.host, server.port)
            try:
                replies = await asyncio.gather(
                    *(client.get("f", n * PAGE, PAGE) for n in range(60))
                )
                (conn,) = server._connections
                return replies, conn.pooled
            finally:
                await client.close()

        (replies, pooled_after), summary = run(
            scenario, engine, max_inflight=2, executor_workers=8
        )
        assert len(replies) == 60 and all(r.page_misses == 1 for r in replies)
        assert peak == 2  # the window, not the 8 workers, was the limit
        assert source.peak <= 2
        assert pooled_after == 0
        assert summary["clean"] is True and summary["served"] == 60

    def test_hits_do_not_occupy_the_window(self):
        source = SlowSource(delay=0.2)
        engine = make_engine(source)
        engine.put("hot", 0, b"h" * PAGE)

        async def scenario(server):
            client = await AsyncCacheClient.connect(server.host, server.port)
            try:
                miss = asyncio.ensure_future(client.get("cold", 0, PAGE))
                while source.active < 1:
                    await asyncio.sleep(0.005)
                # the window (1) is full; reading is paused, so this hit
                # waits in the socket buffer until the miss returns
                began = NOW()
                hit = await client.get("hot", 0, PAGE)
                waited = NOW() - began
                await miss
                return hit, waited
            finally:
                await client.close()

        (hit, waited), _ = run(scenario, engine, max_inflight=1)
        assert hit.fully_cached
        assert waited > 0.05  # a full window stops the parse loop, hits included


class TestHostilePeers:
    WORKERS = 2

    @pytest.fixture(autouse=True)
    def _baseline(self, assert_baseline):
        self.assert_baseline = assert_baseline

    def _run(self, attack):
        source = SlowSource()
        engine = make_engine(source)
        engine.put("hot", 0, b"h" * PAGE)

        async def scenario(server):
            reader, writer = await open_raw(server.host, server.port)
            try:
                result = await attack(server, reader, writer)
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except ConnectionError:
                    pass  # the server may have reset a hostile peer first
            await self.assert_baseline(server, self.WORKERS)
            return result

        result, summary = run(scenario, engine, executor_workers=self.WORKERS)
        assert summary["clean"] is True
        return result, engine

    @pytest.mark.parametrize(
        "prefix", [(4).to_bytes(4, "big"), (wire.MAX_FRAME + 1).to_bytes(4, "big")],
        ids=["short", "oversized"],
    )
    def test_bad_length_prefix(self, prefix):
        async def attack(server, reader, writer):
            writer.write(wire.encode_request(wire.HealthRequest(), request_id=1))
            writer.write(prefix + b"\x00" * 32)
            await writer.drain()
            replies = dict([await reader.next_reply(), await reader.next_reply()])
            return replies, await reader.next_reply()

        (replies, eof), engine = self._run(attack)
        # the request before the bad prefix is still answered (from the pool,
        # so possibly after the error frame), then the server hangs up
        assert isinstance(replies[1], wire.HealthResponse)
        assert replies[0].code is wire.ErrorCode.BAD_REQUEST
        assert eof is None
        assert engine.metrics.error_breakdown()["service_frame"]

    def test_unknown_opcode_keeps_the_connection(self):
        async def attack(server, reader, writer):
            frame = bytearray(wire.encode_request(wire.HealthRequest(), request_id=5))
            frame[4] = 0x7E
            writer.write(bytes(frame))
            writer.write(wire.encode_request(wire.GetRequest("hot", 0, 8), request_id=6))
            await writer.drain()
            return await reader.next_reply(), await reader.next_reply()

        (bad, good), _ = self._run(attack)
        assert bad[1].code is wire.ErrorCode.BAD_REQUEST
        assert good == (6, wire.GetResponse(b"h" * 8, True, 1, 0))

    def test_a_file_id_that_is_not_utf8_keeps_the_connection(self):
        async def attack(server, reader, writer):
            frame = bytearray(wire.encode_request(wire.GetRequest("hot", 0, 8), request_id=5))
            frame[4 + 9 + 2] = 0xFF  # first byte of the file id
            writer.write(bytes(frame))
            writer.write(wire.encode_request(wire.GetRequest("hot", 0, 8), request_id=6))
            await writer.drain()
            return await reader.next_reply(), await reader.next_reply()

        (bad, good), engine = self._run(attack)
        # an error frame, not a traceback out of the protocol callback and a
        # reset: the frame boundary is intact, so the connection goes on
        assert bad[1].code is wire.ErrorCode.BAD_REQUEST and "UTF-8" in bad[1].message
        assert good == (6, wire.GetResponse(b"h" * 8, True, 1, 0))
        assert engine.metrics.error_breakdown() == {
            "service_decode": {"ProtocolError": 1}
        }

    def test_garbage(self):
        async def attack(server, reader, writer):
            # a plausible length, then noise: undecodable, but still a frame
            writer.write((64).to_bytes(4, "big") + bytes(range(1, 65)))
            await writer.drain()
            undecodable = await reader.next_reply()
            # then noise where a length should be: the stream is lost
            writer.write(b"\xff" * 4096)
            await writer.drain()
            lost = await reader.next_reply()
            return undecodable, lost, await reader.next_reply()

        (undecodable, lost, eof), engine = self._run(attack)
        assert undecodable[1].code is wire.ErrorCode.BAD_REQUEST
        assert lost[1].code is wire.ErrorCode.BAD_REQUEST
        assert eof is None
        errors = engine.metrics.error_breakdown()
        assert errors["service_decode"] and errors["service_frame"]

    def test_mid_frame_disconnect(self):
        async def attack(server, reader, writer):
            frame = wire.encode_request(wire.PutRequest("f", 0, b"x" * PAGE), request_id=1)
            writer.write(frame[: len(frame) // 2])
            await writer.drain()
            await asyncio.sleep(0.05)
            (conn,) = server._connections
            pending = conn.decoder.pending
            writer.write_eof()
            return pending, await reader.next_reply()

        (pending, reply), engine = self._run(attack)
        assert pending > 0
        assert reply[1].code is wire.ErrorCode.BAD_REQUEST
        assert not engine.contains("f", 0)
        assert "service_frame" in engine.metrics.error_breakdown()

    def test_abrupt_reset_with_requests_on_the_pool(self):
        async def attack(server, reader, writer):
            server.engine.source.delay = 0.1
            for n in range(6):
                writer.write(
                    wire.encode_request(wire.GetRequest("cold", n * PAGE, PAGE), request_id=n)
                )
            await writer.drain()
            while server.engine.source.active < 1:
                await asyncio.sleep(0.005)
            writer.transport.abort()
            await settle(server)
            server.engine.source.delay = 0.0

        self._run(attack)

    def test_a_peer_that_stops_reading(self):
        async def attack(server, reader, writer):
            # 400 hits of 16 KiB = 6.4 MiB of replies nobody reads
            for n in range(400):
                writer.write(
                    wire.encode_request(wire.GetRequest("hot", 0, PAGE), request_id=n)
                )
            await writer.drain()
            await asyncio.sleep(0.2)
            (conn,) = server._connections
            buffered = conn.transport.get_write_buffer_size()
            _, high = conn.transport.get_write_buffer_limits()
            return (buffered, high, conn.write_paused,
                    not conn.transport.is_reading(), server._served)

        (buffered, high, write_paused, read_paused, served), _ = self._run(attack)
        assert write_paused and read_paused
        # one reply past the high-water mark at most: the parse loop stopped
        assert buffered <= high + PAGE + 64
        assert served < 400


class TestClientCancellation:
    """A caller that gives up mid-GET leaves nothing behind on either end."""

    WORKERS = 2

    def test_a_cancelled_get_is_forgotten_at_once_and_its_late_reply_dropped(
        self, assert_baseline
    ):
        source = SlowSource(delay=0.2)
        engine = make_engine(source)

        async def scenario(server):
            client = await AsyncCacheClient.connect(server.host, server.port)
            try:
                parked = asyncio.ensure_future(client.get("cold", 0, PAGE))
                while source.active < 1:
                    await asyncio.sleep(0.005)
                parked.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await parked
                forgotten = dict(client._pending)
                # the same connection goes on: this reply is its own, and it
                # arrives behind the one nobody is waiting for any more
                other = await client.get("cold", 5 * PAGE, 100)
                served = server._served
                left = dict(client._pending)
            finally:
                await client.close()
            await assert_baseline(server, self.WORKERS)
            return forgotten, other, served, left

        (forgotten, other, served, left), summary = run(
            scenario, engine, max_inflight=1, executor_workers=self.WORKERS
        )
        assert forgotten == {} and left == {}
        assert len(other.data) == 100 and other.page_misses == 1
        assert served == 2  # the server did answer the cancelled GET
        assert summary["clean"] is True

    def test_a_request_that_cannot_be_encoded_was_never_pending(self):
        async def scenario(server):
            client = await AsyncCacheClient.connect(server.host, server.port)
            try:
                with pytest.raises(wire.ProtocolError, match="too long"):
                    await client.file_length("x" * 70_000)
                return dict(client._pending), await client.health()
            finally:
                await client.close()

        (left, health), _ = run(scenario, make_engine(SlowSource()))
        assert left == {} and health["status"] == "ok"

    def test_cancelling_a_writer_parked_on_backpressure_wakes_the_others(self):
        engine = make_engine(SlowSource())

        async def scenario(server):
            client = await AsyncCacheClient.connect(server.host, server.port)
            try:
                client.pause_writing()  # as the transport does above high water
                puts = [
                    asyncio.ensure_future(client.put("f", n, b"p" * PAGE))
                    for n in range(3)
                ]
                await asyncio.sleep(0.01)
                assert client._pending == {}  # nothing written, nothing owed
                puts[0].cancel()
                client.resume_writing()
                done = await asyncio.gather(*puts, return_exceptions=True)
                return done, dict(client._pending)
            finally:
                await client.close()

        (done, left), summary = run(scenario, engine)
        assert isinstance(done[0], asyncio.CancelledError)
        assert done[1:] == [True, True]
        assert left == {}
        assert summary["served"] == 2


class TestReplies:
    def test_half_closed_peer_still_gets_its_replies(self):
        source = SlowSource(delay=0.05)
        engine = make_engine(source)

        async def scenario(server):
            reader, writer = await open_raw(server.host, server.port)
            for n in range(5):
                writer.write(
                    wire.encode_request(wire.GetRequest("f", n * PAGE, PAGE), request_id=n)
                )
            writer.write_eof()
            replies = [await reader.next_reply() for _ in range(5)]
            eof = await reader.next_reply()
            writer.close()
            return replies, eof

        (replies, eof), summary = run(scenario, engine, max_inflight=2)
        assert sorted(rid for rid, _ in replies) == list(range(5))
        assert all(isinstance(r, wire.GetResponse) for _, r in replies)
        assert eof is None
        assert summary == {"clean": True, "served": 5, "rejected": 0}

    def test_a_reply_too_large_for_a_frame_is_an_error_frame(self):
        mib = 1024 * KIB
        source = SlowSource(size=32 * mib)
        engine = make_engine(source, page=mib, pages=40)

        async def scenario(server):
            client = await AsyncCacheClient.connect(server.host, server.port)
            try:
                with pytest.raises(ValueError, match="too large"):
                    await client.get("f", 0, 17 * mib)   # via the pool
                with pytest.raises(ValueError, match="too large"):
                    await client.get("f", 0, 16 * mib)   # resident now: inline
                return await client.get("f", 0, 2 * mib)
            finally:
                await client.close()

        reply, summary = run(scenario, engine)
        assert len(reply.data) == 2 * mib
        assert summary["clean"] is True


    def test_an_engine_error_on_the_loop_becomes_an_error_frame(self):
        from repro.core.pagestore import MemoryPageStore
        from repro.errors import RemoteReadError

        class BrokenStore(MemoryPageStore):
            def get(self, page_id, directory, offset=0, length=None, *, timeout=None):
                if page_id.page_index == 3:
                    raise RuntimeError("bad sector")
                return super().get(page_id, directory, offset, length)

        engine = CacheEngine(
            CacheConfig.small(64 * PAGE, page_size=PAGE), source=SlowSource(),
            clock=WallClock(), page_store=BrokenStore(),
        )

        async def scenario(server):
            client = await AsyncCacheClient.connect(server.host, server.port)
            try:
                await client.get("f", 0, 8 * PAGE)  # fill, page 3 included
                with pytest.raises(RemoteReadError, match="bad sector"):
                    await client.get("f", 3 * PAGE, PAGE)
                return await client.get("f", 4 * PAGE, PAGE)  # still connected
            finally:
                await client.close()

        reply, summary = run(scenario, engine)
        assert reply.fully_cached
        errors = engine.metrics.error_breakdown()
        # met once on the loop, once more by the pool, which reported it
        assert errors["service_resident"] == {"RuntimeError": 1}
        assert errors["service_dispatch"] == {"RuntimeError": 1}
        assert summary["clean"] is True


class TestDrain:
    def test_late_frames_are_refused_and_inflight_replies_flushed(self):
        source = SlowSource(delay=0.2)
        engine = make_engine(source)
        engine.put("hot", 0, b"h" * PAGE)

        async def scenario():
            server = CacheServer(engine)
            await server.start()
            reader, writer = await open_raw(server.host, server.port)
            idle_reader, idle_writer = await open_raw(server.host, server.port)
            writer.write(wire.encode_request(wire.GetRequest("cold", 0, PAGE), request_id=1))
            await writer.drain()
            while source.active < 1:
                await asyncio.sleep(0.005)
            draining = asyncio.ensure_future(server.drain(timeout=10.0))
            await asyncio.sleep(0.02)
            # a hit would be free to serve, but the server is going away
            writer.write(wire.encode_request(wire.GetRequest("hot", 0, PAGE), request_id=2))
            await writer.drain()
            late = await reader.next_reply()
            slow = await reader.next_reply()
            closed = await reader.next_reply()
            idle_closed = await idle_reader.next_reply()
            summary = await draining
            for w in (writer, idle_writer):
                w.close()
            return late, slow, closed, idle_closed, summary

        late, slow, closed, idle_closed, summary = asyncio.run(scenario())
        assert late[0] == 2 and late[1].code is wire.ErrorCode.DRAINING
        assert slow[0] == 1 and isinstance(slow[1], wire.GetResponse)
        assert closed is None and idle_closed is None
        assert summary == {"clean": True, "served": 1, "rejected": 1}

    def test_a_peer_that_never_reads_makes_the_drain_unclean_not_endless(self):
        source = SlowSource()
        engine = make_engine(source)
        engine.put("hot", 0, b"h" * PAGE)

        async def scenario():
            server = CacheServer(engine)
            await server.start()
            reader, writer = await open_raw(server.host, server.port)
            for n in range(400):
                writer.write(
                    wire.encode_request(wire.GetRequest("hot", 0, PAGE), request_id=n)
                )
            await writer.drain()
            await asyncio.sleep(0.1)
            began = NOW()
            summary = await server.drain(timeout=0.3)
            elapsed = NOW() - began
            writer.close()
            return summary, elapsed, len(server._connections)

        summary, elapsed, left = asyncio.run(scenario())
        assert summary["clean"] is False
        assert elapsed < 5.0
        assert left == 0
