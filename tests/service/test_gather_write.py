"""A GET reply leaves the server as the read's own pages, with one gather write.

``LocalCacheManager._walk`` keeps a read's page fragments apart, the codec
frames them as ``[prefix + head, *chunks]`` and the connection hands that
list to ``os.writev`` on the socket (DESIGN.md §14.4).  These tests pin what
that path must keep: no copy of a reply on the server, replies intact and in
order when the socket takes only part of one, frames longer than
``IOV_MAX`` buffers, and a peer that vanishes mid-reply closing the
connection through the transport like any other write error.
"""

import asyncio
import collections
import socket
import struct
import sys
import time
import tracemalloc

import pytest

from repro.core.config import CacheConfig
from repro.core.engine import CacheEngine
from repro.ports.clock import WallClock
from repro.service import protocol as wire
from repro.service import server as server_module
from repro.service.client import AsyncCacheClient
from repro.service.server import CacheServer
from repro.storage.remote import ReadResult
from tests.service.conftest import NOW, run, settle
from tests.service.rawpeer import connect_raw, open_raw, recv_frame_into

pytestmark = pytest.mark.usefixtures("switch_interval_stress")

KIB = 1024
MIB = 1024 * KIB
PAGE = 64 * KIB
FILE = 4 * MIB
# byte p of every file is p % 251: a page, or a chunk, out of place shows
PATTERN = bytes(range(251)) * (FILE // 251 + 1)


class PatternSource:
    """``PATTERN`` as a file of ``size`` bytes, after ``delay`` seconds."""

    def __init__(self, size: int = FILE, delay: float = 0.0) -> None:
        self.size = size
        self.delay = delay

    def file_length(self, file_id: str) -> int:
        return self.size

    def read(self, file_id: str, offset: int, length: int) -> ReadResult:
        time.sleep(self.delay)
        return ReadResult(PATTERN[offset:offset + length], self.delay)


def make_engine(*, page: int = PAGE, size: int = FILE, delay: float = 0.0) -> CacheEngine:
    return CacheEngine(
        CacheConfig.small(2 * size, page_size=page),
        source=PatternSource(size, delay), clock=WallClock(),
    )


class TestCopyBudget:
    def test_a_resident_1_mib_get_copies_nothing_on_the_server(self):
        """20 resident 1 MiB GETs (16 pages each) from a peer that receives
        into one buffer allocated up front: nothing the size of a page, let
        alone of a reply, is allocated while they are served.  Joining the
        pages (once for the read, once for the frame) made two 1 MiB blocks
        per reply."""
        engine = make_engine()
        engine.get("f", 0, MIB)  # resident from here on

        async def scenario(server):
            sock = await connect_raw(server.host, server.port, rcvbuf=4 * MIB)
            window = sock.getsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF)
            if window < 2 * MIB and sys.version_info < (3, 12):
                # the socket would take part of each reply, and 3.11's
                # transport copies the rest into its buffer (3.12's keeps
                # the pieces): that copy is asyncio's, not the one counted
                sock.close()
                pytest.skip("SO_RCVBUF is capped below 2 MiB on this host")
            loop = asyncio.get_running_loop()
            buffer = memoryview(bytearray(MIB + 64))
            requests = [
                wire.encode_request(wire.GetRequest("f", 0, MIB), request_id=n)
                for n in range(21)
            ]
            expected = wire.encode_response(
                wire.GetResponse(PATTERN[:MIB], True, 16, 0), request_id=0
            )
            peaks, frames = [], []
            try:
                await loop.sock_sendall(sock, requests[0])  # warm-up
                await recv_frame_into(sock, buffer)
                tracemalloc.start()
                try:
                    for request in requests[1:]:
                        tracemalloc.reset_peak()
                        before, _ = tracemalloc.get_traced_memory()
                        await loop.sock_sendall(sock, request)
                        size = await recv_frame_into(sock, buffer)
                        _, peak = tracemalloc.get_traced_memory()
                        peaks.append(peak - before)
                        frames.append(size)
                        # compared in place, after the measurement
                        assert size == len(expected)
                        assert buffer[:5] == expected[:5]
                        assert struct.unpack_from(">Q", buffer, 5)[0] == len(frames)
                        assert buffer[13:size] == expected[13:]
                finally:
                    tracemalloc.stop()
            finally:
                sock.close()
            return peaks, frames

        (peaks, frames), summary = run(scenario, engine)
        assert len(frames) == 20
        assert max(peaks) < 64 * KIB, [peak // KIB for peak in peaks]
        assert summary["clean"] is True and summary["served"] == 21


class FakeSocket:
    def fileno(self) -> int:
        return 99  # never written to: os.writev is replaced in these tests


class FakeTransport:
    """What ``_Connection._send`` asks of a transport, recorded: ``calls``
    holds the pieces of each write() or writelines().  A call fails (and
    closes the transport, as asyncio's error path does) when ``broken``."""

    def __init__(self, buffered: int = 0, broken: bool = False) -> None:
        self.buffered = buffered
        self.broken = broken
        self.closing = False
        self.calls: list[list] = []

    @property
    def writes(self) -> list:
        return [piece for call in self.calls for piece in call]

    def get_extra_info(self, name: str):
        return FakeSocket() if name == "socket" else None

    def get_write_buffer_size(self) -> int:
        return self.buffered

    def write(self, data) -> None:
        self.writelines([data])

    def writelines(self, pieces) -> None:
        assert not self.closing
        if pieces:
            self.calls.append(list(pieces))
            self.closing = self.broken

    def is_closing(self) -> bool:
        return self.closing


def calls_for(pieces: int) -> list[int]:
    """How many pieces each transport call takes when ``pieces`` are handed
    over: on 3.12+ one writelines() and a write() of the last, so the
    transport sums its buffer twice, not once per piece."""
    if server_module._TRANSPORT_QUEUES_PIECES and pieces > 1:
        return [pieces - 1, 1]
    return [1] * pieces


class TestSendRule:
    """``_Connection._send`` against a recorded transport and ``writev``."""

    FRAME = [b"prefix+head", b"a" * 100, b"b" * 100, b"c" * 100]

    def _send(self, monkeypatch, transport: FakeTransport, writev) -> list:
        calls = []

        def recorded(fd, buffers):
            calls.append(list(buffers))
            return writev(buffers)

        monkeypatch.setattr(server_module.os, "writev", recorded)
        conn = server_module._Connection(CacheServer(make_engine()))
        conn.connection_made(transport)
        conn._send(list(self.FRAME))
        return calls

    def test_all_of_it_in_one_call(self, monkeypatch):
        transport = FakeTransport()
        calls = self._send(monkeypatch, transport, lambda b: sum(map(len, b)))
        assert calls == [self.FRAME] and transport.calls == []

    def test_behind_buffered_bytes_the_transport_sends_it_in_order(self, monkeypatch):
        transport = FakeTransport(buffered=1)
        calls = self._send(monkeypatch, transport, lambda b: sum(map(len, b)))
        assert calls == []  # a direct write would overtake what is buffered
        assert transport.writes == self.FRAME
        assert all(piece is mine for piece, mine in zip(transport.writes, self.FRAME))
        assert [len(call) for call in transport.calls] == calls_for(4)

    def test_a_short_write_hands_over_the_tail_without_a_join(self, monkeypatch):
        transport = FakeTransport()
        sent = len(self.FRAME[0]) + 40  # partway into the first chunk
        self._send(monkeypatch, transport, lambda b: sent)
        assert b"".join(transport.writes) == b"".join(self.FRAME)[sent:]
        assert len(transport.writes) == 3
        assert transport.writes[0].obj is self.FRAME[1]  # a view, not a copy
        assert transport.writes[1:] == self.FRAME[2:]
        assert [len(call) for call in transport.calls] == calls_for(3)

    @pytest.mark.parametrize("error", [InterruptedError, BlockingIOError, OSError])
    def test_an_error_hands_over_the_whole_frame(self, monkeypatch, error):
        def fail(buffers):
            raise error("fake")

        transport = FakeTransport()
        self._send(monkeypatch, transport, fail)
        assert transport.writes == self.FRAME

    def test_a_failed_transport_write_ends_the_reply(self, monkeypatch):
        def fail(buffers):
            raise BrokenPipeError("fake")

        transport = FakeTransport(broken=True)
        self._send(monkeypatch, transport, fail)
        assert len(transport.calls) == 1  # nothing after the closing
        assert transport.writes == self.FRAME[: calls_for(4)[0]]


class TestShortWrites:
    def test_pipelined_replies_past_a_small_receive_window(self):
        """The peer's socket takes a few KiB of a 1 MiB reply: the rest waits
        in the transport, which pauses the connection, and every later reply
        queues behind it rather than jumping ahead with its own write."""
        engine = make_engine()
        engine.get("f", 0, FILE)  # every page resident: all replies inline
        asks = [
            (n, (n * 3 * PAGE) % (FILE - MIB), MIB if n % 2 == 0 else PAGE)
            for n in range(12)
        ]

        async def scenario(server):
            reader, writer = await open_raw(server.host, server.port, rcvbuf=16 * KIB)
            try:
                for request_id, offset, length in asks:
                    writer.write(wire.encode_request(
                        wire.GetRequest("f", offset, length), request_id=request_id
                    ))
                await writer.drain()
                (conn,) = server._connections
                deadline = NOW() + 5.0
                while not conn.write_paused and NOW() < deadline:
                    await asyncio.sleep(0.005)
                paused = conn.write_paused
                replies = [await reader.next_reply() for _ in asks]
            finally:
                writer.close()
                await writer.wait_closed()
            await settle(server)
            return paused, replies

        (paused, replies), summary = run(scenario, engine)
        assert paused  # pause_writing fired
        assert [rid for rid, _ in replies] == [rid for rid, _, _ in asks]
        for (_, offset, length), (_, reply) in zip(asks, replies):
            assert reply == wire.GetResponse(
                PATTERN[offset:offset + length], True, length // PAGE, 0
            )
        assert summary == {"clean": True, "served": len(asks), "rejected": 0}

    def test_a_frame_of_more_than_iov_max_pieces(self, monkeypatch):
        """1 KiB pages, a 2 MiB read: 2 048 chunks and the head, more than
        one ``writev`` takes, so the frame goes out in batches.  The peer's
        small window stops each reply partway, and handing the ~2 000
        pieces left to the transport walks its buffer a few times, not once
        per piece (3.12's write() sums the lengths of all it holds)."""
        page = KIB
        pieces = 2 * MIB // page + 1
        assert pieces > server_module._IOV_MAX
        engine = make_engine(page=page, size=2 * MIB)
        real_writev = server_module.os.writev
        batches, short, errors = [], [], []

        def writev(fd, buffers):
            batches.append(len(buffers))
            try:
                written = real_writev(fd, buffers)
            except OSError as exc:
                errors.append(exc)
                raise
            short.append(written < sum(map(len, buffers)))
            return written

        transport_class = asyncio.selector_events._SelectorSocketTransport
        real_size = transport_class.get_write_buffer_size
        real_send = server_module._Connection._send
        walked, sending = [], []

        def get_write_buffer_size(transport):
            if sending:  # what a call costs: 3.12 sums a deque of pieces
                buffer = transport._buffer
                walked.append(len(buffer) if isinstance(buffer, collections.deque) else 1)
            return real_size(transport)

        def send(conn, frame):
            sending.append(True)
            try:
                real_send(conn, frame)
            finally:
                sending.clear()

        async def scenario(server):
            monkeypatch.setattr(server_module.os, "writev", writev)
            monkeypatch.setattr(transport_class, "get_write_buffer_size", get_write_buffer_size)
            monkeypatch.setattr(server_module._Connection, "_send", send)
            reader, writer = await open_raw(server.host, server.port, rcvbuf=16 * KIB)
            (conn,) = server._connections
            # and a small send buffer, so each reply stops partway
            conn.transport.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET, socket.SO_SNDBUF, 16 * KIB
            )
            try:
                replies = []
                for request_id in (1, 2):  # a miss from the pool, then a hit
                    writer.write(wire.encode_request(
                        wire.GetRequest("f", 0, 2 * MIB), request_id=request_id
                    ))
                    replies.append(await reader.next_reply())
            finally:
                writer.close()
                await writer.wait_closed()
            await settle(server)
            return replies

        replies, summary = run(scenario, engine)
        assert [rid for rid, _ in replies] == [1, 2]
        (_, miss), (_, hit) = replies
        assert miss.page_misses == 2048 and hit.page_hits == 2048
        assert miss.data == hit.data == PATTERN[:2 * MIB]
        # writev refuses more than IOV_MAX buffers (EINVAL); none was asked to
        assert batches and max(batches) <= server_module._IOV_MAX
        assert errors == [] and any(short)
        # linear in the pieces; one walk per piece would be ~2 million
        assert sum(walked) <= 4 * 2 * pieces, sum(walked)
        assert summary["clean"] is True


class TestPeerGoneMidReply:
    WORKERS = 2

    @pytest.mark.parametrize("error", [BrokenPipeError, ConnectionResetError])
    def test_the_connection_closes_through_the_transport(
        self, monkeypatch, assert_baseline, error
    ):
        """The peer resets while its GET is on the pool, and reading is
        paused (a full window), so the first the server hears of it is the
        reply's ``writev``.  The transport's own send meets the reset too and
        asyncio closes the connection: no exception out of the pool's
        callback, no slot left."""
        calls = []

        def writev(fd, buffers):
            calls.append(len(buffers))
            raise error(f"fake {error.__name__}")

        engine = make_engine(delay=0.1)

        async def scenario(server):
            monkeypatch.setattr(server_module.os, "writev", writev)
            sock = await connect_raw(server.host, server.port)
            await asyncio.get_running_loop().sock_sendall(
                sock, wire.encode_request(wire.GetRequest("f", 0, MIB), request_id=1)
            )
            deadline = NOW() + 5.0
            while not (server._connections and next(iter(server._connections)).pooled):
                assert NOW() < deadline
                await asyncio.sleep(0.005)
            # a reset, not a FIN: the server's next send fails at once
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            sock.close()
            await settle(server)
            await assert_baseline(server, self.WORKERS)

        _, summary = run(
            scenario, engine, max_inflight=1, executor_workers=self.WORKERS
        )
        assert calls == [17]  # the head and 16 pages, in one call
        errors = engine.metrics.error_breakdown()["service_connection"]
        assert set(errors) <= {"BrokenPipeError", "ConnectionResetError"}
        assert summary["clean"] is True

    def test_a_full_socket_hands_the_whole_frame_to_the_transport(self, monkeypatch):
        """``EAGAIN`` from the gather write: nothing was sent, so the
        transport sends all of it and the peer reads one intact reply."""
        real = server_module.os.writev
        calls = []

        def writev(fd, buffers):
            calls.append(len(buffers))
            if len(calls) == 1:
                raise BlockingIOError("fake EAGAIN")
            return real(fd, buffers)

        engine = make_engine()
        engine.get("f", 0, MIB)

        async def scenario(server):
            monkeypatch.setattr(server_module.os, "writev", writev)
            client = await AsyncCacheClient.connect(server.host, server.port)
            try:
                return [await client.get("f", 0, MIB) for _ in range(2)]
            finally:
                await client.close()

        replies, summary = run(scenario, engine)
        assert calls == [17, 17]
        assert all(r.data == PATTERN[:MIB] and r.fully_cached for r in replies)
        assert summary["clean"] is True
