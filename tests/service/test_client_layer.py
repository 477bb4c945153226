"""The client's connection layer against a hostile or slow server.

The mirror of ``test_connection_layer.py``: here the *server* is the fake.
Whatever it sends -- garbage, an absurd length, half a frame, replies
nobody asked for, replies in any order, or nothing at all -- every caller
is resolved exactly once (its own reply, or ``ConnectionError``), nothing
stays in ``_pending``, and ``close()`` leaves no task, transport or thread
behind (ROADMAP item 4b).  The last class pins the receive path's copy
budget: one allocation per 1 MiB reply.
"""

import asyncio
import socket
import struct
import threading
import tracemalloc

import pytest

from repro.service import protocol as wire
from repro.service.client import AsyncCacheClient
from tests.service.rawpeer import FrameReader

KIB = 1024
MIB = 1024 * KIB


async def requests_of(reader: FrameReader, count: int) -> list[tuple[int, wire.Request]]:
    return [wire.decode_request(await reader.next_payload()) for _ in range(count)]


def reply_to(request_id: int, request: wire.Request) -> bytes:
    if isinstance(request, wire.PutRequest):
        response: wire.Response = wire.PutResponse(True)
    else:  # a GET: the bytes name the request, so a mixed-up reply shows
        response = wire.GetResponse(
            f"{request.file_id}@{request.offset}".encode(), True, 1, 0
        )
    return wire.encode_response(response, request_id=request_id)


def run_against(serve, scenario, *, receive_buffer: int | None = None):
    """``scenario(client)`` against a server whose every connection is
    handled by ``serve(reader, writer)``; then the leak checks."""

    async def harness():
        threads = set(threading.enumerate())
        loop_errors: list[dict] = []
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: loop_errors.append(context)
        )

        async def handler(reader, writer):
            try:
                await serve(FrameReader(reader), writer)
            finally:
                writer.close()

        listener = socket.create_server(("127.0.0.1", 0))
        if receive_buffer is not None:  # accepted sockets inherit it
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, receive_buffer)
        server = await asyncio.start_server(handler, sock=listener, limit=4 * KIB)
        client = await AsyncCacheClient.connect("127.0.0.1", listener.getsockname()[1])
        try:
            result = await asyncio.wait_for(scenario(client), timeout=20.0)
        finally:
            await asyncio.wait_for(client.close(), timeout=5.0)
        assert client._pending == {}
        assert client._transport.is_closing()
        with pytest.raises(ConnectionError):
            await client.health()  # closed is closed
        server.close()
        await server.wait_closed()
        for _ in range(500):  # the fake's handlers see the EOF and return
            if asyncio.all_tasks() == {asyncio.current_task()}:
                break
            await asyncio.sleep(0.01)
        assert asyncio.all_tasks() == {asyncio.current_task()}
        assert set(threading.enumerate()) == threads
        assert loop_errors == []  # e.g. a future resolved twice
        return result

    return asyncio.run(harness())


async def outcomes(*calls):
    """Every call's reply or exception, each resolved exactly once."""
    return await asyncio.gather(*calls, return_exceptions=True)


def assert_all_connection_errors(results, count: int) -> None:
    assert len(results) == count
    assert all(type(r) is ConnectionError for r in results), results


class TestHostileServer:
    def test_an_undecodable_reply_fails_every_caller(self):
        async def serve(reader, writer):
            await requests_of(reader, 3)
            # a plausible length, then noise: a frame, but not a reply
            writer.write((64).to_bytes(4, "big") + bytes(range(1, 65)))
            await reader.next_payload()  # until the client hangs up

        async def scenario(client):
            return await outcomes(*(client.get("f", n, 8) for n in range(3)))

        assert_all_connection_errors(run_against(serve, scenario), 3)

    @pytest.mark.parametrize(
        "noise",
        [b"\xff" * 64, (wire.MAX_FRAME + 1).to_bytes(4, "big"), (4).to_bytes(4, "big")],
        ids=["garbage", "oversized-prefix", "short-prefix"],
    )
    def test_a_bad_length_prefix_fails_every_caller(self, noise):
        async def serve(reader, writer):
            ((request_id, request),) = await requests_of(reader, 1)
            writer.write(reply_to(request_id, request) + noise)
            await reader.next_payload()

        async def scenario(client):
            first = await client.get("f", 0, 8)  # the good frame before the bad
            return first, await outcomes(*(client.get("f", n, 8) for n in range(4)))

        first, rest = run_against(serve, scenario)
        assert first.data == b"f@0"
        assert_all_connection_errors(rest, 4)

    @pytest.mark.parametrize("code", [0, 99], ids=["zero", "unknown"])
    def test_an_error_code_nobody_defined_fails_every_caller(self, code):
        async def serve(reader, writer):
            ((request_id, _),) = await requests_of(reader, 1)
            frame = bytearray(wire.encode_response(
                wire.ErrorResponse(wire.ErrorCode.NOT_FOUND, "?"), request_id=request_id
            ))
            frame[13:15] = code.to_bytes(2, "big")
            writer.write(bytes(frame))
            await reader.next_payload()

        async def scenario(client):
            return await outcomes(client.get("f", 0, 8))

        # a ConnectionError for the caller, not a ValueError out of the
        # protocol callback and "Fatal error" in the loop's log
        assert_all_connection_errors(run_against(serve, scenario), 1)

    def test_half_a_frame_then_close(self):
        async def serve(reader, writer):
            (first, second) = await requests_of(reader, 2)
            frame = reply_to(*second)
            writer.write(reply_to(*first) + frame[: len(frame) // 2])

        async def scenario(client):
            return await outcomes(client.get("whole", 1, 8), client.get("torn", 2, 8))

        whole, torn = run_against(serve, scenario)
        assert whole.data == b"whole@1"
        assert type(torn) is ConnectionError and "mid frame" in str(torn)

    def test_a_server_that_just_closes(self):
        async def serve(reader, writer):
            await requests_of(reader, 2)

        async def scenario(client):
            return await outcomes(client.get("f", 0, 8), client.put("f", 0, b"p"))

        assert_all_connection_errors(run_against(serve, scenario), 2)

    def test_a_reply_for_an_unknown_request_id_is_dropped(self):
        async def serve(reader, writer):
            ((request_id, request),) = await requests_of(reader, 1)
            writer.write(reply_to(request_id + 1000, wire.GetRequest("stray", 0, 1)))
            writer.write(reply_to(request_id, request))
            writer.write(reply_to(request_id, wire.GetRequest("again", 0, 1)))  # twice
            (again,) = await requests_of(reader, 1)
            writer.write(reply_to(*again))
            await reader.next_payload()

        async def scenario(client):
            return await client.get("mine", 3, 8), await client.get("next", 4, 8)

        mine, following = run_against(serve, scenario)
        assert (mine.data, following.data) == (b"mine@3", b"next@4")

    def test_replies_in_reverse_order_reach_their_callers(self):
        count = 32

        async def serve(reader, writer):
            for request_id, request in reversed(await requests_of(reader, count)):
                writer.write(reply_to(request_id, request))
            await reader.next_payload()

        async def scenario(client):
            return await outcomes(*(client.get(f"file-{n}", n, 8) for n in range(count)))

        replies = run_against(serve, scenario)
        assert [r.data for r in replies] == [
            f"file-{n}@{n}".encode() for n in range(count)
        ]


class TestSlowLoris:
    def test_a_server_that_stops_reading_parks_the_writers_not_the_bytes(self):
        page = b"\x42" * (64 * KIB)
        count = 64
        resume = asyncio.Event()

        async def serve(reader, writer):
            await resume.wait()  # reads nothing, says nothing
            for _ in range(count):
                ((request_id, request),) = await requests_of(reader, 1)
                assert request.data == page
                writer.write(reply_to(request_id, request))
            await reader.next_payload()

        async def scenario(client):
            transport = client._transport
            transport.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET, socket.SO_SNDBUF, 16 * KIB
            )
            puts = [asyncio.ensure_future(client.put("f", n, page)) for n in range(count)]
            peak = written = 0
            for _ in range(20):
                await asyncio.sleep(0.01)
                peak = max(peak, transport.get_write_buffer_size())
                written = len(client._pending)
            _, high = transport.get_write_buffer_limits()
            stalled = [put.done() for put in puts]
            resume.set()
            return peak, high, written, stalled, await outcomes(*puts)

        peak, high, written, stalled, admitted = run_against(
            serve, scenario, receive_buffer=16 * KIB
        )
        # the 64 callers wait; what they would have written is not buffered
        assert 0 < peak <= high + len(page) + 64
        assert 0 < written < count and not any(stalled)
        assert admitted == [True] * count

    def test_close_does_not_wait_for_a_peer_that_never_reads(self):
        page = b"\x42" * (64 * KIB)

        async def serve(reader, writer):
            await asyncio.sleep(0.5)  # never reads

        async def scenario(client):
            client._transport.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET, socket.SO_SNDBUF, 16 * KIB
            )
            puts = [asyncio.ensure_future(client.put("f", n, page)) for n in range(8)]
            await asyncio.sleep(0.05)
            assert client._transport.get_write_buffer_size() > 0
            await asyncio.wait_for(client.close(), timeout=2.0)
            return await outcomes(*puts)

        results = run_against(serve, scenario, receive_buffer=16 * KIB)
        assert_all_connection_errors(results, 8)


class ScanServer(threading.Thread):
    """Answers every GET with the same pre-encoded 1 MiB reply from a plain
    blocking socket: no event loop, no allocation per reply, so whatever
    ``tracemalloc`` sees while it runs is the client's."""

    def __init__(self) -> None:
        super().__init__(name="scan-server", daemon=True)
        self.data = bytes(range(256)) * (MIB // 256)
        self.frame = bytearray(
            wire.encode_response(wire.GetResponse(self.data, True, 16, 0), request_id=0)
        )
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]

    def run(self) -> None:
        conn, _ = self.listener.accept()
        decoder = wire.FrameDecoder()
        with conn:
            while count := conn.recv_into(decoder.get_buffer()):
                decoder.buffer_updated(count)
                while (payload := decoder.next_frame()) is not None:
                    request_id, _ = wire.decode_request(payload)
                    struct.pack_into(">Q", self.frame, 5, request_id)
                    conn.sendall(self.frame)
        self.listener.close()


class TestCopyBudget:
    def test_a_1_mib_reply_costs_the_client_one_allocation_of_that_size(self):
        server = ScanServer()
        server.start()

        async def scenario():
            client = await AsyncCacheClient.connect("127.0.0.1", server.port)
            replies = []
            peaks = []
            try:
                for _ in range(5):  # warm-up: the receive buffer grows once
                    await client.get("f", 0, MIB)
                tracemalloc.start()
                try:
                    for _ in range(50):
                        tracemalloc.reset_peak()
                        before, _ = tracemalloc.get_traced_memory()
                        replies.append(await client.get("f", 0, MIB))
                        _, peak = tracemalloc.get_traced_memory()
                        peaks.append(peak - before)
                    large = [
                        trace.size for trace in tracemalloc.take_snapshot().traces
                        if trace.size >= MIB
                    ]
                finally:
                    tracemalloc.stop()
            finally:
                await client.close()
            return replies, peaks, large

        replies, peaks, large = asyncio.run(scenario())
        server.join(timeout=5.0)
        assert not server.is_alive()
        assert all(reply.data == server.data for reply in replies)
        # the 50 replies held here, and nothing else that size, alive ...
        assert len(large) == 50 and max(large) < MIB + KIB
        # ... nor, at any moment, a second copy beside the one being made
        assert all(MIB <= peak < 2 * MIB for peak in peaks), peaks
