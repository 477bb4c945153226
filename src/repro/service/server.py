"""The asyncio cache server: one `CacheEngine`, real sockets.

Design (DESIGN.md §14):

- **Hits on the loop, everything else on the pool.**  Each connection is
  an ``asyncio.BufferedProtocol`` receiving straight into a sans-IO
  ``FrameDecoder``.  A GET whose whole range is resident in a store with
  non-blocking reads is answered from ``buffer_updated``: no task, no lock,
  no thread hop.  Every other request (a miss, a PUT, STATS, any GET over
  a store that may block) runs on a small engine pool -- the engine is
  thread-safe (striped page locks) -- and a callback on the loop writes
  its reply.
  Which of the two happens is decided by what the engine's store is, never
  by a setting.
- **GET replies are not copied.**  A read's page chunks are framed as
  ``[prefix + head, *chunks]`` and leave with one ``os.writev`` on the
  socket; what it does not take goes to the transport, still in pieces.
- **Per-connection backpressure.**  A connection stops reading *and*
  stops parsing what it has buffered while ``max_inflight`` of its
  requests are on the pool or its transport is above the write
  high-water mark, so overload lands in the client's socket buffer
  instead of growing server queues (the same admission-control stance as
  the simulated coordinator).
- **Graceful drain.**  ``drain()`` stops the listener, lets every
  in-flight request finish and flush, answers late frames with a
  ``DRAINING`` error, then closes connections.  The return value says
  whether the shutdown was clean -- the CI smoke job asserts it.

Wall-clock note: this module is part of the sanctioned real-time zone
(DET001/KRN004 allowlist); everything under the engine still works off
the injected clock port.
"""

from __future__ import annotations

import argparse
import asyncio
import collections
import functools
import json
import os
import queue
import sys
import threading
import time
from typing import Any, Callable

from repro.core.cache_manager import CacheReadResult
from repro.core.engine import CacheEngine
from repro.service import protocol as wire
from repro.service.protocol import (
    ErrorCode,
    ErrorResponse,
    EvictRequest,
    EvictResponse,
    GetRequest,
    GetResponse,
    HealthRequest,
    HealthResponse,
    LengthRequest,
    LengthResponse,
    ProtocolError,
    PutRequest,
    PutResponse,
    StatsRequest,
    StatsResponse,
)


# the most buffers one writev takes; a longer frame goes in batches
_IOV_MAX = os.sysconf("SC_IOV_MAX")
# From 3.12 a socket transport buffers the pieces it is given in a deque and
# sums their lengths on every write(); writelines() queues a list with one
# sum.  3.11 keeps a bytearray of O(1) length, and its writelines() joins.
_TRANSPORT_QUEUES_PIECES = sys.version_info >= (3, 12)


def _get_response(result: CacheReadResult) -> GetResponse:
    return GetResponse(
        data=result.chunks,  # framed and sent as they are, never joined
        fully_cached=result.fully_cached,
        page_hits=result.page_hits,
        page_misses=result.page_misses,
    )


class _EnginePool:
    """At most ``workers`` threads running engine calls off the loop.

    A thread starts only when a job finds none idle, so a server whose
    requests all stay on the loop starts none.  Threads are daemons:
    ``shutdown`` (from ``drain``) joins them, and a server that is never
    drained does not hold the process open.  A finished job queues
    ``(callback, result)``; at most one ``call_soon_threadsafe`` is pending
    at a time, and the loop runs every queued callback when it fires.
    Jobs take no arguments and must not raise.
    """

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self.loop: asyncio.AbstractEventLoop = None  # type: ignore[assignment]
        self._jobs: queue.SimpleQueue = queue.SimpleQueue()
        self._threads: list[threading.Thread] = []
        self._idle = 0  # threads that finished a job and went back for more
        self._done: collections.deque = collections.deque()
        self._armed = False  # a call_soon_threadsafe(_run_callbacks) is pending
        self._lock = threading.Lock()

    @property
    def queued(self) -> int:
        """Jobs no thread has picked up yet."""
        return self._jobs.qsize()

    def submit(self, job: Callable[[], Any], callback: Callable[[Any], None]) -> None:
        """Run ``job()`` on a pool thread, then ``callback(result)`` on the loop."""
        self._jobs.put((job, callback))
        with self._lock:
            if self._idle:
                self._idle -= 1
                return
        if len(self._threads) < self.workers:
            thread = threading.Thread(
                target=self._work, name=f"cache-engine_{len(self._threads)}",
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()

    def _work(self) -> None:
        while True:
            item = self._jobs.get()
            if item is None:
                return
            job, callback = item
            self._done.append((callback, job()))
            with self._lock:
                self._idle += 1
                if self._armed:
                    continue
                self._armed = True
            self.loop.call_soon_threadsafe(self._run_callbacks)

    def _run_callbacks(self) -> None:
        with self._lock:
            self._armed = False  # before popping: a later append re-arms
        done = self._done
        while done:
            callback, result = done.popleft()
            try:
                callback(result)
            except BaseException:
                if done:  # the loop reports this one; the rest run next turn
                    self.loop.call_soon(self._run_callbacks)
                raise

    def shutdown(self) -> None:
        """Let queued jobs finish, then join every thread."""
        for _ in self._threads:
            self._jobs.put(None)
        for thread in self._threads:
            thread.join()
        self._threads.clear()


def _settle(future: asyncio.Future, result: Any) -> None:
    if not future.done():  # a cancelled waiter no longer wants it
        future.set_result(result)


class _Connection(asyncio.BufferedProtocol):
    """One client connection: frames in, replies out, no task of its own.

    Everything here runs on the event loop thread.
    """

    def __init__(self, server: CacheServer) -> None:
        self.server = server
        self.transport: asyncio.Transport = None  # type: ignore[assignment]
        self.decoder = wire.FrameDecoder()
        self.pooled = 0            # requests on the engine pool: the window
        self.write_paused = False  # transport above its write high-water mark
        self.eof = False           # the peer will send nothing more
        self.closing = False       # nothing more will be parsed
        self.fd = -1               # the socket's, for gather writes

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport  # type: ignore[assignment]
        # valid while the transport is not closing: _reply checks that first
        self.fd = transport.get_extra_info("socket").fileno()
        self.server._connections.add(self)

    def connection_lost(self, exc: Exception | None) -> None:
        if exc is not None:
            self.server.engine.metrics.record_error("service_connection", exc)
        self.closing = True
        self.server._connections.discard(self)
        self.server._changed.set()

    def get_buffer(self, sizehint: int) -> memoryview:
        return self.decoder.get_buffer()

    def buffer_updated(self, nbytes: int) -> None:
        self.decoder.buffer_updated(nbytes)
        self._pump()

    def eof_received(self) -> bool:
        self.eof = True
        self._pump()
        return True  # stay writable: in-flight replies still go out

    def pause_writing(self) -> None:
        # called from inside transport.write(); every writer here ends in
        # _pump(), which sees the flag and stops parsing and reading
        self.write_paused = True

    def resume_writing(self) -> None:
        self.write_paused = False
        self._pump()

    def _pump(self) -> None:
        """Handle buffered frames until the window or the write buffer says
        stop, then bring the transport's reading state in line."""
        limit = self.server.max_inflight
        while not (self.closing or self.write_paused or self.pooled >= limit):
            try:
                payload = self.decoder.next_frame()
            except ProtocolError as exc:
                self._bad_frame(exc)
                break
            if payload is None:
                if self.eof:
                    if self.decoder.pending:
                        self._bad_frame(ProtocolError("connection closed mid frame"))
                    self.closing = True
                break
            self._handle(payload)
        # both calls are no-ops when the transport is already in that state
        if self.closing or self.eof or self.write_paused or self.pooled >= limit:
            self.transport.pause_reading()
        else:
            self.transport.resume_reading()
        if self.closing and not self.pooled:
            self.transport.close()  # flushes what is buffered first

    def _bad_frame(self, exc: ProtocolError) -> None:
        """The byte stream is lost: say so, serve what is in flight, close."""
        self.server.engine.metrics.record_error("service_frame", exc)
        self._reply(0, ErrorResponse(ErrorCode.BAD_REQUEST, str(exc)))
        self.closing = True

    def _handle(self, payload: memoryview) -> None:
        # payload is borrowed from the receive buffer; the request owns its bytes
        server = self.server
        try:
            request_id, request = wire.decode_request(payload)
        except ProtocolError as exc:
            server.engine.metrics.record_error("service_decode", exc)
            self._reply(0, ErrorResponse(ErrorCode.BAD_REQUEST, str(exc)))
            return
        if server._draining:
            server._rejected += 1
            self._reply(
                request_id, ErrorResponse(ErrorCode.DRAINING, "server is draining")
            )
            return
        started = time.perf_counter()
        if type(request) is GetRequest and request.length <= wire.MAX_FRAME:
            # A resident-only read never touches the data source or a store
            # that may block.  What it cannot answer (a miss, an engine
            # error) goes to the pool, where `_dispatch` repeats the read
            # and turns a failure into an error frame.
            try:
                result = server.engine.get(
                    request.file_id, request.offset, request.length,
                    resident_only=True,
                )
            except Exception as exc:
                server.engine.metrics.record_error("service_resident", exc)
                result = None
            if result is not None:
                server._count_served(started)
                self._reply(request_id, _get_response(result))
                return
        self.pooled += 1
        server._pool.submit(
            functools.partial(server._dispatch, request),
            functools.partial(self._pool_done, request_id, started),
        )

    def _pool_done(
        self, request_id: int, started: float, response: wire.Response
    ) -> None:
        self.pooled -= 1
        self.server._count_served(started)
        self._reply(request_id, response)
        self.server._changed.set()
        self._pump()

    def _reply(self, request_id: int, response: wire.Response) -> None:
        if self.transport.is_closing():
            return
        try:
            frame = wire.encode_response(response, request_id=request_id)
        except ProtocolError as exc:  # the answer does not fit one frame
            self.server.engine.metrics.record_error("service_encode", exc)
            frame = wire.encode_response(
                ErrorResponse(ErrorCode.TOO_LARGE, str(exc)), request_id=request_id
            )
        if type(frame) is list:  # a GET's [prefix + head, *chunks]
            self._send(frame)
        else:
            # 3.12's transport keeps what it is given: fresh bytes, never a
            # view of a buffer that changes
            self.transport.write(frame)

    def _send(self, frame: list[bytes]) -> None:
        """Write a GET reply's pieces with one gather write, copying none.

        Only when the transport has nothing buffered, which is asyncio's
        own send-now rule, so replies keep their order.  What the socket
        does not take (a short write, ``EAGAIN``, any error) goes to the
        transport as the immutable chunks themselves or a view of one,
        never a copy: it buffers them, or meets the error on its own send
        and closes the connection through ``connection_lost``.
        """
        transport = self.transport
        sent = 0
        if not transport.get_write_buffer_size():
            try:
                for start in range(0, len(frame), _IOV_MAX):
                    batch = frame[start : start + _IOV_MAX]
                    written = os.writev(self.fd, batch)
                    sent += written
                    if written < sum(map(len, batch)):
                        break
                else:
                    return
            except OSError:
                pass  # the transport's own send repeats it and handles it
        first = 0  # the piece the socket stopped in
        while sent >= len(frame[first]):
            sent -= len(frame[first])
            first += 1
        tail = frame[first:]
        if sent:
            tail[0] = memoryview(tail[0])[sent:]
        if _TRANSPORT_QUEUES_PIECES:
            # one pass over the transport's buffer rather than one per
            # piece; the last piece goes by write(), whose high-water check
            # 3.12.1's writelines() lacks
            transport.writelines(tail[:-1])
            if transport.is_closing():
                return
            tail = tail[-1:]
        for piece in tail:
            transport.write(piece)
            if transport.is_closing():
                return  # that write failed: asyncio closes the connection


class CacheServer:
    """Serve one :class:`CacheEngine` over TCP.

    Args:
        engine: the cache core; must outlive the server.
        host / port: bind address; ``port=0`` picks a free port (see
            :attr:`port` after :meth:`start`).
        max_inflight: per-connection window of requests on the engine pool.
        executor_workers: most threads the engine pool starts.
        ttl_interval: when > 0, runs ``engine.ttl_sweep()`` every that
            many (wall) seconds while the server is up.
    """

    def __init__(
        self,
        engine: CacheEngine,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: int = 32,
        executor_workers: int = 8,
        ttl_interval: float = 0.0,
    ) -> None:
        self.engine = engine
        self.host = host
        self.port = port
        self.max_inflight = max_inflight
        self.ttl_interval = ttl_interval
        self._pool = _EnginePool(executor_workers)
        self._server: asyncio.base_events.Server | None = None
        self._connections: set[_Connection] = set()
        # set whenever a pooled request finishes or a connection goes away;
        # drain() re-checks its conditions on it
        self._changed = asyncio.Event()
        self._draining = False
        self._ttl_task: asyncio.Task | None = None
        self._served = 0
        self._rejected = 0

    # ---------------------------------------------------------------- control

    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._pool.loop = asyncio.get_running_loop()
        self._server = await self._pool.loop.create_server(
            lambda: _Connection(self), self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.ttl_interval > 0:
            self._ttl_task = asyncio.create_task(self._ttl_loop())

    async def drain(self, timeout: float = 30.0) -> dict[str, Any]:
        """Graceful shutdown; returns a summary the caller can assert on."""
        self._draining = True
        if self._server is not None:
            self._server.close()  # stop listening; connections stay up
        if self._ttl_task is not None:
            self._ttl_task.cancel()
            try:
                await self._ttl_task
            except asyncio.CancelledError:
                pass  # cancellation is this loop's normal exit
            self._ttl_task = None
        deadline = asyncio.get_running_loop().time() + timeout
        # first let every in-flight request finish and write its response;
        # frames that arrive meanwhile are answered DRAINING
        clean = await self._until(
            lambda: not any(conn.pooled for conn in self._connections), deadline
        )
        # then retire the connections: close() flushes each write buffer
        for conn in list(self._connections):
            conn.transport.close()
        clean = await self._until(lambda: not self._connections, deadline) and clean
        for conn in list(self._connections):
            conn.transport.abort()  # a peer that never read its replies
        await self._until(lambda: not self._connections, deadline + 1.0)
        if self._server is not None:
            await self._server.wait_closed()
        self._pool.shutdown()
        return {"clean": clean, "served": self._served, "rejected": self._rejected}

    async def _until(self, done: Callable[[], bool], deadline: float) -> bool:
        """Wait (until ``deadline``) for ``done()``, re-checked whenever a
        pooled request or a connection ends; True if it came true."""
        while not done():
            self._changed.clear()
            remaining = deadline - asyncio.get_running_loop().time()
            try:
                await asyncio.wait_for(self._changed.wait(), max(remaining, 0.0))
            except asyncio.TimeoutError:
                return done()
        return True

    async def _ttl_loop(self) -> None:
        while True:
            await asyncio.sleep(self.ttl_interval)
            swept = self._pool.loop.create_future()
            self._pool.submit(self._ttl_sweep, functools.partial(_settle, swept))
            await swept

    def _ttl_sweep(self) -> None:
        try:
            self.engine.ttl_sweep()
        except Exception as exc:  # a pool job must not raise
            self.engine.metrics.record_error("service_ttl", exc)

    def _count_served(self, started: float) -> None:
        self._served += 1
        self.engine.metrics.histogram("service_request_seconds").observe(
            time.perf_counter() - started
        )

    # --------------------------------------------------------------- dispatch

    def _dispatch(self, request: wire.Request) -> wire.Response:
        """Engine call for one request; runs on an engine pool thread and
        never raises."""
        try:
            if isinstance(request, GetRequest):
                return _get_response(
                    self.engine.get(request.file_id, request.offset, request.length)
                )
            if isinstance(request, PutRequest):
                return PutResponse(
                    self.engine.put(request.file_id, request.page_index, request.data)
                )
            if isinstance(request, EvictRequest):
                return EvictResponse(
                    self.engine.evict(request.file_id, request.page_index)
                )
            if isinstance(request, StatsRequest):
                if request.fmt == 1:
                    return StatsResponse(self.engine.prometheus().encode())
                stats = dict(self.engine.stats())
                stats["server"] = {
                    "served": self._served,
                    "rejected": self._rejected,
                    "connections": len(self._connections),
                    "draining": self._draining,
                }
                return StatsResponse(json.dumps(stats, sort_keys=True).encode())
            if isinstance(request, HealthRequest):
                health = dict(self.engine.health())
                health["draining"] = self._draining
                return HealthResponse(json.dumps(health, sort_keys=True).encode())
            if isinstance(request, LengthRequest):
                return LengthResponse(self.engine.file_length(request.file_id))
            return ErrorResponse(
                ErrorCode.BAD_REQUEST, f"unhandled request {type(request).__name__}"
            )
        except (KeyError, FileNotFoundError) as exc:
            self.engine.metrics.record_error("service_dispatch", exc)
            return ErrorResponse(ErrorCode.NOT_FOUND, str(exc))
        except ValueError as exc:
            self.engine.metrics.record_error("service_dispatch", exc)
            return ErrorResponse(ErrorCode.BAD_REQUEST, str(exc))
        except Exception as exc:  # the wire gets an error frame, not a reset
            self.engine.metrics.record_error("service_dispatch", exc)
            return ErrorResponse(ErrorCode.SERVER_ERROR, repr(exc))


# -------------------------------------------------------------------- CLI


def build_engine(
    *,
    capacity_mb: int,
    page_kb: int,
    policy: str,
    files: int,
    file_mb: int,
    base_latency_ms: float,
    bandwidth_mb_s: float,
) -> CacheEngine:
    """Engine + synthetic remote for the standalone server."""
    # deferred: keeps `import repro.service.server` free of repro.storage
    from repro.core.config import CacheConfig
    from repro.ports.clock import WallClock
    from repro.storage.remote import SyntheticDataSource

    source = SyntheticDataSource(
        base_latency=base_latency_ms / 1000.0,
        bandwidth=bandwidth_mb_s * 1024 * 1024,
    )
    for index in range(files):
        source.add_file(f"bench/file-{index:05d}", file_mb * 1024 * 1024)
    config = CacheConfig.small(
        capacity_mb * 1024 * 1024, page_size=page_kb * 1024
    )
    config.eviction_policy = policy
    return CacheEngine(config, source=source, clock=WallClock())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-cache-server",
        description="Serve the cache core over TCP (length-prefixed binary "
        "protocol; see repro.service.protocol).",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=9736)
    parser.add_argument("--capacity-mb", type=int, default=256)
    parser.add_argument("--page-kb", type=int, default=64)
    parser.add_argument("--policy", default="lru")
    parser.add_argument("--files", type=int, default=64,
                        help="synthetic remote files to register")
    parser.add_argument("--file-mb", type=int, default=8)
    parser.add_argument("--base-latency-ms", type=float, default=2.0,
                        help="modelled remote latency floor")
    parser.add_argument("--bandwidth-mb-s", type=float, default=400.0)
    parser.add_argument("--max-inflight", type=int, default=32)
    parser.add_argument("--executor-workers", type=int, default=8)
    parser.add_argument("--ttl-interval", type=float, default=0.0)
    args = parser.parse_args(argv)

    engine = build_engine(
        capacity_mb=args.capacity_mb,
        page_kb=args.page_kb,
        policy=args.policy,
        files=args.files,
        file_mb=args.file_mb,
        base_latency_ms=args.base_latency_ms,
        bandwidth_mb_s=args.bandwidth_mb_s,
    )

    async def _run() -> None:
        server = CacheServer(
            engine,
            host=args.host,
            port=args.port,
            max_inflight=args.max_inflight,
            executor_workers=args.executor_workers,
            ttl_interval=args.ttl_interval,
        )
        await server.start()
        print(f"repro-cache-server listening on {server.host}:{server.port}")
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        try:
            import signal

            for sig in (signal.SIGINT, signal.SIGTERM):
                loop.add_signal_handler(sig, stop.set)
        except NotImplementedError:
            pass  # platform without signal handler support (e.g. Windows loop)
        await stop.wait()
        summary = await server.drain()
        print(f"repro-cache-server drained: {summary}")

    asyncio.run(_run())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
