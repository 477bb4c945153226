"""Asyncio cache client: pipelined connections, a pool, and a sync facade.

Three layers, innermost first:

- :class:`AsyncCacheClient` -- one connection.  Requests carry ids, so
  many may be in flight at once; response frames (arriving in any order)
  are matched back to their futures as the socket delivers them.
- :class:`CacheClientPool` -- N connections, round-robin dispatch; the
  unit the facade below runs.
- :class:`RemoteCacheDataSource` -- a *synchronous*
  :class:`~repro.storage.remote.DataSource` facade running the pool on a
  private background event loop.  It raises ``ConnectionError`` /
  ``RemoteReadError`` on transport trouble, exactly the retryable set of
  :class:`~repro.resilience.source.ResilientDataSource` -- so its retry
  and circuit breaker compose unchanged over real sockets.  Its hedge and
  per-attempt deadline race attempts on the event kernel and do not apply
  here; the facade's own ``timeout`` is the real per-call deadline.

This module is part of the sanctioned real-time zone (DET001/KRN004
allowlist): latencies reported by the facade are measured wall time, not
modelled time.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import threading
import time
from concurrent.futures import TimeoutError as FutureTimeout
from typing import Any

from repro.errors import FileNotFoundInStorageError, RemoteReadError
from repro.service import protocol as wire
from repro.service.protocol import (
    ErrorCode,
    ErrorResponse,
    EvictRequest,
    GetRequest,
    GetResponse,
    HealthRequest,
    LengthRequest,
    ProtocolError,
    PutRequest,
    StatsRequest,
)
from repro.storage.remote import ReadResult


def _raise_for_error(error: ErrorResponse) -> None:
    """Map an error frame onto the repo's exception vocabulary."""
    if error.code is ErrorCode.NOT_FOUND:
        raise FileNotFoundInStorageError(error.message)
    if error.code in (ErrorCode.BAD_REQUEST, ErrorCode.TOO_LARGE):
        raise ValueError(f"cache service rejected request: {error.message}")
    # DRAINING / SERVER_ERROR: transient from the caller's viewpoint --
    # RemoteReadError is in ResilientDataSource's retryable set
    raise RemoteReadError(f"cache service error ({error.code.name}): {error.message}")


class AsyncCacheClient(asyncio.BufferedProtocol):
    """One pipelined connection to a :class:`~repro.service.server.CacheServer`.

    The client is its own transport protocol: the socket receives into the
    decoder's buffer and :meth:`buffer_updated` resolves the futures of the
    replies that completed.  No reader task, no lock: a request is one
    ``transport.write`` and waits only for its reply -- and, before that,
    for a transport that is above its write high-water mark.
    """

    def __init__(self) -> None:
        self._transport: asyncio.Transport | None = None
        self._decoder = wire.FrameDecoder()
        self._pending: dict[int, asyncio.Future] = {}
        self._request_ids = itertools.count(1)
        self._closed = False
        self._writable = asyncio.Event()  # clear while the transport says pause
        self._writable.set()
        self._lost: asyncio.Future | None = None  # done by connection_lost

    @classmethod
    async def connect(cls, host: str, port: int) -> "AsyncCacheClient":
        loop = asyncio.get_running_loop()
        return (await loop.create_connection(cls, host, port))[1]

    # the transport's side (asyncio.BufferedProtocol) ------------------------

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._transport = transport  # type: ignore[assignment]
        self._lost = asyncio.get_running_loop().create_future()

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._decoder.get_buffer()

    def buffer_updated(self, nbytes: int) -> None:
        decoder, pending = self._decoder, self._pending
        decoder.buffer_updated(nbytes)
        try:
            while (payload := decoder.next_frame()) is not None:
                request_id, response = wire.decode_response(payload)
                # a reply nobody waits for (cancelled, or never asked) is dropped
                future = pending.get(request_id)
                if future is not None and not future.done():
                    future.set_result(response)
        except ProtocolError as exc:
            self._fail(ConnectionError(f"cache service connection failed: {exc!r}"))
            self._transport.abort()

    def pause_writing(self) -> None:
        self._writable.clear()

    def resume_writing(self) -> None:
        self._writable.set()

    def connection_lost(self, exc: Exception | None) -> None:
        reason = "closed" if exc is None else f"failed: {exc!r}"
        if self._decoder.pending:
            reason += " mid frame"
        self._fail(ConnectionError(f"cache service connection {reason}"))
        if not self._lost.done():
            self._lost.set_result(None)

    def _fail(self, error: ConnectionError) -> None:
        """Fail every request still waiting, once; refuse new ones."""
        self._closed = True
        for future in self._pending.values():
            if not future.done():
                future.set_exception(error)
        self._writable.set()  # writers parked on backpressure see _closed

    async def request(self, req: wire.Request) -> wire.Response:
        while not self._writable.is_set():
            await self._writable.wait()  # backpressure: one frame past the mark
        if self._closed or self._transport is None:
            raise ConnectionError("cache client is closed")
        request_id = next(self._request_ids)
        frame = wire.encode_request(req, request_id=request_id)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        # 3.12's transport keeps what it is given: fresh bytes, never a buffer view
        self._transport.write(frame)
        try:
            response = await future
        finally:
            del self._pending[request_id]  # also when cancelled or timed out
        if isinstance(response, ErrorResponse):
            _raise_for_error(response)
        return response

    # typed convenience verbs ------------------------------------------------

    async def get(self, file_id: str, offset: int, length: int) -> GetResponse:
        response = await self.request(GetRequest(file_id, offset, length))
        assert isinstance(response, GetResponse)
        return response

    async def put(self, file_id: str, page_index: int, data: bytes) -> bool:
        response = await self.request(PutRequest(file_id, page_index, data))
        assert isinstance(response, wire.PutResponse)
        return response.admitted

    async def evict(self, file_id: str, page_index: int | None = None) -> int:
        response = await self.request(EvictRequest(file_id, page_index))
        assert isinstance(response, wire.EvictResponse)
        return response.removed

    async def stats(self) -> dict[str, Any]:
        response = await self.request(StatsRequest(fmt=0))
        assert isinstance(response, wire.StatsResponse)
        return json.loads(response.payload)

    async def health(self) -> dict[str, Any]:
        response = await self.request(HealthRequest())
        assert isinstance(response, wire.HealthResponse)
        return json.loads(response.payload)

    async def file_length(self, file_id: str) -> int:
        response = await self.request(LengthRequest(file_id))
        assert isinstance(response, wire.LengthResponse)
        return response.length

    async def close(self) -> None:
        self._closed = True
        if self._transport is not None:
            # every waiting caller is failed, so nobody is left to read a reply:
            # drop unsent requests, do not flush them to a peer that may not read
            self._transport.abort()
            await self._lost


class CacheClientPool:
    """N pipelined connections with round-robin dispatch."""

    def __init__(self, host: str, port: int, *, size: int = 4) -> None:
        if size <= 0:
            raise ValueError(f"pool size must be positive, got {size}")
        self.host = host
        self.port = port
        self.size = size
        self._clients: list[AsyncCacheClient] = []
        self._rr = itertools.count()

    @classmethod
    async def connect(cls, host: str, port: int, *, size: int = 4) -> "CacheClientPool":
        pool = cls(host, port, size=size)
        pool._clients = [
            await AsyncCacheClient.connect(host, port) for _ in range(size)
        ]
        return pool

    def client(self) -> AsyncCacheClient:
        if not self._clients:
            raise ConnectionError("cache client pool is not connected")
        return self._clients[next(self._rr) % len(self._clients)]

    async def get(self, file_id: str, offset: int, length: int) -> GetResponse:
        return await self.client().get(file_id, offset, length)

    async def put(self, file_id: str, page_index: int, data: bytes) -> bool:
        return await self.client().put(file_id, page_index, data)

    async def evict(self, file_id: str, page_index: int | None = None) -> int:
        return await self.client().evict(file_id, page_index)

    async def stats(self) -> dict[str, Any]:
        return await self.client().stats()

    async def health(self) -> dict[str, Any]:
        return await self.client().health()

    async def file_length(self, file_id: str) -> int:
        return await self.client().file_length(file_id)

    async def close(self) -> None:
        for client in self._clients:
            await client.close()
        self._clients = []


class RemoteCacheDataSource:
    """Synchronous :class:`DataSource` over the cache service.

    The facade owns a private event loop on a daemon thread; every call
    round-trips through it.  ``read`` reports *measured* wall latency --
    callers composing :class:`~repro.resilience.source.ResilientDataSource`
    over this source get real retries and a real circuit breaker against
    real sockets; a call that outlives ``timeout`` raises a retryable
    ``RemoteReadError``.
    """

    def __init__(
        self, host: str, port: int, *, pool_size: int = 2, timeout: float = 30.0,
    ) -> None:
        self._timeout = timeout
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="cache-client-loop", daemon=True
        )
        self._thread.start()
        self._pool: CacheClientPool = self._call(
            CacheClientPool.connect(host, port, size=pool_size)
        )

    def _call(self, coro):
        future = asyncio.run_coroutine_threadsafe(coro, self._loop)
        try:
            return future.result(self._timeout)
        except FutureTimeout:
            future.cancel()  # stops the coroutine on the private loop too
            raise RemoteReadError(
                f"cache service call timed out after {self._timeout} s"
            ) from None

    # DataSource protocol ----------------------------------------------------

    def file_length(self, file_id: str) -> int:
        return self._call(self._pool.file_length(file_id))

    def read(self, file_id: str, offset: int, length: int) -> ReadResult:
        started = time.perf_counter()
        response = self._call(self._pool.get(file_id, offset, length))
        return ReadResult(response.data, time.perf_counter() - started)

    # lifecycle --------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        return self._call(self._pool.stats())

    def close(self) -> None:
        if self._loop.is_closed():
            return
        self._call(self._pool.close())
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=self._timeout)
        self._loop.close()

    def __enter__(self) -> "RemoteCacheDataSource":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
