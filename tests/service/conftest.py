"""Shared harness and checks for the service tests.

``run`` boots a ``CacheServer`` around one scenario and always drains it.
``assert_baseline`` (a fixture, so any test can end on it) checks that a
server is back where it started after whatever a test did to it: no
connection, no window slot, no queued pool work, no extra pool thread,
and a well-behaved client served at once.
"""

import asyncio
import threading

import pytest

from repro.core.engine import CacheEngine
from repro.ports.clock import WallClock
from repro.service.client import AsyncCacheClient
from repro.service.server import CacheServer

NOW = WallClock().now  # the sanctioned wall-clock port (monotonic seconds)


def run(scenario, engine: CacheEngine, **server_kwargs):
    """Boot a server, run ``scenario(server)``, always drain; returns the
    scenario's result and the drain summary, for the test to assert on."""

    async def harness():
        server = CacheServer(engine, **server_kwargs)
        await server.start()
        try:
            result = await scenario(server)
        finally:
            summary = await server.drain(timeout=10.0)
        return result, summary

    return asyncio.run(harness())


async def settle(server: CacheServer, timeout: float = 5.0) -> None:
    """Wait for the server to notice that its peers are gone."""
    deadline = NOW() + timeout
    while server._connections and NOW() < deadline:
        await asyncio.sleep(0.01)


async def check_baseline(server: CacheServer, workers: int) -> None:
    """No connection, no window slot, no queued or leaked pool work --
    and a well-behaved client is served at once."""
    await settle(server)
    assert server._connections == set()
    # what a vanished peer left on the pool runs out (it cannot be recalled)
    deadline = NOW() + 5.0
    while server._pool.queued and NOW() < deadline:
        await asyncio.sleep(0.01)
    assert server._pool.queued == 0
    pool_threads = [
        t for t in threading.enumerate() if t.name.startswith("cache-engine")
    ]
    assert len(pool_threads) <= workers
    client = await AsyncCacheClient.connect(server.host, server.port)
    try:
        health = await asyncio.wait_for(client.health(), timeout=5.0)
        assert health["status"] == "ok"
        (conn,) = server._connections
        assert conn.pooled == 0 and conn.transport.is_reading()
    finally:
        await client.close()
    await settle(server)


@pytest.fixture
def assert_baseline():
    """``await assert_baseline(server, workers)`` inside a running server."""
    return check_baseline
