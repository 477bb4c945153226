"""Integration tests: real asyncio server + pipelined client, in process.

Every test boots a :class:`CacheServer` on a loopback port picked by the
OS, drives it with :class:`AsyncCacheClient`, and drains it -- the same
path perfbench's ``svc_*`` workloads exercise at larger scale.
"""

import asyncio

import pytest

from repro.core.config import CacheConfig
from repro.core.engine import CacheEngine
from repro.errors import FileNotFoundInStorageError
from repro.ports.clock import WallClock
from repro.service.client import AsyncCacheClient, CacheClientPool
from repro.service.server import CacheServer, build_engine
from repro.storage.remote import SyntheticDataSource
from tests.service.rawpeer import open_raw

KIB = 1024
PAGE = 16 * KIB


def make_engine(files: int = 4, capacity_pages: int = 64) -> CacheEngine:
    source = SyntheticDataSource(base_latency=0.0, bandwidth=1e12)
    for index in range(files):
        source.add_file(f"file-{index}", 8 * PAGE)
    return CacheEngine(
        CacheConfig.small(capacity_pages * PAGE, page_size=PAGE),
        source=source,
        clock=WallClock(),
    )


def run_with_server(scenario, *, engine: CacheEngine | None = None, **server_kwargs):
    """Boot a server, run ``scenario(server, engine)``, always drain."""
    engine = engine if engine is not None else make_engine()

    async def harness():
        server = CacheServer(engine, **server_kwargs)
        await server.start()
        try:
            result = await scenario(server, engine)
        finally:
            summary = await server.drain()
        return result, summary

    return asyncio.run(harness())


class TestRoundTrips:
    def test_get_returns_the_same_bytes_as_the_source(self):
        engine = make_engine()

        async def scenario(server, engine):
            client = await AsyncCacheClient.connect(server.host, server.port)
            try:
                response = await client.get("file-1", 5 * KIB, 2 * KIB)
            finally:
                await client.close()
            return response

        response, summary = run_with_server(scenario, engine=engine)
        reference = SyntheticDataSource(base_latency=0.0, bandwidth=1e12)
        reference.add_file("file-1", 8 * PAGE)
        assert response.data == reference.read("file-1", 5 * KIB, 2 * KIB).data
        assert len(response.data) == 2 * KIB
        assert response.page_hits + response.page_misses > 0
        assert summary["clean"] is True
        assert summary["served"] >= 1

    def test_second_get_is_a_cache_hit(self):
        async def scenario(server, engine):
            client = await AsyncCacheClient.connect(server.host, server.port)
            try:
                first = await client.get("file-0", 0, PAGE)
                second = await client.get("file-0", 0, PAGE)
            finally:
                await client.close()
            return first, second

        (first, second), _ = run_with_server(scenario)
        assert first.page_misses > 0
        assert second.page_hits > 0 and second.page_misses == 0
        assert second.fully_cached is True

    def test_put_then_evict_round_trip(self):
        async def scenario(server, engine):
            client = await AsyncCacheClient.connect(server.host, server.port)
            try:
                admitted = await client.put("manual/file", 0, b"\xab" * PAGE)
                present = engine.contains("manual/file", 0)
                removed = await client.evict("manual/file")
                gone = engine.contains("manual/file", 0)
            finally:
                await client.close()
            return admitted, present, removed, gone

        (admitted, present, removed, gone), _ = run_with_server(scenario)
        assert admitted is True
        assert present is True
        assert removed == 1
        assert gone is False

    def test_stats_health_and_length(self):
        async def scenario(server, engine):
            client = await AsyncCacheClient.connect(server.host, server.port)
            try:
                await client.get("file-2", 0, PAGE)
                stats = await client.stats()
                prom = await client.stats_prometheus()
                health = await client.health()
                length = await client.file_length("file-2")
            finally:
                await client.close()
            return stats, prom, health, length

        (stats, prom, health, length), _ = run_with_server(scenario)
        assert stats["counters"]["get_misses"] >= 1
        assert "server" in stats and stats["server"]["served"] >= 1
        assert stats["server"]["draining"] is False
        assert "cache_hit_ratio" in prom
        assert health["status"] == "ok" and health["draining"] is False
        assert length == 8 * PAGE


class TestErrorFrames:
    def test_unknown_file_maps_to_not_found(self):
        async def scenario(server, engine):
            client = await AsyncCacheClient.connect(server.host, server.port)
            try:
                with pytest.raises(FileNotFoundInStorageError):
                    await client.get("no/such/file", 0, PAGE)
                # the connection survives the error frame
                return await client.health()
            finally:
                await client.close()

        health, summary = run_with_server(scenario)
        assert health["status"] == "ok"
        assert summary["clean"] is True

    def test_corrupt_frame_gets_bad_request_error(self):
        from repro.service import protocol as wire

        async def scenario(server, engine):
            reader, writer = await open_raw(server.host, server.port)
            try:
                frame = bytearray(
                    wire.encode_request(wire.HealthRequest(), request_id=5)
                )
                frame[4] = 0x7E  # unknown opcode
                writer.write(bytes(frame))
                await writer.drain()
                return await reader.next_reply()
            finally:
                writer.close()
                await writer.wait_closed()

        (request_id, response), _ = run_with_server(scenario)
        assert isinstance(response, wire.ErrorResponse)
        assert response.code is wire.ErrorCode.BAD_REQUEST


class TestConcurrency:
    def test_pipelined_requests_on_one_connection(self):
        async def scenario(server, engine):
            client = await AsyncCacheClient.connect(server.host, server.port)
            try:
                responses = await asyncio.gather(
                    *(
                        client.get(f"file-{i % 4}", (i % 8) * PAGE, KIB)
                        for i in range(40)
                    )
                )
            finally:
                await client.close()
            return responses

        responses, summary = run_with_server(scenario)
        assert len(responses) == 40
        assert all(len(r.data) == KIB for r in responses)
        assert summary["served"] >= 40

    def test_backpressure_window_never_deadlocks(self):
        # a tiny in-flight window with far more outstanding requests than
        # slots: everything still completes, just more slowly
        async def scenario(server, engine):
            pool = await CacheClientPool.connect(
                server.host, server.port, size=3
            )
            try:
                responses = await asyncio.gather(
                    *(pool.get(f"file-{i % 4}", 0, KIB) for i in range(60))
                )
            finally:
                await pool.close()
            return responses

        responses, summary = run_with_server(
            scenario, max_inflight=2, executor_workers=2
        )
        assert len(responses) == 60
        assert summary["clean"] is True


class TestDrain:
    def test_drain_reports_clean_and_closes_clients(self):
        async def scenario():
            engine = make_engine()
            server = CacheServer(engine)
            await server.start()
            client = await AsyncCacheClient.connect(server.host, server.port)
            await client.get("file-0", 0, PAGE)
            summary = await server.drain()
            # the server closed the transport; the client's next call fails
            # loudly instead of hanging
            with pytest.raises(ConnectionError):
                for _ in range(50):
                    await client.get("file-0", 0, PAGE)
                    await asyncio.sleep(0.01)
            await client.close()
            return summary

        summary = asyncio.run(scenario())
        assert summary["clean"] is True
        assert summary["served"] == 1
        assert summary["rejected"] == 0

    def test_new_connections_refused_after_drain(self):
        async def scenario():
            engine = make_engine()
            server = CacheServer(engine)
            await server.start()
            host, port = server.host, server.port
            await server.drain()
            with pytest.raises(OSError):
                await asyncio.wait_for(
                    asyncio.open_connection(host, port), timeout=5
                )

        asyncio.run(scenario())


class TestBuildEngine:
    def test_cli_rig_serves_its_synthetic_files(self):
        engine = build_engine(
            capacity_mb=4, page_kb=16, policy="lru", files=2, file_mb=1,
            base_latency_ms=0.0, bandwidth_mb_s=10_000.0,
        )

        async def scenario(server, engine):
            client = await AsyncCacheClient.connect(server.host, server.port)
            try:
                return await client.get("bench/file-00000", 0, 4 * KIB)
            finally:
                await client.close()

        response, summary = run_with_server(scenario, engine=engine)
        assert len(response.data) == 4 * KIB
        assert summary["clean"] is True
