"""The server's engine pool: threads on demand, overlap, exactly-once callbacks.

``CacheServer`` hands every request that cannot be answered on the loop to
``_EnginePool``: a job queue, at most ``executor_workers`` threads started
only when a job finds none idle, and finished jobs' callbacks run in
batches on the loop.  Every test here runs under the switch-interval
stress fixture, so the hand-offs between pool threads and the loop race as
often as they can.
"""

import asyncio
import threading
import time

import pytest

from repro.core.config import CacheConfig
from repro.core.engine import CacheEngine
from repro.ports.clock import WallClock
from repro.service.client import AsyncCacheClient
from repro.service.server import CacheServer, _EnginePool
from repro.storage.remote import SyntheticDataSource

pytestmark = pytest.mark.usefixtures("switch_interval_stress")

NOW = WallClock().now
KIB = 1024
PAGE = 16 * KIB


def run_pool(scenario, workers: int):
    """Run ``scenario(pool)`` on a fresh loop; always shut the pool down."""

    async def harness():
        pool = _EnginePool(workers)
        pool.loop = asyncio.get_running_loop()
        try:
            return await scenario(pool), pool
        finally:
            pool.shutdown()

    return asyncio.run(harness())


def test_an_all_hit_run_starts_no_pool_thread():
    source = SyntheticDataSource(base_latency=0.0, bandwidth=1e12)
    source.add_file("f", 8 * PAGE)
    engine = CacheEngine(
        CacheConfig.small(64 * PAGE, page_size=PAGE), source=source,
        clock=WallClock(),
    )
    engine.prefetch("f")

    async def scenario():
        server = CacheServer(engine, executor_workers=8)
        await server.start()
        try:
            client = await AsyncCacheClient.connect(server.host, server.port)
            try:
                replies = await asyncio.gather(
                    *(client.get("f", (n % 8) * PAGE, PAGE) for n in range(200))
                )
            finally:
                await client.close()
            return replies, list(server._pool._threads)
        finally:
            assert (await server.drain(timeout=10.0))["clean"]

    replies, threads = asyncio.run(scenario())
    assert all(reply.page_hits == 1 for reply in replies)
    assert threads == []


def test_blocking_jobs_overlap_across_every_worker():
    """16 jobs that each block 50 ms on 8 workers take two rounds, not
    sixteen: the overlap svc_miss's blocking remote reads depend on."""
    running = peak = 0
    lock = threading.Lock()

    def job():
        nonlocal running, peak
        with lock:
            running += 1
            peak = max(peak, running)
        time.sleep(0.05)
        with lock:
            running -= 1
        return threading.current_thread().name

    async def scenario(pool):
        loop = asyncio.get_running_loop()
        futures = [loop.create_future() for _ in range(16)]
        began = NOW()
        for future in futures:
            pool.submit(job, future.set_result)
        names = await asyncio.gather(*futures)
        return NOW() - began, names

    (elapsed, names), pool = run_pool(scenario, workers=8)
    assert peak == 8
    assert len(set(names)) == 8
    assert all(name.startswith("cache-engine") for name in names)
    # two rounds of 50 ms (one worker would take 0.8 s); slack for slow hosts
    assert 0.1 <= elapsed < 0.25


class _YieldingLock:
    """The pool's lock, but the loop thread dawdles 100 µs before taking
    it: the window between the drain's last look at the reply queue and
    its next step is where a lost wake-up would hide, so widen it."""

    def __init__(self) -> None:
        self._lock = threading.Lock()

    def __enter__(self):
        if threading.current_thread() is threading.main_thread():
            time.sleep(1e-4)
        return self._lock.__enter__()

    def __exit__(self, *exc):
        return self._lock.__exit__(*exc)


def test_ten_thousand_jobs_each_call_back_exactly_once():
    calls = [0] * 10_000
    pooled = 0

    def done(index):
        nonlocal pooled
        assert threading.current_thread() is threading.main_thread()
        calls[index] += 1
        pooled -= 1

    async def scenario(pool):
        nonlocal pooled
        pool._lock = _YieldingLock()
        # 2 000 rounds of 5: the end of every round is a chance for the last
        # reply to be stranded with nobody left to wake the loop for it
        for first in range(0, 10_000, 5):
            for index in range(first, first + 5):
                pooled += 1
                # staggered: replies keep arriving while a drain runs
                pool.submit(lambda index=index: time.sleep(index % 5 * 5e-5) or index, done)
            deadline = NOW() + 5.0
            while pooled and NOW() < deadline:
                await asyncio.sleep(0)
            if pooled:
                break
        return len(pool._threads)

    threads, pool = run_pool(scenario, workers=8)
    assert pooled == 0
    assert calls == [1] * 10_000
    assert 1 <= threads <= 8
    assert pool.queued == 0
    assert pool._threads == []  # shutdown joined them


def test_a_raising_callback_does_not_strand_the_others():
    seen = []

    def done(value):
        if value == 3:
            raise RuntimeError("callback bug")
        seen.append(value)

    async def scenario(pool):
        loop = asyncio.get_running_loop()
        errors = []
        loop.set_exception_handler(lambda _loop, context: errors.append(context))
        for value in range(8):
            pool.submit(lambda value=value: value, done)
        deadline = NOW() + 10.0
        while len(seen) < 7 and NOW() < deadline:
            await asyncio.sleep(0.001)
        return errors

    errors, _ = run_pool(scenario, workers=2)
    assert sorted(seen) == [0, 1, 2, 4, 5, 6, 7]
    assert [type(context["exception"]) for context in errors] == [RuntimeError]
