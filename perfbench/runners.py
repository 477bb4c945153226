"""One measured pass of one workload: set-up, timed segments, tear-down.

Every loop is closed: a caller sends its next request only after the
previous reply (the cache's callers are Presto workers waiting for a page).
A segment is a fixed op count, identical on every commit; a pass runs
segments until its time budget is spent.
"""

from __future__ import annotations

import asyncio
import gc
import time
from dataclasses import dataclass, field
from typing import Any

from repro.core.page import installed_time_source
from repro.errors import ReproError
from repro.obs.profiler import KernelProfiler
from repro.ports.clock import SimClock
from repro.ports.rng import RngStream
from repro.presto.coordinator import PrestoCluster
from repro.service.client import AsyncCacheClient
from repro.sim.kernel import Kernel
from repro.workload.tpcds import build_tpcds_catalog_fast, tpcds_queries

from perfbench import fixtures, tracing, workloads
from perfbench.workloads import GET, MIB, PAGE, PUT, Op, Spec

MIN_SEGMENTS = 3
COUNTERS = (
    "get_hits", "get_misses", "puts", "evictions", "bytes_read_remote",
    "put_rejected_admission", "put_rejected_quota", "put_rejected_space",
)


@dataclass(slots=True)
class Segment:
    ops: int
    failed: int
    wall_s: float
    program_cpu_s: float          # the process the program runs in
    client_cpu_s: float           # the generator process (socket workloads)
    latencies_s: list[float]
    counters: dict[str, float]    # deltas over the segment


@dataclass(slots=True)
class PassResult:
    segments: list[Segment] = field(default_factory=list)
    setups_s: list[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    spin_ms: float = 0.0
    problems: list[str] = field(default_factory=list)
    server: dict[str, Any] = field(default_factory=dict)       # exit summary
    spans: dict[str, dict[str, int]] = field(default_factory=dict)
    client_spans: dict[str, dict[str, int]] = field(default_factory=dict)
    extras: dict[str, float] = field(default_factory=dict)

    def problem(self, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(message)


def spin_ms() -> float:
    """A fixed pure-Python loop, best of 5: the host's speed right now."""
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        best = min(best, time.perf_counter() - start)
    return best * 1e3


class _Budget:
    """Run segments until ``seconds`` are spent (at least ``MIN_SEGMENTS``),
    or exactly ``segments`` of them when that is given (the traced pass and
    its untraced twin, whose counts must repeat exactly)."""

    def __init__(self, seconds: float, segments: int | None) -> None:
        self._seconds = seconds
        self._segments = segments
        self._began: float | None = None   # the first question starts the clock
        self.done = 0

    def more(self) -> bool:
        if self._began is None:
            self._began = time.perf_counter()
        if self._segments is not None:
            return self.done < self._segments
        if self.done < MIN_SEGMENTS:
            return True
        return time.perf_counter() - self._began < self._seconds


def _delta(before: dict[str, float], after: dict[str, float]) -> dict[str, float]:
    return {key: after.get(key, 0) - before.get(key, 0) for key in after}


def _engine_counters(stats: dict[str, Any]) -> dict[str, float]:
    """Flatten one ``CacheEngine.stats()`` / STATS snapshot to the numbers
    the report needs."""
    flat = {name: stats["counters"].get(name, 0) for name in COUNTERS}
    flat["errors"] = sum(
        count for kinds in stats["errors"].values() for count in kinds.values()
    )
    request = stats["histograms"].get("service_request_seconds")
    flat["request_count"] = request["count"] if request else 0
    flat["request_seconds"] = request["total"] if request else 0.0
    return flat


# ------------------------------------------------------------------ sockets


async def _do(client: AsyncCacheClient, spec: Spec, op: Op,
              source: fixtures.PatternSource) -> str | None:
    """Send one op and verify the reply; returns a complaint or ``None``."""
    if op.kind == GET:
        reply = await client.get(op.file_id, op.offset, spec.read_bytes)
        if len(reply.data) != spec.read_bytes:
            return f"GET returned {len(reply.data)} bytes, want {spec.read_bytes}"
        if op.full_verify and reply.data != source.expected(
            op.file_id, op.offset, spec.read_bytes
        ):
            return f"GET bytes differ at {op.file_id}@{op.offset}"
    elif op.kind == PUT:
        page = source.expected(op.file_id, op.offset, PAGE)
        if not await client.put(op.file_id, op.offset // PAGE, page):
            return f"PUT not admitted at {op.file_id}@{op.offset}"
    else:
        removed = await client.evict(op.file_id, op.offset // PAGE)
        if removed not in (0, 1):
            return f"EVICT removed {removed} pages"
    return None


async def _drive(
    clients: list[AsyncCacheClient], spec: Spec, ops: list[Op],
    source: fixtures.PatternSource, tracer: tracing.Tracer | None,
    result: PassResult,
) -> tuple[int, float, list[float]]:
    """Closed loop: ``depth`` callers per connection share one op queue."""
    queue = iter(enumerate(ops))
    latencies = [0.0] * len(ops)
    failed = 0

    async def caller(client: AsyncCacheClient) -> None:
        nonlocal failed
        for index, op in queue:
            start = time.perf_counter_ns()
            try:
                complaint = await _do(client, spec, op, source)
            except (ReproError, ConnectionError, ValueError) as exc:
                # error frames surface as ReproError subclasses or
                # ValueError; a dead socket as ConnectionError
                complaint = f"{type(exc).__name__}: {exc}"
            end = time.perf_counter_ns()
            latencies[index] = (end - start) / 1e9
            if tracer is not None:
                tracer.record(
                    tracing.Span("client", "request", start, end, -1, index, 0)
                )
            if complaint is not None:
                failed += 1
                result.problem(complaint)

    began = time.perf_counter()
    callers = [
        asyncio.create_task(caller(clients[k % len(clients)]))
        for k in range(len(clients) * spec.depth)
    ]
    await asyncio.gather(*callers)
    return failed, time.perf_counter() - began, latencies


async def _svc_pass(
    spec: Spec, seed: int, traced: bool, budget: _Budget, setup_reps: int,
    server_cpu: int | None,
) -> PassResult:
    result = PassResult(spin_ms=spin_ms())
    server: fixtures.ServerProcess | None = None
    clients: list[AsyncCacheClient] = []
    tracer = tracing.Tracer() if traced else None
    try:
        for rep in range(setup_reps):
            began = time.perf_counter()
            source = workloads.make_source(spec, sleep=False)
            ops = workloads.segment_ops(spec, seed, 0)
            server = fixtures.ServerProcess(
                spec.name, seed, traced=traced, cpu=server_cpu
            )
            server.start()
            clients = [
                await AsyncCacheClient.connect("127.0.0.1", server.port)
                for _ in range(workloads.CONNECTIONS)
            ]
            result.setups_s.append(time.perf_counter() - began)
            if rep < setup_reps - 1:
                for client in clients:
                    await client.close()
                clients = []
                server.stop()
        assert server is not None
        result.extras.update(
            {k: v for k, v in server.ready.items() if isinstance(v, (int, float))}
        )
        if tracer is not None:
            tracing.wrap_protocol(tracer)
        before = _engine_counters(await clients[0].stats())
        while budget.more():
            if budget.done:
                ops = workloads.segment_ops(spec, seed, budget.done)
            program_cpu = fixtures.cpu_seconds(server.pid)
            own_cpu = time.process_time()
            if tracer is not None:
                tracer.enabled = True
            failed, wall, latencies = await _drive(
                clients, spec, ops, source, tracer, result
            )
            if tracer is not None:
                tracer.enabled = False
            own_cpu = time.process_time() - own_cpu
            program_cpu = fixtures.cpu_seconds(server.pid) - program_cpu
            after = _engine_counters(await clients[0].stats())
            result.segments.append(Segment(
                len(ops), failed, wall, program_cpu, own_cpu, latencies,
                _delta(before, after),
            ))
            before = after
            budget.done += 1
        result.peak_rss_mb = fixtures.peak_rss_mb(server.pid)
        for client in clients:
            await client.close()
        clients = []
        result.server = server.stop()
        result.spans = result.server["spans"]
        if tracer is not None:
            result.client_spans = tracer.summary()
            tracer.dump(fixtures.OUT_DIR / f"spans-{spec.name}-client.jsonl")
    finally:
        if tracer is not None:
            tracer.uninstall()
        for client in clients:
            await client.close()
        if server is not None:
            server.kill()
    if result.server["drain"]["rejected"]:
        result.problem(f"server rejected {result.server['drain']['rejected']} requests")
    return result


# ----------------------------------------------------------------- embedded


def _embed_pass(
    spec: Spec, seed: int, traced: bool, budget: _Budget, setup_reps: int,
) -> PassResult:
    result = PassResult(spin_ms=spin_ms())
    for _ in range(setup_reps):
        began = time.perf_counter()
        source = workloads.make_source(spec)
        engine = workloads.build_engine(spec, source, None)
        workloads.warm(spec, engine, source, seed)
        ops = workloads.segment_ops(spec, seed, 0)
        result.setups_s.append(time.perf_counter() - began)
    warm_reads, warm_bytes = source.reads, source.bytes
    tracer = tracing.Tracer()
    try:
        if traced:
            tracing.wrap_core(tracer, engine, source)
        get, expected, length = engine.get, source.expected, spec.read_bytes
        before = _engine_counters(engine.stats())
        while budget.more():
            if budget.done:
                ops = workloads.segment_ops(spec, seed, budget.done)
            latencies = [0.0] * len(ops)
            failed = 0
            tracer.enabled = traced
            cpu = time.process_time()
            began = time.perf_counter()
            for index, op in enumerate(ops):
                start = time.perf_counter()
                data = get(op.file_id, op.offset, length).data
                latencies[index] = time.perf_counter() - start
                if len(data) != length or (
                    op.full_verify and data != expected(op.file_id, op.offset, length)
                ):
                    failed += 1
                    result.problem(f"GET bytes wrong at {op.file_id}@{op.offset}")
            wall = time.perf_counter() - began
            cpu = time.process_time() - cpu
            tracer.enabled = False
            after = _engine_counters(engine.stats())
            result.segments.append(Segment(
                len(ops), failed, wall, cpu, 0.0, latencies, _delta(before, after)
            ))
            before = after
            budget.done += 1
        if traced:
            result.spans = tracer.summary()
            tracer.dump(fixtures.OUT_DIR / f"spans-{spec.name}.jsonl")
    finally:
        tracer.uninstall()
    result.peak_rss_mb = fixtures.own_peak_rss_mb()
    result.server = {
        "source_reads": source.reads - warm_reads,
        "source_bytes": source.bytes - warm_bytes,
        "cached_bytes": engine.health()["bytes_used"],
        "stored_bytes": engine.manager.page_store.bytes_used(0),
    }
    return result


# ---------------------------------------------------------------- simulator

SIM_ARRIVAL_GAP_S = 0.5
SIM_CONCURRENCY = 4


def _sim_round(seed: int, profile: bool):
    """A fresh cluster and kernel, ready to run one round of 99 queries.

    The profiles are the fixed TPC-DS-shaped set of the figure suite; the
    seed decides the order they arrive in.  (``tpcds_queries(seed=...)``
    itself would change the amount of work by +-13 % from seed to seed,
    which would drown every timing in workload variance.)
    """
    clock = SimClock()
    catalog, source = build_tpcds_catalog_fast(512 * MIB)
    cluster = PrestoCluster.create(
        catalog, source, n_workers=4, cache_capacity_bytes=32 * MIB,
        page_size=MIB, target_split_size=8 * MIB, clock=clock,
    )
    kernel = Kernel(clock)
    profiler = KernelProfiler(clock) if profile else None
    if profiler is not None:
        kernel.attach_profiler(profiler)
    cluster.attach_kernel(kernel)
    queries = tpcds_queries()
    order = RngStream(seed, "perfbench/sim_tpcds/order").rng.permutation(len(queries))
    arrivals = [
        (SIM_ARRIVAL_GAP_S * slot, queries[int(pick)])
        for slot, pick in enumerate(order)
    ]
    return clock, cluster, kernel, profiler, arrivals


def _sim_pass(
    spec: Spec, seed: int, traced: bool, budget: _Budget,
) -> PassResult:
    result = PassResult(spin_ms=spin_ms())
    tracer = tracing.Tracer()
    first: dict[str, float] | None = None
    try:
        if traced:
            tracing.wrap_presto(tracer)
        while budget.more():
            # the last round's cluster is cyclic garbage; left to the
            # collector's own schedule, peak RSS would grow with the number
            # of rounds a pass fits into its time budget
            gc.collect()
            began = time.perf_counter()
            clock, cluster, kernel, profiler, arrivals = _sim_round(seed, traced)
            result.setups_s.append(time.perf_counter() - began)
            with installed_time_source(clock.now):
                tracer.enabled = traced
                cpu = time.process_time()
                began = time.perf_counter()
                replies = cluster.coordinator.run_concurrent_kernel(
                    arrivals, kernel=kernel, worker_concurrency=SIM_CONCURRENCY
                )
                wall = time.perf_counter() - began
                cpu = time.process_time() - cpu
                tracer.enabled = False
            shed = sum(1 for reply in replies if reply.shed)
            if len(replies) != spec.segment_ops or shed:
                result.problem(f"{len(replies)} results, {shed} shed; want 99, 0")
            counts = {
                "events": float(kernel.events_fired),
                "virtual_s": clock.now(),
                "splits": float(sum(reply.stats.splits for reply in replies)),
                "hit_ratio": cluster.coordinator.cluster_hit_ratio(),
            }
            if profiler is not None:
                report = profiler.profile.counters()
                counts.update(
                    process_resumes=float(sum(profiler.profile.host_resumes.values())),
                    heap_pushes=float(report["timer_inserts"]),
                    ready_pushes=float(report["resume_schedules"]),
                    timer_cancels=float(report["timer_cancels"]),
                )
            # every segment is a fresh cluster at the same seed: identical
            # work, so the simulated results must repeat exactly
            if first is None:
                first = counts
                latencies = [reply.wall_seconds for reply in replies]
            else:
                latencies = []
                for key in ("events", "virtual_s", "splits"):
                    if counts[key] != first[key]:
                        result.problem(
                            f"{key} differs between fresh clusters: "
                            f"{first[key]} vs {counts[key]}"
                        )
            result.segments.append(Segment(
                len(replies), shed, wall, cpu, 0.0, latencies, counts
            ))
            budget.done += 1
        if traced:
            result.spans = tracer.summary()
            tracer.dump(fixtures.OUT_DIR / f"spans-{spec.name}.jsonl")
    finally:
        tracer.uninstall()
    result.peak_rss_mb = fixtures.own_peak_rss_mb()
    return result


# ----------------------------------------------------------------- dispatch


def run_pass(
    spec: Spec, seed: int, *, traced: bool = False, seconds: float = 12.0,
    segments: int | None = None, setup_reps: int = 1,
    server_cpu: int | None = None,
) -> PassResult:
    """One pass of ``spec``.  ``segments`` fixes the segment count (and so
    the work, exactly); otherwise segments run until ``seconds`` are spent."""
    budget = _Budget(seconds, segments)
    if spec.kind == "svc":
        return asyncio.run(
            _svc_pass(spec, seed, traced, budget, setup_reps, server_cpu)
        )
    if spec.kind == "embed":
        return _embed_pass(spec, seed, traced, budget, setup_reps)
    return _sim_pass(spec, seed, traced, budget)
