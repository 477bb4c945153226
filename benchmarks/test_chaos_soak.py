"""Chaos soak: a Zipf trace replayed through the distributed cache tier
while the injector kills workers and browns out the object store.

This is the end-to-end resilience assertion the Section 7 lessons build
toward: with consistent hashing (lazy data movement), per-node circuit
breakers, hedged reads, retries with backoff, and remote storage as the
final fallback, a cluster that loses nodes mid-trace must keep answering
every query -- the *error rate stays zero* and the tier hit ratio recovers
shortly after each fault window closes.

Scenario (virtual time, one simulated hour):

- 6 cache workers front an S3-like object store; a Zipf(1.1) trace reads
  128 KiB ranges from a 64-file working set;
- the object store is browned out for the whole hour (15 % of requests pay
  +250 ms, 2 % fail, 1 % corrupt in transit -- the last two retried by the
  ``ResilientDataSource`` in front of it);
- fault window 1 kills TWO workers (``cw-0`` at t=900s, ``cw-1`` at
  t=930s, 300 s each); fault window 2 kills ``cw-2`` at t=2100s.

``CHAOS_SOAK_QUICK=1`` keeps the same virtual-time scenario but replays
720 requests (5 s apart) instead of 3600 (1 s apart) -- the CI setting.

Run explicitly (benchmarks are not part of tier-1)::

    PYTHONPATH=src python -m pytest benchmarks/test_chaos_soak.py -q
"""

import os

import pytest
from harness import emit_report

from repro.core.config import MIB
from repro.core.metrics import MetricsRegistry
from repro.core.page import installed_time_source
from repro.core.metrics_export import to_json_dict
from repro.obs import (
    NOOP_PROFILER,
    KernelProfiler,
    SimTracer,
    SpanBuffer,
    attribute_buffer,
    critical_path,
    format_attribution,
    format_critical_path,
    installed_tracer,
    to_chrome_trace,
    tree_signature,
)
from repro.distributed.client import DistributedCacheClient
from repro.distributed.worker import CacheWorker
from repro.resilience import (
    BreakerBoard,
    ChaosInjector,
    HedgePolicy,
    NodeHealthTracker,
    RemoteFaultState,
    ResilientDataSource,
    RetryPolicy,
)
from repro.ports.clock import SimClock
from repro.sim.kernel import Kernel
from repro.ports.rng import RngStream
from repro.sim.sanitizer import DeterminismHarness
from repro.storage.object_store import ObjectStore
from repro.storage.remote import ObjectStoreDataSource
from repro.workload.zipf import ZipfSampler

QUICK = bool(os.environ.get("CHAOS_SOAK_QUICK"))

SEED = 20240702
SOAK_SECONDS = 3600.0
N_REQUESTS = 720 if QUICK else 3600
N_WORKERS = 6
N_FILES = 64
FILE_SIZE = 1 * MIB
READ_SIZE = 128 * 1024
WINDOW = 300.0  # hit-ratio accounting granularity (12 windows per hour)

# (worker, crash at, window length); window 1 kills two workers at once
KILLS = (
    ("cw-0", 900.0, 300.0),
    ("cw-1", 930.0, 300.0),
    ("cw-2", 2100.0, 300.0),
)
BROWNOUT = dict(
    fail_probability=0.02,
    corrupt_probability=0.01,
    delay_probability=0.15,
    delay_seconds=0.25,
)
# (pre-fault window index, post-recovery window index) per fault window:
# faults land in windows 3 ([900, 1200)) and 7 ([2100, 2400)); one full
# window of re-warm time is allowed before the recovered ratio is measured
RECOVERY_CHECKS = ((2, 5), (6, 9))


class _TierNode:
    """Chaos adapter: ``revive`` goes through the client so the ring seat
    is marked online again (lazy data movement, no key churn)."""

    def __init__(self, client: DistributedCacheClient, name: str) -> None:
        self.client = client
        self.name = name

    def fail(self) -> None:
        self.client.worker(self.name).fail()

    def recover(self) -> None:
        self.client.notify_recovered(self.name)


def run_soak(seed: int, n_requests: int = N_REQUESTS) -> dict:
    """One soak run under mandatory SimClock injection: the virtual clock
    is installed as the page time source for the scenario's whole extent,
    so no ``PageInfo`` stamp can silently read the wall clock."""
    clock = SimClock()
    with installed_time_source(clock.now):
        return _run_soak(clock, seed, n_requests)


def run_traced_soak(
    seed: int, n_requests: int = N_REQUESTS, profiler=None
) -> tuple[dict, SimTracer]:
    """The same soak with a SimTracer installed; returns (result, tracer).

    The tracer draws ids from its own derived rng stream, so the traced
    scenario's virtual results are identical to the untraced run's.  An
    optional scheduler ``profiler`` is attached to the soak's event loop
    (pure observer: it must not change any result either).
    """
    clock = SimClock()
    tracer = SimTracer(
        clock, RngStream(seed, "chaos-soak-trace"), buffer=SpanBuffer()
    )
    with installed_time_source(clock.now):
        with installed_tracer(tracer):
            result = _run_soak(clock, seed, n_requests, profiler=profiler)
    return result, tracer


def run_profiled_soak(
    seed: int, n_requests: int = N_REQUESTS
) -> tuple[dict, SimTracer, KernelProfiler]:
    """Traced soak with a scheduler profiler on the event loop."""
    clock = SimClock()
    profiler = KernelProfiler(clock)
    tracer = SimTracer(
        clock, RngStream(seed, "chaos-soak-trace"), buffer=SpanBuffer()
    )
    with installed_time_source(clock.now):
        with installed_tracer(tracer):
            result = _run_soak(clock, seed, n_requests, profiler=profiler)
    return result, tracer, profiler


def _run_soak(
    clock: SimClock, seed: int, n_requests: int, profiler=None
) -> dict:
    root = RngStream(seed, "chaos-soak")
    metrics = MetricsRegistry("chaos-soak")

    store = ObjectStore(clock=clock)
    for i in range(N_FILES):
        store.put_object(f"lake/f{i:03d}", bytes([i % 251]) * FILE_SIZE)
    remote = ResilientDataSource(
        ObjectStoreDataSource(store),
        policy=RetryPolicy(max_attempts=4, base_delay=0.05, jitter=0.2),
        rng=root.child("retry"),
        metrics=metrics,
    )

    workers = [
        CacheWorker(
            f"cw-{i}",
            remote,
            cache_capacity_bytes=24 * MIB,
            page_size=READ_SIZE,
            clock=clock,
        )
        for i in range(N_WORKERS)
    ]
    health = NodeHealthTracker(
        clock=clock,
        breakers=BreakerBoard(
            clock=clock, metrics=metrics, min_volume=1, reset_timeout=120.0
        ),
        metrics=metrics,
    )
    hedge = HedgePolicy(min_observations=50, metrics=metrics)
    client = DistributedCacheClient(
        workers,
        remote,
        clock=clock,
        health=health,
        hedge=hedge,
        metrics=metrics,
        offline_timeout=900.0,
    )

    loop = Kernel(clock)
    if profiler is not None:
        loop.attach_profiler(profiler)
    chaos = ChaosInjector(clock=clock, rng=root.child("chaos"))
    chaos.register_all({w.name: _TierNode(client, w.name) for w in workers})
    for name, at, duration in KILLS:
        chaos.schedule_crash(loop, name, at=at, duration=duration)
    chaos.set_remote_faults(store, RemoteFaultState(**BROWNOUT))

    sampler = ZipfSampler(N_FILES, 1.1, root.child("zipf"))
    ranks = sampler.sample(n_requests)
    offsets = root.child("offsets").rng.integers(
        0, FILE_SIZE // READ_SIZE, size=n_requests
    )

    dt = SOAK_SECONDS / n_requests
    errors = 0
    latency_sum = 0.0
    snapshots: list[tuple[int, int]] = []  # cumulative (hits, misses)
    next_boundary = WINDOW

    def snapshot() -> tuple[int, int]:
        hits = sum(w.metrics.counter("get_hits").value for w in workers)
        misses = sum(w.metrics.counter("get_misses").value for w in workers)
        return hits, misses

    for i in range(n_requests):
        t = (i + 1) * dt
        while t > next_boundary + 1e-9:
            snapshots.append(snapshot())
            next_boundary += WINDOW
        loop.run_until(t)
        file_id = f"lake/f{int(ranks[i]):03d}"
        try:
            result = client.read(file_id, int(offsets[i]) * READ_SIZE, READ_SIZE)
            latency_sum += result.latency
        except Exception:
            errors += 1
    while len(snapshots) < int(SOAK_SECONDS / WINDOW):
        snapshots.append(snapshot())

    window_hit_ratios = []
    previous = (0, 0)
    for hits, misses in snapshots:
        d_hits = hits - previous[0]
        d_total = (hits + misses) - (previous[0] + previous[1])
        window_hit_ratios.append(round(d_hits / d_total, 6) if d_total else 0.0)
        previous = (hits, misses)

    return {
        "errors": errors,
        "latency_sum": round(latency_sum, 6),
        "chaos_events": list(chaos.events),
        "breaker_events": list(health.breakers.events),
        "breaker_trips": health.breakers.total_trips(),
        "hedged_requests": hedge.hedged_requests,
        "hedge_wins": hedge.hedge_wins,
        "failovers": client.failovers,
        "remote_fallbacks": client.remote_fallbacks,
        "store_requests": store.request_count,
        "store_delays": store.chaos_delays,
        "store_failures": store.chaos_failures,
        "store_corruptions": store.chaos_corruptions,
        "window_hit_ratios": window_hit_ratios,
        "final_hit_ratio": round(client.tier_hit_ratio(), 6),
        "counters": {
            name: value
            for name, value in to_json_dict(metrics)["counters"].items()
            if value
        },
        "health": health.snapshot(),
    }


class TestChaosSoak:
    def test_cluster_survives_one_hour_of_faults(self):
        result = run_soak(SEED)

        # every query answered: kills + brownout never surface to the caller
        assert result["errors"] == 0

        # the scenario actually bit: >= 2 node kills landed...
        kills = [e for e in result["chaos_events"] if e[1] == "crash"]
        assert len(kills) >= 2
        # ... and >= 5 % of object-store requests were delayed
        delayed_fraction = result["store_delays"] / result["store_requests"]
        assert delayed_fraction >= 0.05

        # every resilience mechanism fired, observably (exported counters)
        assert result["breaker_trips"] > 0
        assert result["counters"]["breaker_trips"] > 0
        assert result["hedged_requests"] > 0
        assert result["counters"]["hedged_requests"] > 0
        assert result["counters"]["retries"] > 0
        assert result["failovers"] > 0
        assert result["counters"]["degraded_serves"] > 0

        # hit ratio recovers to within 10 % of its pre-fault level after
        # each fault window (one re-warm window of slack)
        ratios = result["window_hit_ratios"]
        for pre_idx, post_idx in RECOVERY_CHECKS:
            assert ratios[post_idx] >= ratios[pre_idx] - 0.10, (
                f"hit ratio did not recover after fault window: "
                f"window {pre_idx} = {ratios[pre_idx]:.3f}, "
                f"window {post_idx} = {ratios[post_idx]:.3f}"
            )

        lines = [
            f"mode               : {'quick' if QUICK else 'full'}"
            f" ({N_REQUESTS} requests over {SOAK_SECONDS:.0f} simulated s)",
            f"errors             : {result['errors']}",
            f"node kills         : {len(kills)}"
            f"  {[(e[2], e[0]) for e in kills]}",
            f"delayed remote     : {result['store_delays']}"
            f"/{result['store_requests']}"
            f" ({100 * delayed_fraction:.1f} %)",
            f"failed remote      : {result['store_failures']}"
            f" (+{result['store_corruptions']} corrupted)",
            f"breaker trips      : {result['breaker_trips']}",
            f"hedged requests    : {result['hedged_requests']}"
            f" ({result['hedge_wins']} wins)",
            f"retries            : {result['counters']['retries']}",
            f"failovers          : {result['failovers']}",
            f"remote fallbacks   : {result['remote_fallbacks']}",
            f"degraded serves    : {result['counters']['degraded_serves']}",
            f"final hit ratio    : {result['final_hit_ratio']:.3f}",
            "",
            "window  span (s)       tier hit ratio",
        ]
        for k, ratio in enumerate(ratios):
            span = f"[{k * WINDOW:.0f}, {(k + 1) * WINDOW:.0f})"
            fault = ""
            if any(at < (k + 1) * WINDOW and at + dur > k * WINDOW
                   for __, at, dur in KILLS):
                fault = "  <- fault window"
            lines.append(f"{k:>6}  {span:<14} {ratio:>8.3f}{fault}")
        emit_report("chaos_soak", "\n".join(lines))


class TestChaosSoakDeterminism:
    def test_same_seed_identical_event_sequences(self):
        """Same seed -> bit-identical retry/hedge/breaker/chaos trail."""
        n = 480  # shortened trace: determinism needs coverage, not scale
        a = run_soak(SEED, n_requests=n)
        b = run_soak(SEED, n_requests=n)
        assert a == b

    def test_different_seed_diverges(self):
        n = 480
        a = run_soak(SEED, n_requests=n)
        c = run_soak(SEED + 1, n_requests=n)
        assert a != c

    @pytest.mark.determinism
    def test_sanitizer_double_run_hashes_match(self):
        """The CI sanitizer gate: DeterminismHarness replays the quick
        soak scenario twice from one seed and demands identical rolling
        hashes over the (event type, virtual timestamp, actor) trail."""
        n = 480

        def scenario(trace):
            result = run_soak(SEED, n_requests=n)
            trace.record_all(result["chaos_events"])
            trace.record_all(result["breaker_events"])
            trace.record(
                "soak-summary", SOAK_SECONDS, "tier",
                detail=(
                    f"hit={result['final_hit_ratio']}"
                    f"|errors={result['errors']}"
                    f"|latency={result['latency_sum']}"
                    f"|failovers={result['failovers']}"
                ),
            )
            return result["counters"]

        report = DeterminismHarness(scenario).check()
        assert report.deterministic
        assert report.hash_first == report.hash_second
        assert report.events_first > 3  # kills + breaker activity + summary


class TestTracedSoak:
    """The tracing acceptance gates: reconciliation, schema, determinism,
    and zero behavioural impact."""

    N = 480

    def test_traced_results_match_untraced(self):
        """Tracing must be a pure observer: the result dict of a traced
        run is identical to the plain run's (the tracer's rng streams are
        its own; no scenario draw is perturbed)."""
        plain = run_soak(SEED, n_requests=self.N)
        traced, tracer = run_traced_soak(SEED, n_requests=self.N)
        assert traced == plain
        assert len(tracer.buffer) > 0

    def test_attribution_reconciles_within_1_percent(self):
        """Per-request bucket sums land within 1 % of the measured virtual
        latency, and the fleet total reconciles against latency_sum."""
        result, tracer = run_traced_soak(SEED, n_requests=self.N)
        reports = attribute_buffer(tracer.buffer)
        assert len(reports) == self.N
        off = [r for r in reports if not r.within(0.01)]
        assert not off, (
            f"{len(off)}/{len(reports)} traces off by >1%: "
            f"{[(r.trace_id, r.wall, r.charged_total) for r in off[:5]]}"
        )
        wall_total = sum(r.wall for r in reports)
        assert wall_total == pytest.approx(result["latency_sum"], rel=1e-6)

        lines = [
            f"requests traced    : {len(reports)}",
            f"buffer dropped     : {tracer.buffer.dropped}",
            "",
            format_attribution(reports, top=3),
        ]
        slowest = sorted(reports, key=lambda r: (-r.wall, r.trace_id))[0]
        lines += [
            "",
            f"critical path of slowest trace ({slowest.trace_id}):",
            format_critical_path(
                critical_path(tracer.buffer.trace(slowest.trace_id))
            ),
        ]
        emit_report("trace_attribution", "\n".join(lines))

    def test_chrome_export_schema_valid(self):
        _, tracer = run_traced_soak(SEED, n_requests=60)
        doc = to_chrome_trace(tracer.buffer.spans())
        events = doc["traceEvents"]
        assert events
        for event in events:
            assert event["ph"] in {"X", "M"}
            assert "ts" in event
            assert "pid" in event
            assert "tid" in event
            if event["ph"] == "X":
                assert event["dur"] >= 0.0

    @pytest.mark.determinism
    def test_traced_double_run_identical_span_trees(self):
        """Same seed, tracing on: the full span forest (ids, structure,
        charges, events) is bit-identical across runs, and no span leaks."""
        first_result, first_tracer = run_traced_soak(SEED, n_requests=self.N)
        second_result, second_tracer = run_traced_soak(SEED, n_requests=self.N)
        assert first_result == second_result
        assert first_tracer.open_spans() == []
        assert second_tracer.open_spans() == []
        assert tree_signature(first_tracer.buffer.spans()) == tree_signature(
            second_tracer.buffer.spans()
        )


class TestProfiledSoak:
    """The scheduler profiler as a pure observer on the chaos soak
    (DESIGN.md §12 acceptance: profiling changes nothing, and the virtual
    profile is itself deterministic)."""

    N = 480

    def test_profiled_results_match_untraced(self):
        """A full profiler on the event loop perturbs no soak result."""
        plain = run_soak(SEED, n_requests=self.N)
        profiled, __, profiler = run_profiled_soak(SEED, n_requests=self.N)
        assert profiled == plain
        counters = profiler.profile.counters()
        assert counters["events_popped"] > 0
        assert counters["timer_inserts"] > 0

    def test_noop_profiled_run_identical_results_and_span_trees(self):
        """NOOP profiler attached: exact same results AND identical span
        trees as the traced run without any profiler (the acceptance
        criterion's 'enabling the NOOP profiler changes no simulation
        results')."""
        base_result, base_tracer = run_traced_soak(SEED, n_requests=self.N)
        noop_result, noop_tracer = run_traced_soak(
            SEED, n_requests=self.N, profiler=NOOP_PROFILER
        )
        assert noop_result == base_result
        assert tree_signature(noop_tracer.buffer.spans()) == tree_signature(
            base_tracer.buffer.spans()
        )

    @pytest.mark.determinism
    def test_profiled_double_run_byte_identical_virtual_profile(self):
        """Double-run of the traced+profiled soak: the virtual-time profile
        document and the folded wait-state export are byte-identical (host
        fields excluded by construction)."""
        docs = []
        for __ in range(2):
            result, __tracer, profiler = run_profiled_soak(
                SEED, n_requests=self.N
            )
            profile = profiler.finalize()
            docs.append(
                (profile.to_json(include_host=False),
                 profile.folded_wait_states(),
                 result["final_hit_ratio"])
            )
        assert docs[0] == docs[1]
