"""Chaos soak: a Zipf query stream replayed through a Presto cluster on
the event kernel while the injector kills workers and browns out the
object store.

This is the end-to-end resilience assertion the Section 7 lessons build
toward: with consistent hashing (lazy data movement), per-node circuit
breakers, hedged reads, retries with backoff, and remote storage as the
final fallback, a cluster that loses nodes mid-trace must keep answering
every query -- the *error rate stays zero* and the cluster hit ratio
recovers shortly after each fault window closes.  Every fault is
*experienced*: a hedge is a kernel race whose loser is cancelled
mid-transfer, a kill strands the splits queued on the victim, and the
coordinator fails them over to the surviving replica.

Scenario (virtual time, one simulated hour):

- 6 Presto workers cache a 64-file table (1 MiB files, 128 KiB pages) held
  in an S3-like object store; each query scans a Zipf(1.1)-placed window
  of 8 files;
- the object store is browned out for the whole hour (15 % of requests pay
  +250 ms, 2 % fail, 1 % corrupt in transit), behind one
  ``ResilientDataSource`` that retries the hard faults and hedges the
  slow reads;
- fault window 1 kills TWO workers (``worker-0`` just after t=900s,
  ``worker-1`` just after t=930s, 300 s each); fault window 2 kills
  ``worker-2`` just after t=2100s.  Each kill lands 1 ms into a query,
  while its splits are queued on the victim.

``CHAOS_SOAK_QUICK=1`` keeps the same virtual-time scenario but replays
720 queries (5 s apart) instead of 3600 (1 s apart) -- the CI setting.

Run explicitly (benchmarks are not part of tier-1)::

    PYTHONPATH=src python -m pytest benchmarks/test_chaos_soak.py -q
"""

import os

import pytest
from harness import emit_report
from presto_harness import WindowedHitRatio

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
from repro.presto import PrestoCluster, QueryProfile, ScanProfile, TableScan
from repro.presto.catalog import Catalog, build_table
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
from repro.ports.rng import RngStream
from repro.sim.sanitizer import DeterminismHarness
from repro.storage.object_store import ObjectStore
from repro.storage.remote import ObjectStoreDataSource
from repro.workload.zipf import ZipfSampler

QUICK = bool(os.environ.get("CHAOS_SOAK_QUICK"))

SEED = 20240702
SOAK_SECONDS = 3600.0
N_QUERIES = 720 if QUICK else 3600
N_WORKERS = 6
# one executor per worker: a kill strands every split queued behind the
# one the victim is running
WORKER_CONCURRENCY = 1
N_FILES = 64
FILE_SIZE = 1 * MIB
PAGE_SIZE = 128 * 1024
FILES_PER_QUERY = 8
# one file is 8 column chunks of one page each; a query projects one
N_COLUMNS = 8
SCAN = ScanProfile(columns_read=1, row_group_selectivity=1.0)
COMPUTE_SECONDS = 0.01
# per-worker SSD smaller than its share of the scanned pages: the cold
# tail of the Zipf keeps missing, so the object store stays on the path
CACHE_CAPACITY = 1 * MIB
WINDOW = 300.0  # hit-ratio accounting granularity (12 windows per hour)

# (worker, fault window start, window length); window 1 kills two
# workers at once.  A kill between queries strands nothing (the
# coordinator never places a split on an offline worker), so each kill
# lands KILL_LAG into the query arriving at its window start.
KILLS = (
    ("worker-0", 900.0, 300.0),
    ("worker-1", 930.0, 300.0),
    ("worker-2", 2100.0, 300.0),
)
KILL_LAG = 0.001
# shorter than the gap between queries: the victim's outcomes in the query
# a kill lands in decide alone whether its breaker trips
BREAKER_WINDOW = 0.5
BROWNOUT = dict(
    fail_probability=0.02,
    corrupt_probability=0.01,
    delay_probability=0.15,
    delay_seconds=0.25,
)
# hedge past p80: at p95 no hedge fires, because the 15 % of delayed
# reads *are* the tail the percentile is taken over
HEDGE_PERCENTILE = 80.0
# (pre-fault window index, post-recovery window index) per fault window:
# faults land in windows 3 ([900, 1200)) and 7 ([2100, 2400)); one full
# window of re-warm time is allowed before the recovered ratio is measured
RECOVERY_CHECKS = ((2, 5), (6, 9))


def run_soak(seed: int, n_queries: int = N_QUERIES) -> dict:
    """One soak run under mandatory SimClock injection: the virtual clock
    is installed as the page time source for the scenario's whole extent,
    so no ``PageInfo`` stamp can silently read the wall clock."""
    clock = SimClock()
    with installed_time_source(clock.now):
        return _run_soak(clock, seed, n_queries)


def run_traced_soak(
    seed: int, n_queries: int = N_QUERIES, profiler=None
) -> tuple[dict, SimTracer]:
    """The same soak with a SimTracer installed; returns (result, tracer).

    The tracer draws ids from its own derived rng stream, so the traced
    scenario's virtual results are identical to the untraced run's.  An
    optional scheduler ``profiler`` is attached to the cluster's kernel
    (pure observer: it must not change any result either).
    """
    clock = SimClock()
    tracer = SimTracer(
        clock, RngStream(seed, "chaos-soak-trace"), buffer=SpanBuffer()
    )
    with installed_time_source(clock.now):
        with installed_tracer(tracer):
            result = _run_soak(clock, seed, n_queries, profiler=profiler)
    return result, tracer


def run_profiled_soak(
    seed: int, n_queries: int = N_QUERIES
) -> tuple[dict, SimTracer, KernelProfiler]:
    """Traced soak with a scheduler profiler on the cluster's kernel."""
    clock = SimClock()
    profiler = KernelProfiler(clock)
    tracer = SimTracer(
        clock, RngStream(seed, "chaos-soak-trace"), buffer=SpanBuffer()
    )
    with installed_time_source(clock.now):
        with installed_tracer(tracer):
            result = _run_soak(clock, seed, n_queries, profiler=profiler)
    return result, tracer, profiler


def _build_catalog(store: ObjectStore) -> Catalog:
    table = build_table(
        "lake",
        "events",
        n_partitions=N_FILES,
        files_per_partition=1,
        file_size=FILE_SIZE,
        n_columns=N_COLUMNS,
        n_row_groups=1,
    )
    for i, (__, file) in enumerate(table.all_files()):
        store.put_object(file.file_id, bytes([i % 251]) * FILE_SIZE)
    catalog = Catalog()
    catalog.add_table(table)
    return catalog


def _build_arrivals(root: RngStream, n_queries: int):
    offsets = ZipfSampler(N_FILES, 1.1, root.child("zipf")).sample(n_queries)
    dt = SOAK_SECONDS / n_queries
    return [
        (
            i * dt,
            QueryProfile(
                query_id=f"q{i:05d}",
                scans=(
                    TableScan(
                        table="lake.events",
                        partition_fraction=FILES_PER_QUERY / N_FILES,
                        profile=SCAN,
                        partition_offset=int(offset),
                    ),
                ),
                compute_seconds=COMPUTE_SECONDS,
            ),
        )
        for i, offset in enumerate(offsets)
    ]


def _run_soak(
    clock: SimClock, seed: int, n_queries: int, profiler=None
) -> dict:
    root = RngStream(seed, "chaos-soak")
    metrics = MetricsRegistry("chaos-soak")

    store = ObjectStore(clock=clock)
    catalog = _build_catalog(store)
    hedge = HedgePolicy(
        threshold_percentile=HEDGE_PERCENTILE,
        min_observations=50,
        metrics=metrics,
    )
    remote = ResilientDataSource(
        ObjectStoreDataSource(store),
        policy=RetryPolicy(max_attempts=4, base_delay=0.05, jitter=0.2),
        rng=root.child("retry"),
        hedge=hedge,
        metrics=metrics,
    )
    health = NodeHealthTracker(
        clock=clock,
        breakers=BreakerBoard(
            clock=clock,
            metrics=metrics,
            min_volume=1,
            window_seconds=BREAKER_WINDOW,
            reset_timeout=120.0,
        ),
        metrics=metrics,
    )
    cluster = PrestoCluster.create(
        catalog,
        remote,
        n_workers=N_WORKERS,
        cache_capacity_bytes=CACHE_CAPACITY,
        page_size=PAGE_SIZE,
        target_split_size=FILE_SIZE,
        clock=clock,
        health=health,
        offline_timeout=900.0,
    )
    kernel = cluster.kernel
    if profiler is not None:
        kernel.attach_profiler(profiler)

    chaos = ChaosInjector(clock=clock, rng=root.child("chaos"))
    chaos.register_all(cluster.workers)
    for name, at, duration in KILLS:
        chaos.schedule_crash(kernel, name, at=at + KILL_LAG, duration=duration)
    chaos.set_remote_faults(store, RemoteFaultState(**BROWNOUT))

    hit_ratio = WindowedHitRatio(cluster, WINDOW, SOAK_SECONDS)
    kernel.spawn(hit_ratio.monitor(), name="hit-ratio-monitor")

    arrivals = _build_arrivals(root, n_queries)
    results = cluster.coordinator.run_concurrent_kernel(
        arrivals, worker_concurrency=WORKER_CONCURRENCY
    )

    completions = [
        (r.query_id, arrival + r.wall_seconds)
        for (arrival, __), r in zip(arrivals, results)
    ]
    return {
        "queries": len(results),
        # unanswered queries: a query that raised would have aborted the
        # run, and with no admission controller none is shed
        "errors": len(arrivals) - sum(1 for r in results if not r.shed),
        "completions": completions,
        "latency_sum": round(sum(r.wall_seconds for r in results), 6),
        # the serial work each query's root span reports as its ``wall``
        "work_sum": round(
            sum(
                r.stats.input_wall + r.stats.compute_wall + COMPUTE_SECONDS
                for r in results
            ),
            6,
        ),
        "kernel_events": kernel.events_fired,
        "chaos_events": list(chaos.events),
        "breaker_events": list(health.breakers.events),
        "breaker_trips": health.breakers.total_trips(),
        "hedged_requests": hedge.hedged_requests,
        "hedge_wins": hedge.hedge_wins,
        "hedge_errors": hedge.hedge_errors,
        "hedge_wasted_bytes": hedge.wasted_bytes,
        "split_failovers": cluster.coordinator.split_failovers,
        "bypassed_splits": sum(r.stats.cache_bypassed_splits for r in results),
        "store_requests": store.request_count,
        "store_delays": store.chaos_delays,
        "store_failures": store.chaos_failures,
        "store_corruptions": store.chaos_corruptions,
        "window_hit_ratios": hit_ratio.windows(),
        "final_hit_ratio": round(cluster.coordinator.cluster_hit_ratio(), 6),
        "counters": {
            name: value
            for name, value in to_json_dict(metrics)["counters"].items()
            if value
        },
        "health": health.snapshot(),
    }


def window_ratio(result: dict, index: int) -> float:
    """Hit ratio of window ``index`` ([index * WINDOW, (index + 1) * WINDOW))."""
    end = (index + 1) * WINDOW
    return dict(result["window_hit_ratios"])[end]


class TestChaosSoak:
    def test_cluster_survives_one_hour_of_faults(self):
        result = run_soak(SEED)

        # every query answered: kills + brownout never surface to the caller
        assert result["queries"] == N_QUERIES
        assert result["errors"] == 0

        # the scenario actually bit: >= 2 node kills landed...
        kills = [e for e in result["chaos_events"] if e[1] == "crash"]
        assert len(kills) >= 2
        # ... and >= 5 % of object-store requests were delayed
        delayed_fraction = result["store_delays"] / result["store_requests"]
        assert delayed_fraction >= 0.05

        # every resilience mechanism fired, observably
        assert result["counters"]["retries"] > 0
        assert result["hedged_requests"] > 0
        assert result["counters"]["hedged_requests"] > 0
        # a hedge loser really was cancelled mid-transfer
        assert result["hedge_wasted_bytes"] > 0
        assert result["split_failovers"] > 0
        assert result["breaker_trips"] > 0
        assert result["counters"]["breaker_trips"] > 0

        # hit ratio recovers to within 10 % of its pre-fault level after
        # each fault window (one re-warm window of slack)
        for pre_idx, post_idx in RECOVERY_CHECKS:
            pre = window_ratio(result, pre_idx)
            post = window_ratio(result, post_idx)
            assert post >= pre - 0.10, (
                f"hit ratio did not recover after fault window: "
                f"window {pre_idx} = {pre:.3f}, window {post_idx} = {post:.3f}"
            )

        lines = [
            f"mode               : {'quick' if QUICK else 'full'}"
            f" ({N_QUERIES} queries over {SOAK_SECONDS:.0f} simulated s)",
            f"errors             : {result['errors']}",
            f"node kills         : {len(kills)}"
            f"  {[(e[2], e[0]) for e in kills]}",
            f"delayed remote     : {result['store_delays']}"
            f"/{result['store_requests']}"
            f" ({100 * delayed_fraction:.1f} %)",
            f"failed remote      : {result['store_failures']}"
            f" (+{result['store_corruptions']} corrupted)",
            f"retries            : {result['counters']['retries']}",
            f"hedged requests    : {result['hedged_requests']}"
            f" ({result['hedge_wins']} wins,"
            f" {result['hedge_wasted_bytes']} B moved by cancelled losers)",
            f"split failovers    : {result['split_failovers']}",
            f"breaker trips      : {result['breaker_trips']}",
            f"bypassed splits    : {result['bypassed_splits']}",
            f"degraded serves    : {result['counters'].get('degraded_serves', 0)}",
            f"kernel events      : {result['kernel_events']}",
            f"final hit ratio    : {result['final_hit_ratio']:.3f}",
            "",
            "window  span (s)       cluster hit ratio",
        ]
        for end, ratio in result["window_hit_ratios"]:
            start = end - WINDOW
            span = f"[{start:.0f}, {end:.0f})"
            fault = ""
            if any(at < end and at + dur > start for __, at, dur in KILLS):
                fault = "  <- fault window"
            lines.append(
                f"{int(start // WINDOW):>6}  {span:<14} {ratio:>8.3f}{fault}"
            )
        emit_report("chaos_soak", "\n".join(lines))


# shortened stream for the double-run gates: determinism needs coverage,
# not scale (queries 15 s apart, so each kill still lands in one)
N_SHORT = 240


@pytest.fixture(scope="module")
def plain_short() -> dict:
    return run_soak(SEED, n_queries=N_SHORT)


@pytest.fixture(scope="module")
def traced_short() -> tuple[dict, SimTracer]:
    return run_traced_soak(SEED, n_queries=N_SHORT)


@pytest.fixture(scope="module")
def profiled_pair() -> list[tuple[dict, SimTracer, KernelProfiler]]:
    """Two traced runs with a full scheduler profiler each."""
    return [run_profiled_soak(SEED, n_queries=N_SHORT) for __ in range(2)]


def sanitizer_scenario(trace, seed: int = SEED, n_queries: int = N_SHORT):
    """The determinism trail: every query's completion instant, then the
    chaos and breaker trails and the fault counters."""
    result = run_soak(seed, n_queries=n_queries)
    for query_id, completed in result["completions"]:
        trace.record("query-complete", completed, query_id)
    trace.record_all(result["chaos_events"])
    trace.record_all(result["breaker_events"])
    trace.record(
        "soak-summary", SOAK_SECONDS, "cluster",
        detail=(
            f"hit={result['final_hit_ratio']}"
            f"|errors={result['errors']}"
            f"|latency={result['latency_sum']}"
            f"|failovers={result['split_failovers']}"
        ),
    )
    return {
        key: result[key]
        for key in (
            "kernel_events", "hedged_requests", "hedge_wins",
            "hedge_wasted_bytes", "split_failovers", "breaker_trips",
        )
    } | {"retries": result["counters"].get("retries", 0)}


class TestChaosSoakDeterminism:
    def test_same_seed_identical_results(self, plain_short):
        """Same seed -> bit-identical completions and retry/hedge/breaker/
        chaos trail."""
        assert run_soak(SEED, n_queries=N_SHORT) == plain_short

    def test_different_seed_diverges(self, plain_short):
        assert run_soak(SEED + 1, n_queries=N_SHORT) != plain_short

    @pytest.mark.determinism
    def test_sanitizer_double_run_hashes_match(self):
        """The CI sanitizer gate: DeterminismHarness replays the quick
        soak scenario twice from one seed and demands identical rolling
        hashes over the (event type, virtual timestamp, actor) trail."""
        report = DeterminismHarness(sanitizer_scenario).check()
        assert report.deterministic
        assert report.hash_first == report.hash_second
        assert report.events_first > N_SHORT  # completions + kills + summary


class TestTracedSoak:
    """The tracing acceptance gates: reconciliation, schema, determinism,
    and zero behavioural impact."""

    def test_traced_results_match_untraced(self, plain_short, traced_short):
        """Tracing must be a pure observer: the result dict of a traced
        run is identical to the plain run's (the tracer's rng streams are
        its own; no scenario draw is perturbed)."""
        traced, tracer = traced_short
        assert traced == plain_short
        assert len(tracer.buffer) > 0

    def test_attribution_reconciles_within_1_percent(self, traced_short):
        """Per-query bucket sums land within 1 % of the query's reported
        wall, hedged queries included, and the fleet total reconciles
        against the work the queries reported."""
        result, tracer = traced_short
        reports = attribute_buffer(tracer.buffer)
        assert len(reports) == N_SHORT
        off = [r for r in reports if not r.within(0.01)]
        assert not off, (
            f"{len(off)}/{len(reports)} traces off by >1%: "
            f"{[(r.trace_id, r.wall, r.charged_total) for r in off[:5]]}"
        )
        wall_total = sum(r.wall for r in reports)
        assert wall_total == pytest.approx(result["work_sum"], rel=1e-6)
        # hedged queries are among them, reconciled with no correction
        hedged = {
            span.trace_id
            for span in tracer.buffer.spans()
            if any(event["name"] == "hedge" for event in span.events)
        }
        assert hedged

        lines = [
            f"queries traced     : {len(reports)}"
            f" ({len(hedged)} with a hedge race)",
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
        _, tracer = run_traced_soak(SEED, n_queries=60)
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
    def test_traced_double_run_identical_span_trees(self, profiled_pair):
        """Same seed, tracing on: the full span forest (ids, structure,
        charges, events) is bit-identical across runs, and no span leaks."""
        (first_result, first_tracer, __), (second_result, second_tracer, __) = (
            profiled_pair
        )
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

    def test_profiled_results_match_untraced(self, plain_short, profiled_pair):
        """A full profiler on the kernel perturbs no soak result."""
        for result, __, profiler in profiled_pair:
            assert result == plain_short
            counters = profiler.profile.counters()
            assert counters["events_popped"] > 0
            assert counters["timer_inserts"] > 0

    def test_noop_profiled_run_identical_results_and_span_trees(
        self, traced_short
    ):
        """NOOP profiler attached: exact same results AND identical span
        trees as the traced run without any profiler (the acceptance
        criterion's 'enabling the NOOP profiler changes no simulation
        results')."""
        base_result, base_tracer = traced_short
        noop_result, noop_tracer = run_traced_soak(
            SEED, n_queries=N_SHORT, profiler=NOOP_PROFILER
        )
        assert noop_result == base_result
        assert tree_signature(noop_tracer.buffer.spans()) == tree_signature(
            base_tracer.buffer.spans()
        )

    @pytest.mark.determinism
    def test_profiled_double_run_byte_identical_virtual_profile(
        self, profiled_pair
    ):
        """Double-run of the traced+profiled soak: the virtual-time profile
        document and the folded wait-state export are byte-identical (host
        fields excluded by construction)."""
        docs = []
        for result, __, profiler in profiled_pair:
            profile = profiler.finalize()
            docs.append(
                (profile.to_json(include_host=False),
                 profile.folded_wait_states(),
                 result["final_hit_ratio"])
            )
        assert docs[0] == docs[1]
