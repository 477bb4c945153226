"""Churn soak: a flash-crowd query stream replayed through a 120-worker
Presto cluster while an AZ-style correlated failure cools a third of the
fleet's caches.

This is the end-to-end robustness assertion the cluster-lifecycle
subsystem builds toward: with consistent hashing (lazy data movement --
the crashed nodes keep their ring seats), rebalancer-driven cache warmup
on restore, and a coordinator admission controller applying the overload
ladder (admit -> queue -> degrade -> shed), a cluster that loses an AZ
mid-storm must (a) recover its hit ratio to within five points of the
pre-churn steady state, measurably fast, and (b) hold a strictly better
churn-phase p99 than the same cluster with admission control off.

Scenario (virtual time, one simulated hour):

- 120 workers cache a 48-partition / 192-file table (256 KiB files,
  64 KiB pages) fed by a null object store; each worker's cache is
  smaller than its key share, so the cluster runs in the paper's
  capacity-constrained regime (steady-state hit ratio < 1);
- background queries arrive as a two-state bursty process and scan a
  Zipf-popular window of 4 partitions each;
- at t=1500 s every third worker crashes *and loses its SSD contents*;
  the group restarts together at t=1800 s, inside the 900 s offline
  timeout, so zero ring seats expire -- but the restored caches are cold
  and the rebalancer has to re-warm them;
- simultaneously a flash crowd hammers one fixed 4-partition window
  (every dashboard refreshing the same new data) for the whole outage --
  the hot files' owner workers are the bottleneck the admission
  controller has to protect.

``CHURN_SOAK_QUICK=1`` keeps the same cluster and churn schedule but
replays a quieter arrival process -- the CI setting.  The full run
replays > 1 M page requests.

Run explicitly (benchmarks are not part of tier-1)::

    PYTHONPATH=src python -m pytest benchmarks/test_churn_soak.py -q
"""

import os

import pytest
from harness import emit_json, emit_report
from presto_harness import WindowedHitRatio

from repro.cluster import (
    AdmissionController,
    ChurnDriver,
    ClusterLifecycle,
    ShardRebalancer,
    correlated_failure,
    hit_ratio_recovery,
    phase_p99,
)
from repro.core.config import MIB
from repro.core.page import installed_time_source
from repro.presto import PrestoCluster, QueryProfile, ScanProfile, TableScan
from repro.presto.catalog import Catalog, build_table
from repro.resilience.health import NodeHealthTracker
from repro.ports.clock import SimClock
from repro.ports.rng import RngStream
from repro.sim.sanitizer import DeterminismHarness
from repro.storage.remote import NullDataSource
from repro.tools.report import format_membership
from repro.workload.arrivals import bursty_arrivals, poisson_arrivals
from repro.workload.zipf import ZipfSampler

QUICK = bool(os.environ.get("CHURN_SOAK_QUICK"))

SEED = 20240808

SOAK_SECONDS = 3600.0
WINDOW = 150.0  # hit-ratio accounting granularity (24 windows per hour)

N_WORKERS = 120
WORKER_CONCURRENCY = 1
N_PARTITIONS = 48
FILES_PER_PARTITION = 4
FILE_SIZE = 256 * 1024
PAGE_SIZE = 64 * 1024
PARTITIONS_PER_QUERY = 4
SPLITS_PER_QUERY = PARTITIONS_PER_QUERY * FILES_PER_PARTITION
# per-worker SSD smaller than its key share: ~1.6 primary files each but
# room for 4 pages (one file) -- the cluster thrashes, like production
CACHE_CAPACITY = 4 * PAGE_SIZE

OFFLINE_TIMEOUT = 900.0
CHURN_AT = 1500.0
DOWNTIME = 300.0
# churn phase for p99 accounting: crash window plus one re-warm window
CHURN_END = CHURN_AT + DOWNTIME + 2 * WINDOW
# the AZ: every third worker, SSDs lost with the containers
AZ_NODES = tuple(f"worker-{i}" for i in range(0, N_WORKERS, 3))

# bursty background: storms of ~1 min over a quiet base rate
QUIET_RATE, BURST_RATE = (0.2, 2.0) if QUICK else (2.0, 20.0)
MEAN_QUIET, MEAN_BURST = 240.0, 60.0
# the flash crowd: a fixed-window dashboard storm for the whole outage
STORM_RATE = 8.0 if QUICK else 20.0
STORM_OFFSET = 0  # every storm query scans the same 4 partitions

# degrade-to-remote stays a genuine last resort (in-flight backlog at
# 90 % of the fleet's executor slots): this scenario's bottleneck is the
# hot files' owner slots, and cache-bypassed queries make slot queues
# *longer*, so tripping the rung early would trade a thrash problem the
# cluster does not have for a latency problem it does (measured: churn
# p99 370 s with degrade at 60 % occupancy vs 53 s without)
ADMISSION = dict(
    max_concurrent=24,
    max_queue_depth=48,
    degrade_occupancy=0.9,
)


def _query(index: int, offset: int) -> QueryProfile:
    return QueryProfile(
        query_id=f"q{index:05d}",
        scans=(
            TableScan(
                table="lake.events",
                partition_fraction=PARTITIONS_PER_QUERY / N_PARTITIONS,
                profile=ScanProfile(columns_read=8, row_group_selectivity=1.0),
                partition_offset=offset,
            ),
        ),
        compute_seconds=0.02,
    )


def _build_arrivals(seed: int, max_queries: int | None):
    root = RngStream(seed, "churn-soak")
    background = bursty_arrivals(
        QUIET_RATE,
        BURST_RATE,
        SOAK_SECONDS,
        root.child("arrivals"),
        mean_quiet_seconds=MEAN_QUIET,
        mean_burst_seconds=MEAN_BURST,
    )
    offsets = ZipfSampler(N_PARTITIONS, 1.05, root.child("zipf")).sample(
        background.size
    )
    # the flash crowd rides the outage: everyone refreshes one dashboard
    storm = CHURN_AT + poisson_arrivals(
        STORM_RATE, DOWNTIME, root.child("storm")
    )
    merged = sorted(
        [(float(t), int(offsets[i])) for i, t in enumerate(background)]
        + [(float(t), STORM_OFFSET) for t in storm]
    )
    arrivals = [
        (t, _query(i, offset)) for i, (t, offset) in enumerate(merged)
    ]
    if max_queries is not None:
        arrivals = arrivals[:max_queries]
    return arrivals


def run_churn_soak(
    seed: int, *, admission_on: bool = True, max_queries: int | None = None
) -> dict:
    """One soak run under mandatory SimClock injection (DET001)."""
    clock = SimClock()
    with installed_time_source(clock.now):
        return _run(clock, seed, admission_on, max_queries)


def _run(
    clock: SimClock, seed: int, admission_on: bool, max_queries: int | None
) -> dict:
    catalog = Catalog()
    table = build_table(
        "lake",
        "events",
        n_partitions=N_PARTITIONS,
        files_per_partition=FILES_PER_PARTITION,
        file_size=FILE_SIZE,
        n_columns=8,
        n_row_groups=4,
    )
    catalog.add_table(table)
    source = NullDataSource(base_latency=0.08, bandwidth=200e6)
    file_ids = []
    for __, file in table.all_files():
        source.add_file(file.file_id, file.size)
        file_ids.append(file.file_id)

    health = NodeHealthTracker(clock=clock)
    cluster = PrestoCluster.create(
        catalog,
        source,
        n_workers=N_WORKERS,
        cache_capacity_bytes=CACHE_CAPACITY,
        page_size=PAGE_SIZE,
        target_split_size=FILE_SIZE,
        clock=clock,
        health=health,
        offline_timeout=OFFLINE_TIMEOUT,
    )
    cluster.membership.track_keys(file_ids)

    kernel = cluster.kernel
    rebalancer = ShardRebalancer(strategy="prefetch", max_keys_per_event=512)
    lifecycle = ClusterLifecycle(
        cluster, kernel=kernel, rebalancer=rebalancer, health=health
    )
    schedule = correlated_failure(
        AZ_NODES, at=CHURN_AT, downtime=DOWNTIME, lose_cache=True
    )
    driver = ChurnDriver(
        lifecycle, schedule, expire_interval=300.0, horizon=CHURN_END
    )
    kernel.spawn(driver.proc(), name="churn-driver")

    admission = None
    if admission_on:
        admission = AdmissionController(
            kernel,
            occupancy_fn=cluster.coordinator.live_occupancy,
            # "full" = in-flight splits cover every executor slot the
            # fleet offers; beyond that, new admits bypass the cache
            occupancy_capacity=N_WORKERS * WORKER_CONCURRENCY,
            **ADMISSION,
        )

    hit_ratio = WindowedHitRatio(cluster, WINDOW, SOAK_SECONDS)
    kernel.spawn(hit_ratio.monitor(), name="hit-ratio-monitor")

    arrivals = _build_arrivals(seed, max_queries)
    results = cluster.coordinator.run_concurrent_kernel(
        arrivals,
        worker_concurrency=WORKER_CONCURRENCY,
        admission=admission,
    )

    latency_samples = [
        (round(arrival + r.wall_seconds, 6), round(r.wall_seconds, 6))
        for (arrival, __), r in zip(arrivals, results)
        if not r.shed
    ]
    hits, misses = hit_ratio.sample()
    page_requests = hits + misses
    return {
        "queries": len(results),
        "shed": sum(1 for r in results if r.shed),
        "degraded": sum(1 for r in results if r.degraded),
        "page_requests": page_requests,
        "final_hit_ratio": round(hits / page_requests, 6)
        if page_requests
        else 0.0,
        "windows": hit_ratio.windows(),
        "latency_samples": latency_samples,
        "membership_events": list(cluster.membership.events),
        "membership_states": cluster.membership.states(),
        "remapped_keys": cluster.membership.remapped_keys,
        "expired": [
            node
            for __, action, node in cluster.membership.events
            if action == "expire"
        ],
        "churn_applied": driver.applied,
        "warmup_files": rebalancer.metrics.counter("warmup_files").value,
        "warmup_bytes": rebalancer.metrics.counter("warmup_bytes").value,
        "admission": admission.summary() if admission is not None else None,
        "health": health.snapshot(),
    }


class TestChurnSoak:
    def test_hit_ratio_recovers_and_admission_beats_open_door(self):
        on = run_churn_soak(SEED, admission_on=True)
        off = run_churn_soak(SEED, admission_on=False)

        # the scenario actually bit: the whole AZ crashed and came back,
        # keys moved to fallback owners and were warmed
        crashes = [e for e in on["membership_events"] if e[1] == "crash"]
        restores = [e for e in on["membership_events"] if e[1] == "restore"]
        assert len(crashes) == len(AZ_NODES)
        assert len(restores) == len(AZ_NODES)
        assert on["expired"] == []  # back inside the offline timeout
        assert all(
            state == "online" for state in on["membership_states"].values()
        )
        assert on["remapped_keys"] > 0
        assert on["warmup_files"] > 0

        # SLO 1: windowed hit ratio recovers to within 5 points of the
        # pre-churn steady state, and stays there
        recovery = hit_ratio_recovery(
            on["windows"], churn_start=CHURN_AT, tolerance=0.05
        )
        assert recovery.recovered, (
            f"hit ratio never re-reached baseline-{recovery.tolerance}: "
            f"baseline={recovery.baseline:.3f} floor={recovery.floor:.3f}"
        )
        assert recovery.recovery_seconds is not None

        # SLO 2: churn-phase p99 is strictly better with admission control
        # on than off (shed queries excluded -- they got an immediate no)
        p99_on = phase_p99(
            on["latency_samples"], churn_start=CHURN_AT, churn_end=CHURN_END
        )
        p99_off = phase_p99(
            off["latency_samples"], churn_start=CHURN_AT, churn_end=CHURN_END
        )
        assert p99_on.churn_count > 0 and p99_off.churn_count > 0
        assert p99_on.churn < p99_off.churn, (
            f"admission control did not improve churn-phase p99: "
            f"on={p99_on.churn:.3f}s off={p99_off.churn:.3f}s"
        )

        # the overload ladder observably fired in the admission run
        summary = on["admission"]
        assert summary["admitted"] > 0
        assert summary["queued"] > 0

        requests_per_sec = on["page_requests"] / SOAK_SECONDS
        lines = [
            f"mode               : {'quick' if QUICK else 'full'}"
            f" ({on['queries']} queries over {SOAK_SECONDS:.0f} simulated s)",
            f"workers            : {N_WORKERS}"
            f" (AZ failure: {len(AZ_NODES)} nodes, caches lost,"
            f" down [{CHURN_AT:.0f}, {CHURN_AT + DOWNTIME:.0f}) s)",
            f"page requests      : {on['page_requests']}"
            f" ({requests_per_sec:.1f}/simulated s)",
            f"membership events  : {len(on['membership_events'])}"
            f" ({len(crashes)} crashes, {len(restores)} restores,"
            f" 0 expired)",
            f"remapped keys      : {on['remapped_keys']}",
            f"warmed files       : {on['warmup_files']}"
            f" ({on['warmup_bytes'] / MIB:.1f} MiB prefetched)",
            f"admission          : {summary['admitted']} admitted,"
            f" {summary['queued']} queued, {summary['degraded']} degraded,"
            f" {summary['shed']} shed",
            f"hit-ratio baseline : {recovery.baseline:.3f}"
            f" (floor {recovery.floor:.3f} during churn)",
            f"recovery time      : {recovery.recovery_seconds:.0f} s"
            f" (tolerance {recovery.tolerance:.2f})",
            f"p99 pre-churn      : on={p99_on.pre:.3f}s off={p99_off.pre:.3f}s",
            f"p99 during churn   : on={p99_on.churn:.3f}s"
            f" off={p99_off.churn:.3f}s  <- admission control",
            f"p99 post-recovery  : on={p99_on.post:.3f}s off={p99_off.post:.3f}s",
            "",
            "window  end (s)   cluster hit ratio",
        ]
        for end, ratio in on["windows"]:
            flag = ""
            if CHURN_AT < end <= CHURN_END:
                flag = "  <- churn"
            lines.append(f"        {end:>7.0f} {ratio:>12.3f}{flag}")
        emit_report("churn_soak", "\n".join(lines))
        emit_report(
            "cluster_membership",
            format_membership(on["health"], on["membership_states"]),
        )
        emit_json(
            "BENCH_churn",
            {
                "mode": "quick" if QUICK else "full",
                "seed": SEED,
                "workers": N_WORKERS,
                "queries": on["queries"],
                "page_requests": on["page_requests"],
                "requests_per_sec_simulated": round(requests_per_sec, 3),
                "hit_ratio_baseline": round(recovery.baseline, 6),
                "hit_ratio_floor": round(recovery.floor, 6),
                "recovery_seconds": round(recovery.recovery_seconds, 3),
                "p99_churn_admission_on": round(p99_on.churn, 6),
                "p99_churn_admission_off": round(p99_off.churn, 6),
                "p99_pre_admission_on": round(p99_on.pre, 6),
                "p99_post_admission_on": round(p99_on.post, 6),
                "shed": summary["shed"],
                "queued": summary["queued"],
                "degraded": summary["degraded"],
            },
        )


class TestChurnSoakDeterminism:
    N = 300  # shortened stream: determinism needs coverage, not scale

    def test_same_seed_identical_results(self):
        a = run_churn_soak(SEED, max_queries=self.N)
        b = run_churn_soak(SEED, max_queries=self.N)
        assert a == b

    def test_different_seed_diverges(self):
        a = run_churn_soak(SEED, max_queries=self.N)
        c = run_churn_soak(SEED + 1, max_queries=self.N)
        assert a != c

    @pytest.mark.determinism
    def test_sanitizer_double_run_hashes_match(self):
        """The CI sanitizer gate: the quick churn scenario replayed twice
        from one seed must produce identical rolling hashes over the
        (membership event, virtual timestamp) trail."""

        def scenario(trace):
            result = run_churn_soak(SEED, max_queries=self.N)
            for at, action, node in result["membership_events"]:
                trace.record(action, at, node)
            trace.record(
                "soak-summary",
                SOAK_SECONDS,
                "cluster",
                detail=(
                    f"hit={result['final_hit_ratio']}"
                    f"|pages={result['page_requests']}"
                    f"|remap={result['remapped_keys']}"
                    f"|shed={result['shed']}"
                ),
            )
            return result["admission"]

        report = DeterminismHarness(scenario).check()
        assert report.deterministic
        assert report.hash_first == report.hash_second
        assert report.events_first > len(AZ_NODES)  # joins + crash/restore
