"""Shared Presto-cluster harness for the TPC-DS and production benches.

The paper's Presto evaluations compare two configurations:

- **non-cache read**: workers fetch every byte from remote storage
  (Figure 9's "without cache" bars);
- **warm cache**: the Alluxio local cache enabled and pre-loaded ("data is
  pre-loaded into the cache").

``run_cold_vs_warm`` builds one cluster per configuration on the same
catalog/source and returns per-query wall times plus the warm cluster's
runtime stats.  ``WindowedHitRatio`` is the soaks' cluster hit ratio per
window of virtual time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.presto import PrestoCluster
from repro.presto.query import QueryProfile
from repro.sim.kernel import Timeout
from repro.workload.tpcds import build_tpcds_catalog_fast

MIB = 1024 * 1024


@dataclass(slots=True)
class ColdWarmResult:
    """Per-query wall seconds for both configurations."""

    query_ids: list[str]
    cold_walls: list[float]
    warm_walls: list[float]
    warm_cluster: PrestoCluster
    cold_cluster: PrestoCluster

    def reductions(self) -> list[float]:
        return [
            (cold - warm) / cold if cold > 0 else 0.0
            for cold, warm in zip(self.cold_walls, self.warm_walls)
        ]


def make_cluster(*, cache_enabled: bool, total_bytes: int = 128 * MIB,
                 n_workers: int = 4, **kwargs) -> PrestoCluster:
    catalog, source = build_tpcds_catalog_fast(total_bytes)
    return PrestoCluster.create(
        catalog,
        source,
        n_workers=n_workers,
        cache_capacity_bytes=kwargs.pop("cache_capacity_bytes", 96 * MIB),
        page_size=kwargs.pop("page_size", 1 * MIB),
        target_split_size=kwargs.pop("target_split_size", 8 * MIB),
        cache_enabled=cache_enabled,
        metadata_cache_enabled=cache_enabled,
        **kwargs,
    )


def calibrate_compute_tails(
    queries: list[QueryProfile],
    *,
    band: tuple[float, float] = (0.10, 0.30),
    seed: int = 7,
    **cluster_kwargs,
) -> list[QueryProfile]:
    """Set each query's compute tail so its I/O share lands in ``band``.

    The paper does not publish per-query CPU costs; what Figure 9 encodes
    is each query's *I/O share* -- the fraction of execution the warm cache
    can remove, reported as ~10-30 %.  We measure each query's cold scan
    wall on a non-cache cluster, then size the downstream compute so the
    I/O share matches a per-query draw from the published band.  What the
    benchmark then verifies is the non-trivial part: that the warm cache
    actually eliminates almost all of that I/O time, query by query.
    """
    from repro.ports.rng import RngStream

    probe = make_cluster(cache_enabled=False, **cluster_kwargs)
    calibrated: list[QueryProfile] = []
    for query in queries:
        scan_only = QueryProfile(
            query_id=query.query_id, scans=query.scans, compute_seconds=0.0
        )
        io_wall = probe.coordinator.run_query(scan_only).wall_seconds
        share = RngStream(seed, f"calib/{query.query_id}").rng.uniform(*band)
        compute = io_wall * (1.0 / share - 1.0)
        calibrated.append(
            QueryProfile(
                query_id=query.query_id, scans=query.scans,
                compute_seconds=float(compute),
            )
        )
    return calibrated


def run_cold_vs_warm(queries: list[QueryProfile], **cluster_kwargs) -> ColdWarmResult:
    """Run the query set on a non-cache cluster and a pre-warmed cache
    cluster (the Figure 9 protocol)."""
    cold_cluster = make_cluster(cache_enabled=False, **cluster_kwargs)
    warm_cluster = make_cluster(cache_enabled=True, **cluster_kwargs)
    for query in queries:  # pre-load the cache
        warm_cluster.coordinator.run_query(query)
    cold = [cold_cluster.coordinator.run_query(q) for q in queries]
    warm = [warm_cluster.coordinator.run_query(q) for q in queries]
    return ColdWarmResult(
        query_ids=[q.query_id for q in queries],
        cold_walls=[r.wall_seconds for r in cold],
        warm_walls=[r.wall_seconds for r in warm],
        warm_cluster=warm_cluster,
        cold_cluster=cold_cluster,
    )


class WindowedHitRatio:
    """A cluster's cache hit ratio per fixed window of virtual time.

    Spawn :meth:`monitor` on the cluster's kernel: it snapshots the
    workers' cumulative ``get_hits``/``get_misses`` every ``window``
    seconds up to ``horizon``.  :meth:`windows` turns the snapshots into
    ``(window end, hit ratio)`` pairs; windows with no cache traffic (e.g.
    after the last query completes) are dropped rather than reported as
    zero.
    """

    def __init__(self, cluster: PrestoCluster, window: float, horizon: float) -> None:
        self.cluster = cluster
        self.window = window
        self.horizon = horizon
        self.snapshots: list[tuple[float, int, int]] = []

    def sample(self) -> tuple[int, int]:
        """Cumulative ``(hits, misses)`` over the workers present now."""
        workers = list(self.cluster.workers.values())
        hits = sum(w.metrics.counter("get_hits").value for w in workers)
        misses = sum(w.metrics.counter("get_misses").value for w in workers)
        return hits, misses

    def monitor(self):
        """Kernel process: one snapshot at the end of every window."""
        clock = self.cluster.kernel.clock
        elapsed = 0.0
        while elapsed < self.horizon - 1e-9:
            yield Timeout(self.window)
            elapsed += self.window
            hits, misses = self.sample()
            self.snapshots.append((clock.now(), hits, misses))

    def windows(self) -> list[tuple[float, float]]:
        ratios: list[tuple[float, float]] = []
        prev_hits = prev_misses = 0
        for end, hits, misses in self.snapshots:
            d_hits = hits - prev_hits
            d_total = (hits + misses) - (prev_hits + prev_misses)
            if d_total:
                ratios.append((end, round(d_hits / d_total, 6)))
            prev_hits, prev_misses = hits, misses
        return ratios
