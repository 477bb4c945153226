"""End-to-end tracing through the real read paths.

Each test installs a SimTracer over a small but genuine scenario (Presto
cluster, HDFS cached DataNode, resilient remote source) and asserts the
tentpole invariants: the span tree mirrors the call structure, per-trace
charges reconcile against the measured virtual latency, exemplars link
metrics back to spans, and traced runs change no virtual result.
"""

import pytest

from repro.core.metrics import MetricsRegistry
from repro.errors import RemoteReadError
from repro.obs import (
    SimTracer,
    SpanBuffer,
    attribute_buffer,
    attribute_trace,
    critical_path,
    installed_tracer,
)
from repro.presto import PrestoCluster, QueryProfile, ScanProfile, TableScan
from repro.presto.catalog import Catalog, build_table
from repro.resilience import ResilientDataSource, RetryPolicy
from repro.ports.clock import SimClock
from repro.ports.rng import RngStream
from repro.storage.remote import NullDataSource, ReadResult

MIB = 1024 * 1024


def make_tracer(clock, seed=21):
    return SimTracer(
        clock, RngStream(seed, "instrumentation-tests"), buffer=SpanBuffer()
    )


def make_cluster(clock, **kwargs):
    catalog = Catalog()
    table = build_table("s", "t", n_partitions=4, files_per_partition=2,
                        file_size=2 * MIB, n_columns=8, n_row_groups=4)
    catalog.add_table(table)
    source = NullDataSource()
    for __, data_file in table.all_files():
        source.add_file(data_file.file_id, data_file.size)
    return PrestoCluster.create(
        catalog, source,
        n_workers=3,
        cache_capacity_bytes=64 * MIB,
        page_size=256 * 1024,
        target_split_size=1 * MIB,
        clock=clock,
        **kwargs,
    )


def simple_query(query_id="q1"):
    return QueryProfile(
        query_id=query_id,
        scans=(
            TableScan(
                table="s.t",
                partition_fraction=0.5,
                profile=ScanProfile(columns_read=4, row_group_selectivity=1.0),
            ),
        ),
        compute_seconds=0.5,
    )


class TestPrestoQueryTracing:
    def test_query_trace_structure_and_reconciliation(self):
        clock = SimClock()
        cluster = make_cluster(clock)
        tracer = make_tracer(clock)
        with installed_tracer(tracer):
            result = cluster.coordinator.run_query(simple_query())

        roots = tracer.buffer.roots()
        assert [r.name for r in roots] == ["query"]
        root = roots[0]
        assert root.attrs["query_id"] == "q1"
        assert root.attrs["makespan"] == pytest.approx(result.wall_seconds)

        spans = tracer.buffer.spans()
        split_spans = [s for s in spans if s.name == "execute_split"]
        assert len(split_spans) == root.attrs["splits"]
        assert all(s.parent_id == root.span_id for s in split_spans)
        assert {s.name for s in spans} >= {"query", "execute_split", "cache_read"}

        # resource-seconds reconciliation: buckets sum to the wall attr
        report = attribute_trace(spans)
        assert report.within(0.01), (report.wall, report.charged_total)
        assert report.buckets.get("compute", 0.0) > 0.0

        # the critical path descends from the query into a split
        steps = critical_path(spans)
        assert steps[0].name == "query"
        assert len(steps) >= 2

    def test_query_histogram_carries_exemplar(self):
        clock = SimClock()
        cluster = make_cluster(clock)
        tracer = make_tracer(clock)
        with installed_tracer(tracer):
            cluster.coordinator.run_query(simple_query())
        root = tracer.buffer.roots()[0]
        exemplars = cluster.coordinator.metrics.histogram(
            "query_wall_seconds"
        ).exemplars()
        assert [ref for _, ref in exemplars] == [root.span_id]

    def test_traced_query_results_match_untraced(self):
        def run(traced):
            clock = SimClock()
            cluster = make_cluster(clock)
            if not traced:
                result = cluster.coordinator.run_query(simple_query())
            else:
                with installed_tracer(make_tracer(clock)):
                    result = cluster.coordinator.run_query(simple_query())
            return (result.wall_seconds, result.stats)

        assert run(traced=True) == run(traced=False)

    def test_concurrent_queries_one_trace_each(self):
        clock = SimClock()
        cluster = make_cluster(clock)
        tracer = make_tracer(clock)
        arrivals = [(0.0, simple_query("q1")), (0.5, simple_query("q2"))]
        with installed_tracer(tracer):
            cluster.coordinator.run_concurrent_kernel(arrivals)
        roots = tracer.buffer.roots()
        assert [r.attrs["query_id"] for r in roots] == ["q1", "q2"]
        assert len({r.trace_id for r in roots}) == 2
        for report in attribute_buffer(tracer.buffer):
            assert report.within(0.01), (report.trace_id, report.unattributed)


class TestHdfsTracing:
    def _setup(self):
        from repro.core.admission import BucketTimeRateLimit
        from repro.hdfs_cache import CachedDataNode
        from repro.storage.hdfs import DataNode, DfsClient, NameNode

        clock = SimClock()
        datanode = DataNode("dn1", clock=clock)
        namenode = NameNode([datanode], block_size=4096)
        client = DfsClient(namenode)
        cached = CachedDataNode(
            datanode,
            clock=clock,
            cache_capacity_bytes=1 << 22,
            page_size=512,
            rate_limiter=BucketTimeRateLimit(threshold=2, window_buckets=10),
        )
        return clock, client, cached

    def test_non_cache_read_charges_hdd(self):
        clock, client, cached = self._setup()
        status = client.create("/f", b"A" * 4096)
        tracer = make_tracer(clock)
        with installed_tracer(tracer):
            result = cached.read_block(status.blocks[0], 0, 100)
        assert not result.from_cache
        root = tracer.buffer.roots()[0]
        assert root.name == "block_read"
        report = attribute_trace(tracer.buffer.spans())
        assert report.wall == pytest.approx(result.latency)
        assert report.within(0.01)
        assert "remote" in report.buckets

    def test_admission_load_is_off_path(self):
        clock, client, cached = self._setup()
        status = client.create("/f", b"A" * 4096)
        tracer = make_tracer(clock)
        with installed_tracer(tracer):
            results = []
            for __ in range(3):
                results.append(cached.read_block(status.blocks[0], 0, 100))
                clock.advance(1.0)
        assert [r.from_cache for r in results] == [False, True, True]
        # the admitting read's trace holds the off-path cache_load subtree
        admitting = tracer.buffer.trace(tracer.buffer.roots()[1].trace_id)
        names = {s.name for s in admitting}
        assert "cache_load" in names
        for root, result in zip(tracer.buffer.roots(), results):
            report = attribute_trace(tracer.buffer.trace(root.trace_id))
            assert report.wall == pytest.approx(result.latency)
            assert report.within(0.01), (report.wall, report.charged_total)


class TestResilienceEvents:
    class FlakySource:
        """Fails the first N reads with a retryable error."""

        def __init__(self, failures):
            self.failures = failures
            self.calls = 0

        def file_length(self, file_id):
            return 1 << 20

        def read(self, file_id, offset, length):
            self.calls += 1
            if self.calls <= self.failures:
                raise RemoteReadError(f"transient #{self.calls}")
            return ReadResult(data=b"x" * length, latency=0.05)

    def test_retry_events_and_backoff_side_channel(self):
        clock = SimClock()
        source = ResilientDataSource(
            self.FlakySource(failures=2),
            policy=RetryPolicy(max_attempts=4, base_delay=0.1, jitter=0.0),
            rng=RngStream(3, "retry"),
            metrics=MetricsRegistry("test"),
        )
        tracer = make_tracer(clock)
        with installed_tracer(tracer):
            with tracer.span("read") as span:
                result = source.read("f", 0, 128)
        retries = [e for e in span.events if e["name"] == "retry"]
        assert [e["attempt"] for e in retries] == [1, 2]
        assert all(e["error"] == "RemoteReadError" for e in retries)
        assert source.last_retry_backoff > 0.0
        # the returned latency folds the backoff in; the side channel lets
        # callers split it back out
        assert result.latency == pytest.approx(0.05 + source.last_retry_backoff)

    def test_no_events_on_clean_read(self):
        clock = SimClock()
        source = ResilientDataSource(
            self.FlakySource(failures=0),
            policy=RetryPolicy(max_attempts=4, base_delay=0.1, jitter=0.0),
            rng=RngStream(3, "retry"),
            metrics=MetricsRegistry("test"),
        )
        tracer = make_tracer(clock)
        with installed_tracer(tracer):
            with tracer.span("read") as span:
                source.read("f", 0, 128)
        assert span.events == []
        assert source.last_retry_backoff == 0.0
