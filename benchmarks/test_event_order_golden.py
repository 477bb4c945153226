"""Golden event-order fixtures: the two-lane scheduler fires the OLD order.

The two-lane kernel (DESIGN.md §13) split same-instant resumes off the
timer heap onto a FIFO ready deque.  Its hard constraint was that the
split changes *nothing* observable: every event still fires in exact
``(time, seq)`` order.  ``golden_event_order.json`` pins the
:class:`~repro.sim.sanitizer.EventTrace` rolling hash of the quick churn
soak as captured on the single-heap scheduler immediately before the
two-lane change landed; this module replays the scenario through
:class:`DeterminismHarness` and demands the identical hash and event
count.

Unlike the per-PR sanitizer gates (which only prove a *double run* of
today's kernel agrees with itself), these fixtures prove today's kernel
agrees with the kernel of record -- a scheduler reordering that is
internally deterministic but differently ordered fails here and nowhere
else.

The scenarios pin every knob explicitly (seed, query counts, churn
arrival rates), so the hashes are independent of the ``*_SOAK_QUICK``
environment switches.

``chaos_quick`` pins the chaos soak's determinism trail
(``test_chaos_soak.sanitizer_scenario``): each query's completion instant,
the kill/revive and breaker trails, and, as ``facts``, the kernel event
count and the hedge, wasted-byte, failover, retry and trip counts.  It was
re-pinned when the soak moved from the analytic distributed tier onto the
Presto cluster's kernel; re-record with
``... test_event_order_golden.py chaos_quick``.

``presto_tpcds_kernel`` pins the simulated I/O path (DESIGN.md §16): the
99 TPC-DS query profiles, in a seed-permuted arrival order, through
``run_concurrent_kernel`` on a 4-worker SSD-backed ``PrestoCluster`` (1 MiB
pages, 32 MiB of cache per worker) -- the ``sim_tpcds`` benchmark built
from library APIs only.  Beyond the completion-time hash it pins the
kernel's event count, each worker's device counters, cache counters and
live gauges.  Its ``_traced`` twin runs the same scenario under a
sample-everything :class:`~repro.obs.tracer.SimTracer` and also pins the
span forest's ``tree_signature``, the attribution bucket sums and the
gauges' exemplars, so the tracing-off fast paths provably leave the
tracing-on results alone.  Both were recorded from the commit before the
simulated-read fast path; re-record with
``PYTHONPATH=src python benchmarks/test_event_order_golden.py``.

``presto_serial`` pins the one-query-at-a-time (Figure 9) protocol: the
first 30 TPC-DS profiles, two passes, cache off and on, each query's
``(query_id, wall, input_wall, splits, affinity_hits)`` and each worker's
hit/miss/eviction counters.  It was recorded on the serial analytic loop
the coordinator had before the kernel loop became its only one, and the
kernel loop matches it on every row but the cache-on cold pass.  There a
miss now pays for its SSD page write, so those walls are pinned again
under ``cold_cache_on_rerecorded`` (never shorter, same splits and
affinity).  Re-record with ``... test_event_order_golden.py presto_serial``.

``hdfs_fig14_quick`` pins the Figure 13/14 DataNode replay, cut to ten
minutes: the per-minute blocked series, the HDD and cache-SSD counters,
the cache's hit/miss counts and ``traffic_rates(60)``.  It was recorded on
the analytic channel model the HDFS figures ran on before device queueing
moved onto the event kernel, and the kernel reproduces every pinned fact.
Re-record with ``... test_event_order_golden.py hdfs_fig14_quick``.

Run explicitly (benchmarks are not part of tier-1)::

    PYTHONPATH=src python -m pytest benchmarks/test_event_order_golden.py -q
"""

import json
from pathlib import Path

import pytest
import hdfs_harness
import presto_harness
import test_chaos_soak as chaos_soak
import test_churn_soak as churn_soak

from repro.core.config import MIB
from repro.core.page import installed_time_source
from repro.obs.attribution import aggregate, attribute_buffer
from repro.obs.buffer import SpanBuffer
from repro.obs.export import tree_signature
from repro.obs.tracer import SimTracer, current_tracer
from repro.ports.rng import RngStream
from repro.presto.coordinator import PrestoCluster
from repro.ports.clock import SimClock
from repro.sim.sanitizer import DeterminismHarness
from repro.workload.tpcds import build_tpcds_catalog_fast, tpcds_queries

GOLDEN_PATH = Path(__file__).with_name("golden_event_order.json")
GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))

PRESTO_SEED = 42
PRESTO_GAUGES = ("device_queue_depth", "blocked_processes")
# one traced round finishes ~150 K spans; none may be dropped
PRESTO_SPAN_CAPACITY = 1_000_000


def run_presto_tpcds_kernel(trace, seed: int) -> dict:
    """One ``sim_tpcds``-shaped round; records each query's completion into
    ``trace`` and returns every other pinned fact.

    Traced when a ``SimTracer`` is installed (the harness's
    ``tracer_factory``); the tracer's clock is rebound to the round's own.
    """
    clock = SimClock()
    tracer = current_tracer()
    if tracer.enabled:
        tracer.clock = clock
    catalog, source = build_tpcds_catalog_fast(512 * MIB)
    cluster = PrestoCluster.create(
        catalog, source, n_workers=4, cache_capacity_bytes=32 * MIB,
        page_size=MIB, target_split_size=8 * MIB, clock=clock,
    )
    kernel = cluster.kernel
    queries = tpcds_queries()
    order = RngStream(seed, "golden/presto_tpcds_kernel/order").rng.permutation(
        len(queries)
    )
    arrivals = [(0.5 * slot, queries[int(pick)]) for slot, pick in enumerate(order)]
    with installed_time_source(clock.now):
        replies = cluster.coordinator.run_concurrent_kernel(
            arrivals, worker_concurrency=4
        )
    for (arrival, query), reply in zip(arrivals, replies):
        assert reply.query_id == query.query_id and not reply.shed
        trace.record("query-complete", arrival + reply.wall_seconds, query.query_id)
    workers = {}
    for name, worker in sorted(cluster.workers.items()):
        stats = worker.cache.page_store.device.stats
        gauges = {}
        for gauge_name in PRESTO_GAUGES:
            gauge = worker.metrics.gauge(gauge_name)
            gauges[gauge_name] = [gauge.value, len(gauge.exemplars())]
            if tracer.enabled:
                gauges[gauge_name].append([list(pair) for pair in gauge.exemplars()])
        workers[name] = {
            "device": {
                "reads": stats.reads,
                "bytes_read": stats.bytes_read,
                "busy_time": stats.busy_time,
                "blocked_requests": stats.blocked_requests,
            },
            "cache": worker.metrics.counters(),
            "gauges": gauges,
        }
    facts = {
        "kernel_events": kernel.events_fired,
        "virtual_s": clock.now(),
        "splits": sum(reply.stats.splits for reply in replies),
        "workers": workers,
    }
    if tracer.enabled:
        spans = tracer.buffer.spans()
        assert tracer.buffer.dropped == 0
        facts["spans"] = len(spans)
        facts["tree_signature"] = tree_signature(spans)
        facts["attribution"] = aggregate(attribute_buffer(tracer.buffer))
    return facts


SERIAL_QUERIES = 30
SERIAL_PASSES = 2
SERIAL_COUNTERS = ("get_hits", "get_misses", "evictions")


def run_presto_serial() -> dict:
    """The one-query-at-a-time (Fig 9) protocol over the first
    ``SERIAL_QUERIES`` TPC-DS profiles, ``SERIAL_PASSES`` passes, on a
    ``presto_harness`` cluster with the cache off and on.

    Per pass it pins each query's ``(query_id, wall, input_wall, splits,
    affinity_hits)`` and each worker's hit/miss/eviction counters.
    """
    queries = tpcds_queries()[:SERIAL_QUERIES]
    facts = {}
    for arm, cache_enabled in (("cache_off", False), ("cache_on", True)):
        clock = SimClock()
        cluster = presto_harness.make_cluster(
            cache_enabled=cache_enabled, clock=clock
        )
        passes = []
        with installed_time_source(clock.now):
            for __ in range(SERIAL_PASSES):
                rows = []
                for query in queries:
                    result = cluster.coordinator.run_query(query)
                    stats = result.stats
                    rows.append([
                        query.query_id, round(result.wall_seconds, 9),
                        round(stats.input_wall, 9), stats.splits,
                        stats.affinity_hits,
                    ])
                workers = {
                    name: [worker.metrics.counter(c).value
                           for c in SERIAL_COUNTERS]
                    for name, worker in sorted(cluster.workers.items())
                }
                passes.append({"rows": rows, "workers": workers})
        facts[arm] = passes
    return facts


# the Figure 14 protocol cut to ten minutes: 80 reads/s, 5 ingest writes/s,
# the cache switched off at t = 300 s
HDFS_FIG14_QUICK = {
    "duration_seconds": 600.0, "reads_per_second": 80.0, "zipf_s": 1.15,
    "disable_cache_at": 300.0, "writes_per_second": 5.0,
}
HDD_FIELDS = (
    "reads", "writes", "bytes_read", "blocked_requests", "total_wait", "busy_time",
)
SSD_FIELDS = ("reads", "writes", "bytes_read", "bytes_written")


def run_hdfs_fig14_quick(protocol: dict) -> dict:
    """One ``hdfs_harness`` replay under ``protocol``; returns what Figures
    13 and 14 report.

    Pins the per-minute blocked-process series, the HDD's counters (as
    ``repr`` strings, so the float sums are bit-exact), the cache SSD's
    counters, the cache's ``get_hits``/``get_misses`` and both
    ``traffic_rates(60)`` series.  Per-read latencies are deliberately not
    pinned: between the analytic model this was recorded on and the event
    kernel they legitimately differ, by up to 0.11 ms and in completion
    order, and no figure reports them.
    """
    setup = hdfs_harness.build_datanode(
        cache_capacity_bytes=12 * MIB, admission_threshold=3
    )
    hdfs_harness.replay_trace(setup, **protocol)
    hdd = setup.datanode.device
    ssd = setup.cached.ssd.stats
    counters = setup.cached.metrics.counters()
    return {
        "blocked_per_minute": sorted(
            [minute, count]
            for minute, count in hdd.blocked_per_bucket(60.0).items()
        ),
        "hdd": {name: repr(getattr(hdd.stats, name)) for name in HDD_FIELDS},
        "ssd": {name: getattr(ssd, name) for name in SSD_FIELDS},
        "cache": {name: counters[name] for name in ("get_hits", "get_misses")},
        "traffic_rates": [
            sorted([bucket, nbytes] for bucket, nbytes in series.items())
            for series in setup.cached.traffic_rates(60.0)
        ],
    }


def _presto_tracer() -> SimTracer:
    return SimTracer(
        SimClock(), RngStream(PRESTO_SEED, "golden/presto_tpcds_kernel/trace"),
        buffer=SpanBuffer(PRESTO_SPAN_CAPACITY), sample_rate=1.0,
    )


CHAOS_SEED = chaos_soak.SEED
CHAOS_QUERIES = 480


def chaos_report(seed: int, n_queries: int):
    return DeterminismHarness(
        lambda trace: chaos_soak.sanitizer_scenario(trace, seed, n_queries)
    ).check()


def presto_report(traced: bool):
    return DeterminismHarness(
        lambda trace: run_presto_tpcds_kernel(trace, PRESTO_SEED),
        tracer_factory=_presto_tracer if traced else None,
    ).check()

_REPIN_HINT = (
    "the scheduler fired a different event sequence than the pinned "
    "pre-two-lane golden order; if this is an intentional scenario change, "
    "re-capture both the hash and the event count in "
    "benchmarks/golden_event_order.json (see its comment field)"
)


def _assert_matches(report, spec):
    assert report.deterministic, "double run disagreed with itself"
    assert report.hash_first == report.hash_second
    assert report.events_first == spec["events"], (
        f"event count {report.events_first} != pinned {spec['events']}: "
        f"{_REPIN_HINT}"
    )
    assert report.hash_first == spec["rolling_hash"], (
        f"rolling hash {report.hash_first} != pinned "
        f"{spec['rolling_hash']}: {_REPIN_HINT}"
    )


@pytest.mark.determinism
class TestGoldenEventOrder:
    def test_chaos_quick_soak_matches_pinned_facts(self):
        spec = GOLDEN["scenarios"]["chaos_quick"]
        report = chaos_report(spec["seed"], spec["n_queries"])
        _assert_matches(report, spec)
        facts = report.result_first
        for key, pinned in spec["facts"].items():
            assert facts[key] == pinned, f"chaos_quick: {key} moved: {_REPIN_HINT}"
        assert facts.keys() == spec["facts"].keys()

    def test_churn_quick_soak_matches_pinned_hash(self, monkeypatch):
        spec = GOLDEN["scenarios"]["churn_quick"]
        # arrival rates are module globals switched by CHURN_SOAK_QUICK;
        # pin them to the fixture's values so the hash is env-independent
        monkeypatch.setattr(churn_soak, "QUIET_RATE", spec["quiet_rate"])
        monkeypatch.setattr(churn_soak, "BURST_RATE", spec["burst_rate"])
        monkeypatch.setattr(churn_soak, "STORM_RATE", spec["storm_rate"])

        def scenario(trace):
            result = churn_soak.run_churn_soak(
                spec["seed"], max_queries=spec["max_queries"]
            )
            for at, action, node in result["membership_events"]:
                trace.record(action, at, node)
            trace.record(
                "soak-summary", churn_soak.SOAK_SECONDS, "cluster",
                detail=(
                    f"hit={result['final_hit_ratio']}"
                    f"|pages={result['page_requests']}"
                    f"|remap={result['remapped_keys']}"
                    f"|shed={result['shed']}"
                ),
            )
            return result["admission"]

        _assert_matches(DeterminismHarness(scenario).check(), spec)

    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    def test_presto_tpcds_kernel_matches_pinned_facts(self, traced):
        name = "presto_tpcds_kernel" + ("_traced" if traced else "")
        spec = GOLDEN["scenarios"][name]
        report = presto_report(traced)
        _assert_matches(report, spec)
        facts = report.result_first
        for key, pinned in spec["facts"].items():
            assert facts[key] == pinned, f"{name}: {key} moved: {_REPIN_HINT}"
        assert facts.keys() == spec["facts"].keys()

    def test_presto_serial_matches_pinned_rows(self):
        spec = GOLDEN["scenarios"]["presto_serial"]
        facts = run_presto_serial()
        cold = spec["cold_cache_on_rerecorded"]["rows"]
        for arm, passes in spec["facts"].items():
            for index, pinned in enumerate(passes):
                got = facts[arm][index]
                assert got["workers"] == pinned["workers"], (arm, index)
                if (arm, index) != ("cache_on", 0):
                    assert got["rows"] == pinned["rows"], (arm, index)
                    continue
                assert got["rows"] == cold
                for now, then in zip(cold, pinned["rows"]):
                    assert now[0] == then[0] and now[3:] == then[3:]
                    assert now[1] >= then[1] and now[2] >= then[2]

    def test_hdfs_fig14_quick_matches_pinned_facts(self):
        spec = GOLDEN["scenarios"]["hdfs_fig14_quick"]
        facts = run_hdfs_fig14_quick(spec["protocol"])
        for key, pinned in spec["facts"].items():
            assert facts[key] == pinned, f"hdfs_fig14_quick: {key} moved"
        assert facts.keys() == spec["facts"].keys()


if __name__ == "__main__":
    import sys

    # re-record the named scenarios (default: the two kernel rounds)
    wanted = sys.argv[1:] or ["presto_tpcds_kernel", "presto_tpcds_kernel_traced"]
    for name in wanted:
        if name == "presto_serial":
            facts = run_presto_serial()
            spec = GOLDEN["scenarios"][name]
            spec["facts"] = facts
            spec["cold_cache_on_rerecorded"]["rows"] = facts["cache_on"][0]["rows"]
            continue
        if name == "chaos_quick":
            report = chaos_report(CHAOS_SEED, CHAOS_QUERIES)
            GOLDEN["scenarios"][name] = {
                "seed": CHAOS_SEED,
                "n_queries": CHAOS_QUERIES,
                "events": report.events_first,
                "rolling_hash": report.hash_first,
                "facts": report.result_first,
            }
            continue
        if name == "hdfs_fig14_quick":
            GOLDEN["scenarios"][name] = {
                "protocol": HDFS_FIG14_QUICK,
                "facts": run_hdfs_fig14_quick(HDFS_FIG14_QUICK),
            }
            continue
        report = presto_report(traced=name.endswith("_traced"))
        GOLDEN["scenarios"][name] = {
            "seed": PRESTO_SEED,
            "events": report.events_first,
            "rolling_hash": report.hash_first,
            "facts": report.result_first,
        }
    GOLDEN_PATH.write_text(json.dumps(GOLDEN, indent=2) + "\n", encoding="utf-8")
