"""Table 1: production traffic of Uber's HDFS clusters.

Paper cells (four DataNodes over ~20 h):

    Total reads (M)        13.5    12.8     8.5    14.3
    Total writes (K)        3.3     4.7     4.6      45
    Reads / writes       4091.0  2723.4  1847.8   317.8
    Top-10K-block share     89%     94%     99%     99%

We regenerate the table from calibrated Zipfian traces, scaled down 100x in
volume (ratios and concentration targets preserved exactly).
"""

import pytest

from harness import emit_report, pct
from repro.analysis import Table
from repro.ports.rng import RngStream
from repro.workload.traces import TraceGenerator, stats_of, table1_hosts

PAPER_RATIOS = {"host1": 4091.0, "host2": 2723.4, "host3": 1847.8, "host4": 317.8}
PAPER_SHARES = {"host1": 0.89, "host2": 0.94, "host3": 0.99, "host4": 0.99}
SCALE = 0.01


def run_experiment():
    root = RngStream(2024, "table1")
    rows = []
    for spec in table1_hosts(scale=SCALE):
        trace = TraceGenerator(spec, root.child(spec.name)).generate()
        stats = stats_of(trace)
        rows.append(
            {
                "host": spec.name,
                "reads": stats.total_reads,
                "writes": stats.total_writes,
                "ratio": stats.read_write_ratio,
                "share": stats.top_k_share(spec.top_k),
                "top_k": spec.top_k,
            }
        )
    return rows


@pytest.mark.benchmark(group="table1")
def test_table1_hdfs_traffic(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    table = Table(
        ["host", "reads", "writes", "reads/writes", "top-K share",
         "paper ratio", "paper share"],
        title=f"Table 1 -- HDFS DataNode traffic (scaled {SCALE:g}x)",
    )
    for row in rows:
        table.add_row(
            [
                row["host"],
                row["reads"],
                row["writes"],
                f"{row['ratio']:.1f}",
                pct(row["share"]),
                f"{PAPER_RATIOS[row['host']]:.1f}",
                pct(PAPER_SHARES[row["host"]]),
            ]
        )
    emit_report("table1_hdfs_traffic", table.render())

    for row in rows:
        # scaled volumes keep the published read/write ratio
        assert row["ratio"] == pytest.approx(PAPER_RATIOS[row["host"]], rel=0.05)
        # hot-spot concentration lands on the published share
        assert row["share"] == pytest.approx(PAPER_SHARES[row["host"]], abs=0.03)
    # the qualitative claim: read-dominated, heavily concentrated traffic
    assert all(row["ratio"] > 100 for row in rows)
    assert all(row["share"] >= 0.85 for row in rows)
