"""Figure 14: blocked processes (I/O throttling) with and without the cache.

The paper: "Upon disabling the cache at timestamp 70, there is a rapid
increase in blocked processes, reaching up to approximately five thousand.
During this one-hour period, the local cache reduces the number of blocked
processes by an average of 86%."

We replay a saturating read trace against one DataNode whose HDD is the
bottleneck; the cache is switched off 70 minutes in.  Blocked processes are
requests that found the HDD's only channel busy (processes in
uninterruptible sleep on the real node), bucketed per minute.

``test_fig14_kernel_profile`` replays the same protocol cut to ten minutes
under the scheduler profiler and writes the flamegraph input the README
walkthrough renders (``bench_reports/fig14_kernel_profile.{folded,json}``).
"""

import numpy as np
import pytest

from harness import REPORT_DIR, emit_report, pct
from hdfs_harness import MIB, build_datanode, replay_trace
from repro.analysis import Table, reduction
from repro.obs.profiler import KernelProfiler

DURATION = 130 * 60.0
DISABLE_AT = 70 * 60.0
READS_PER_SECOND = 80.0
WRITES_PER_SECOND = 5.0  # background ingest the cache cannot absorb

# the profiled replay: profiling the full two hours doubles its wall time
PROFILE_DURATION = 10 * 60.0
PROFILE_DISABLE_AT = 5 * 60.0


def run_experiment(duration=DURATION, disable_at=DISABLE_AT, profiler_factory=None):
    setup = build_datanode(cache_capacity_bytes=12 * MIB, admission_threshold=3)
    if profiler_factory is not None:
        setup.cached.kernel.attach_profiler(profiler_factory(setup.clock))
    replay_trace(
        setup,
        duration_seconds=duration,
        reads_per_second=READS_PER_SECOND,
        zipf_s=1.15,
        disable_cache_at=disable_at,
        writes_per_second=WRITES_PER_SECOND,
    )
    return setup


def blocked_series(setup, duration):
    """Blocked processes per minute of the replay, from its first minute."""
    blocked = setup.datanode.device.blocked_per_bucket(60.0)
    base_minute = min(blocked) if blocked else 0
    return [blocked.get(base_minute + minute, 0)
            for minute in range(int(duration // 60))]


@pytest.mark.benchmark(group="fig14")
def test_fig14_blocked_processes(benchmark):
    setup = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    series = blocked_series(setup, DURATION)

    table = Table(
        ["minute", "blocked processes"],
        title="Figure 14 -- blocked processes per minute (cache off at t=70)",
    )
    for minute in range(0, int(DURATION // 60), 10):
        table.add_row([minute, series[minute]])

    disable_minute = int(DISABLE_AT // 60)
    # steady-state windows on each side (skip warm-up and the transition)
    with_cache = [series[m] for m in range(10, disable_minute)]
    without_cache = [series[m] for m in range(disable_minute + 2, len(series))]
    mean_with = float(np.mean(with_cache))
    mean_without = float(np.mean(without_cache))
    cut = reduction(mean_without, mean_with)
    table.add_row(["mean (cache on)", f"{mean_with:.0f}"])
    table.add_row(["mean (cache off)", f"{mean_without:.0f}"])
    table.add_row(["reduction", f"{pct(cut)} (paper: 86%)"])
    emit_report("fig14_blocked_processes", table.render())

    # shape: disabling the cache causes a rapid, large increase
    assert mean_without > 4 * mean_with
    # the cache cuts blocked processes by roughly the paper's 86%
    assert 0.70 <= cut <= 0.99
    # magnitude: around five thousand blocked processes per minute at peak
    assert 3000 < max(series) < 9000


@pytest.mark.benchmark(group="fig14")
def test_fig14_kernel_profile(benchmark):
    setup = benchmark.pedantic(
        lambda: run_experiment(PROFILE_DURATION, PROFILE_DISABLE_AT, KernelProfiler),
        rounds=1, iterations=1,
    )
    # the README flamegraph walkthrough renders this artifact:
    #   repro-perf-viz speedscope bench_reports/fig14_kernel_profile.folded
    profile_doc = setup.cached.kernel.profiler.finalize()
    REPORT_DIR.mkdir(exist_ok=True)
    (REPORT_DIR / "fig14_kernel_profile.folded").write_text(
        profile_doc.folded_wait_states() + "\n", encoding="utf-8"
    )
    # per-process rows dropped: one row per replayed block read would be
    # ~20 MB of artifact for no flamegraph value
    (REPORT_DIR / "fig14_kernel_profile.json").write_text(
        profile_doc.to_json(include_host=True, include_processes=False) + "\n",
        encoding="utf-8",
    )

    series = blocked_series(setup, PROFILE_DURATION)
    disable_minute = int(PROFILE_DISABLE_AT // 60)
    with_cache = float(np.mean(series[1:disable_minute]))
    without_cache = float(np.mean(series[disable_minute + 1:]))
    # the paper's shape holds in the short replay too
    assert without_cache > 4 * with_cache
    assert 0.5 <= reduction(without_cache, with_cache) <= 0.99
