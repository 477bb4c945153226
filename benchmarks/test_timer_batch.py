"""Microbenchmark: ``Kernel.call_after_many`` vs. the call_after loop.

Satellite of the "one core, two transports" PR: batched timer insertion
exists so bulk arrival injection (trace replay, closed-loop client fan-out) does
not pay m heap pushes.  This rung shows two things:

- the batch path is not slower than the loop (weak, non-flaky bound --
  hosts vary; CI only needs "no regression", not a victory margin);
- both paths drain to the *same* fire order, so the speedup is free.

Results land in ``BENCH_timer_batch.json``: a deterministic ``work``
section (event counts, order hash) and a machine-dependent ``host``
section (insert rates), same split as ``BENCH_kernel``.

Run explicitly (benchmarks are not part of tier-1)::

    PYTHONPATH=src python -m pytest benchmarks/test_timer_batch.py -q
"""

import hashlib

from harness import emit_json

from repro.sim import hostclock
from repro.ports.clock import SimClock
from repro.sim.kernel import Kernel
from repro.ports.rng import RngStream

SEED = 20240809
BATCH = 50_000
REPEATS = 3


def _delays(n: int = BATCH) -> list[float]:
    rng = RngStream(SEED, "timer-batch")
    return [float(d) for d in rng.rng.uniform(0.0, 60.0, size=n)]


def _drain_order_hash(kernel: Kernel, log: list) -> str:
    kernel.run_all()
    digest = hashlib.blake2b(digest_size=16)
    for tag in log:
        digest.update(tag.to_bytes(4, "big"))
    return digest.hexdigest()


def _run(batch: bool):
    delays = _delays()
    kernel = Kernel(SimClock())
    log: list = []
    items = [
        (delay, (lambda t: (lambda: log.append(t)))(tag))
        for tag, delay in enumerate(delays)
    ]
    start = hostclock.host_perf_now()
    if batch:
        kernel.call_after_many(items)
    else:
        for delay, callback in items:
            kernel.call_after(delay, callback)
    insert_seconds = hostclock.host_perf_now() - start
    return insert_seconds, _drain_order_hash(kernel, log), len(log)


class TestTimerBatchBench:
    def test_batch_matches_loop_order_and_does_not_regress(self):
        loop_best = min(_run(batch=False)[0] for _ in range(REPEATS))
        batch_seconds, batch_hash, batch_fired = _run(batch=True)
        batch_best = min(
            [batch_seconds] + [_run(batch=True)[0] for _ in range(REPEATS - 1)]
        )
        loop_seconds, loop_hash, loop_fired = _run(batch=False)

        assert batch_fired == loop_fired == BATCH
        assert batch_hash == loop_hash  # identical fire order

        loop_rate = BATCH / loop_best
        batch_rate = BATCH / batch_best
        emit_json(
            "BENCH_timer_batch",
            {
                "work": {
                    "batch_size": BATCH,
                    "fire_order_hash": batch_hash,
                    "seed": SEED,
                },
                "host": {
                    "loop_inserts_per_sec": round(loop_rate, 1),
                    "batch_inserts_per_sec": round(batch_rate, 1),
                    "batch_speedup": round(batch_rate / loop_rate, 3),
                },
            },
        )
        # weak non-flaky bound: the batch path must not be meaningfully
        # slower than the loop on any host
        assert batch_rate >= 0.5 * loop_rate, (
            f"batched insertion regressed: {batch_rate:.0f}/s vs "
            f"loop {loop_rate:.0f}/s"
        )

    def test_incremental_path_small_batch_on_big_heap(self):
        # m * 8 < heap size: exercises the per-entry push branch
        kernel = Kernel(SimClock())
        log: list = []
        for index in range(1000):
            kernel.call_after(float(index), lambda i=index: log.append(i))
        kernel.call_after_many(
            [(0.25, lambda: log.append(-1)), (1.25, lambda: log.append(-2))]
        )
        kernel.run_all()
        assert log.index(-1) == log.index(0) + 1
        assert log.index(-2) == log.index(1) + 1
