"""The cache server of the socket workloads, in its own process.

Launched by ``fixtures.ServerProcess``.  Builds the engine from public
constructors, warms it, serves on a free port and prints
``ready <port> <json>``.  On SIGTERM it runs ``CacheServer.drain()`` and
prints one JSON line: drain summary, peak RSS, CPU, fixture counts and (when
traced) the per-layer span summary; the spans go to ``perfbench/out/``.
Exit code 1 if the drain was not clean.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for _path in (ROOT, ROOT / "src"):
    sys.path.insert(0, str(_path))

from repro.service.server import CacheServer  # noqa: E402

from perfbench import fixtures, tracing, workloads  # noqa: E402


def _disk_bytes(root: Path) -> int:
    return sum(
        os.path.getsize(os.path.join(folder, name))
        for folder, _, names in os.walk(root)
        for name in names
    )


async def _serve(spec: workloads.Spec, seed: int, traced: bool) -> int:
    store_root = fixtures.make_temp_dir(f"{spec.name}-store-") if spec.local_store else None
    tracer = tracing.Tracer()
    try:
        source = workloads.make_source(spec)
        engine = workloads.build_engine(spec, source, store_root)
        workloads.warm(spec, engine, source, seed)
        if traced:
            tracing.wrap_protocol(tracer)
            tracing.wrap_core(tracer, engine, source)
        server = CacheServer(
            engine,
            executor_workers=workloads.EXECUTOR_WORKERS,
            max_inflight=workloads.MAX_INFLIGHT,
        )
        await server.start()
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        loop.add_signal_handler(signal.SIGTERM, stop.set)
        warm_reads, warm_bytes = source.reads, source.bytes
        tracer.enabled = traced
        print(
            f"ready {server.port}",
            json.dumps({
                "executor_workers": workloads.EXECUTOR_WORKERS,
                "max_inflight": workloads.MAX_INFLIGHT,
                "page_store": type(engine.manager.page_store).__name__,
                "fsync": False,
            }),
            flush=True,
        )
        await stop.wait()
        tracer.enabled = False
        drain = await server.drain()
        cached = engine.health()["bytes_used"]
        stored = (
            _disk_bytes(store_root) if store_root is not None
            else engine.manager.page_store.bytes_used(0)
        )
        summary = {
            "drain": drain,
            "peak_rss_mb": fixtures.own_peak_rss_mb(),
            "cpu_s": time.process_time(),
            "source_reads": source.reads - warm_reads,
            "source_bytes": source.bytes - warm_bytes,
            "cached_bytes": cached,
            "stored_bytes": stored,
            "spans": tracer.summary() if traced else {},
        }
        if traced:
            tracer.dump(fixtures.OUT_DIR / f"spans-{spec.name}-server.jsonl")
        print(json.dumps(summary), flush=True)
        return 0 if drain["clean"] else 1
    finally:
        tracer.uninstall()
        if store_root is not None:
            shutil.rmtree(store_root, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cpu", type=int, help="pin the server to this CPU")
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    return asyncio.run(
        _serve(workloads.SPECS[args.workload], args.seed, bool(args.trace))
    )


if __name__ == "__main__":
    raise SystemExit(main())
