"""``repro-trace-viz``: convert, summarize, and demo virtual-time traces.

Three subcommands over the span JSONL format written by
:func:`repro.obs.spans_to_jsonl`:

- ``convert`` -- span JSONL to Chrome/Perfetto ``trace_event`` JSON; open
  the output in https://ui.perfetto.dev or ``chrome://tracing``.
- ``report`` -- per-trace latency attribution (bucket table, coverage,
  slowest traces) plus the critical path of the slowest trace.
- ``demo`` -- run a small self-contained traced scenario (a 3-worker
  Presto cluster serving a Zipf workload off an object store) and write
  ``spans.jsonl``, ``trace.json``, and ``attribution.txt`` into a
  directory -- the quickest way to see the whole pipeline end to end.

Usage::

    python -m repro.tools.trace_viz demo --out trace_artifacts
    python -m repro.tools.trace_viz convert spans.jsonl --out trace.json
    python -m repro.tools.trace_viz report spans.jsonl --top 5
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.core.config import MIB
from repro.core.page import installed_time_source
from repro.obs import (
    SimTracer,
    SpanBuffer,
    attribute_buffer,
    chrome_trace_json,
    critical_path,
    format_attribution,
    format_critical_path,
    installed_tracer,
    jsonl_to_dicts,
    spans_from_dicts,
    spans_to_jsonl,
)
from repro.obs.span import Span
from repro.ports.clock import SimClock
from repro.ports.rng import RngStream


def load_spans(path: str | Path) -> list[Span]:
    """Read a span JSONL file back into detached spans."""
    text = Path(path).read_text(encoding="utf-8")
    return spans_from_dicts(jsonl_to_dicts(text))


def render_report(spans: list[Span], *, top: int = 3) -> str:
    """Attribution table + critical path of the slowest trace."""
    by_trace: dict[str, list[Span]] = {}
    for span in spans:
        by_trace.setdefault(span.trace_id, []).append(span)
    buffer = SpanBuffer(capacity=max(len(spans), 1))
    for span in spans:
        buffer.record(span)
    reports = attribute_buffer(buffer)
    lines = [format_attribution(reports, top=top)]
    if reports:
        slowest = sorted(reports, key=lambda r: (-r.wall, r.trace_id))[0]
        lines += [
            "",
            f"critical path of slowest trace ({slowest.trace_id}):",
            format_critical_path(critical_path(by_trace[slowest.trace_id])),
        ]
    return "\n".join(lines)


def run_demo_scenario(
    seed: int = 7, n_requests: int = 64
) -> tuple[SimTracer, dict]:
    """A miniature traced cluster: 3 Presto workers over an object store.

    Each request is a one-file query (one 128 KiB column chunk of a
    Zipf-popular file), half a virtual second after the previous one, run
    on the cluster's kernel; each query is one trace.
    """
    from repro.presto import PrestoCluster, QueryProfile, ScanProfile, TableScan
    from repro.presto.catalog import Catalog, build_table
    from repro.resilience import ResilientDataSource, RetryPolicy
    from repro.storage.object_store import ObjectStore
    from repro.storage.remote import ObjectStoreDataSource
    from repro.workload.zipf import ZipfSampler

    n_files = 16
    file_size = 1 * MIB
    page_size = 128 * 1024

    clock = SimClock()
    root = RngStream(seed, "trace-viz-demo")
    tracer = SimTracer(clock, root.child("tracer"), buffer=SpanBuffer())
    with installed_time_source(clock.now):
        with installed_tracer(tracer):
            store = ObjectStore(clock=clock)
            table = build_table(
                "lake", "events", n_partitions=n_files, files_per_partition=1,
                file_size=file_size, n_columns=file_size // page_size,
                n_row_groups=1,
            )
            for i, (__, file) in enumerate(table.all_files()):
                store.put_object(file.file_id, bytes([i % 251]) * file_size)
            catalog = Catalog()
            catalog.add_table(table)
            remote = ResilientDataSource(
                ObjectStoreDataSource(store),
                policy=RetryPolicy(max_attempts=3, base_delay=0.05, jitter=0.2),
                rng=root.child("retry"),
            )
            cluster = PrestoCluster.create(
                catalog, remote, n_workers=3, cache_capacity_bytes=8 * MIB,
                page_size=page_size, target_split_size=file_size, clock=clock,
            )
            ranks = ZipfSampler(n_files, 1.1, root.child("zipf")).sample(
                n_requests
            )
            scan = ScanProfile(columns_read=1, row_group_selectivity=1.0)
            arrivals = [
                ((i + 1) * 0.5, QueryProfile(
                    query_id=f"r{i:04d}",
                    scans=(TableScan("lake.events", 1 / n_files, scan,
                                     partition_offset=int(rank)),),
                    compute_seconds=0.0,
                ))
                for i, rank in enumerate(ranks)
            ]
            results = cluster.coordinator.run_concurrent_kernel(
                arrivals, worker_concurrency=1
            )
    summary = {
        "requests": n_requests,
        "latency_sum": round(sum(r.wall_seconds for r in results), 9),
        "hit_ratio": round(cluster.coordinator.cluster_hit_ratio(), 6),
        "spans": len(tracer.buffer),
    }
    return tracer, summary


def _cmd_convert(args: argparse.Namespace) -> int:
    spans = load_spans(args.spans)
    text = chrome_trace_json(spans, indent=args.indent)
    Path(args.out).write_text(text + "\n", encoding="utf-8")
    traces = len({s.trace_id for s in spans})
    print(f"wrote {args.out}: {len(spans)} spans across {traces} trace(s)")
    print("open in https://ui.perfetto.dev or chrome://tracing")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    print(render_report(load_spans(args.spans), top=args.top))
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tracer, summary = run_demo_scenario(args.seed, args.requests)
    spans = tracer.buffer.spans()

    jsonl_path = out / "spans.jsonl"
    jsonl_path.write_text(spans_to_jsonl(spans) + "\n", encoding="utf-8")
    chrome_path = out / "trace.json"
    chrome_path.write_text(
        chrome_trace_json(spans, indent=2) + "\n", encoding="utf-8"
    )
    report = render_report(spans, top=args.top)
    report_path = out / "attribution.txt"
    report_path.write_text(report + "\n", encoding="utf-8")

    print(
        f"demo: {summary['requests']} requests, "
        f"hit ratio {summary['hit_ratio']:.3f}, "
        f"{summary['spans']} spans, "
        f"total virtual latency {summary['latency_sum']:.3f}s"
    )
    print(f"wrote {jsonl_path}, {chrome_path}, {report_path}")
    print()
    print(report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-trace-viz",
        description="Convert, summarize, and demo virtual-time traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    convert = sub.add_parser(
        "convert", help="span JSONL -> Chrome/Perfetto trace JSON"
    )
    convert.add_argument("spans", help="span JSONL path")
    convert.add_argument("--out", required=True, help="output JSON path")
    convert.add_argument("--indent", type=int, default=None)
    convert.set_defaults(func=_cmd_convert)

    report = sub.add_parser(
        "report", help="attribution + critical-path summary of a span log"
    )
    report.add_argument("spans", help="span JSONL path")
    report.add_argument("--top", type=int, default=3,
                        help="slowest traces to list")
    report.set_defaults(func=_cmd_report)

    demo = sub.add_parser(
        "demo", help="run a small traced scenario and export everything"
    )
    demo.add_argument("--out", required=True, help="output directory")
    demo.add_argument("--seed", type=int, default=7)
    demo.add_argument("--requests", type=int, default=64)
    demo.add_argument("--top", type=int, default=3)
    demo.set_defaults(func=_cmd_demo)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
