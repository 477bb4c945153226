"""``repro-trace``: generate and analyze block-access traces.

Trace files are CSV with a header: ``timestamp,block_id,nbytes,is_read``
(``is_read`` as 0/1).  The ``analyze`` subcommand prints the Table-1-style
row for the trace (reads, writes, read/write ratio, top-K concentration)
plus the fitted Zipf exponent of the read popularity distribution; the
``generate`` subcommand writes a synthetic trace from a
:class:`~repro.workload.traces.HostTraceSpec`.

Usage::

    repro-trace generate --out trace.csv --reads 100000 --writes 300 \
        --blocks 20000 --top-k 1000 --top-k-share 0.95
    repro-trace analyze trace.csv --top-k 1000
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from repro.analysis.report import Table
from repro.ports.rng import RngStream
from repro.workload.traces import BlockAccess, HostTraceSpec, TraceGenerator, stats_of
from repro.workload.zipf import fit_zipf_exponent

CSV_HEADER = ["timestamp", "block_id", "nbytes", "is_read"]


def write_trace(path: str | Path, trace: list[BlockAccess]) -> None:
    """Persist a trace as CSV."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_HEADER)
        for access in trace:
            writer.writerow(
                [f"{access.timestamp:.6f}", access.block_id, access.nbytes,
                 int(access.is_read)]
            )


def read_trace(path: str | Path) -> list[BlockAccess]:
    """Load a CSV trace; validates the header."""
    trace: list[BlockAccess] = []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != CSV_HEADER:
            raise ValueError(
                f"bad trace header {header!r}; expected {CSV_HEADER}"
            )
        for row in reader:
            trace.append(
                BlockAccess(
                    timestamp=float(row[0]),
                    block_id=int(row[1]),
                    nbytes=int(row[2]),
                    is_read=bool(int(row[3])),
                )
            )
    return trace


def _cmd_generate(args: argparse.Namespace) -> int:
    spec = HostTraceSpec(
        name=args.name,
        total_reads=args.reads,
        total_writes=args.writes,
        n_blocks=args.blocks,
        top_k=args.top_k,
        top_k_share=args.top_k_share,
        duration_seconds=args.duration,
    )
    generator = TraceGenerator(spec, RngStream(args.seed, f"trace/{args.name}"))
    trace = generator.generate()
    write_trace(args.out, trace)
    print(f"wrote {len(trace)} accesses to {args.out} "
          f"(zipf exponent {generator.exponent:.3f})")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    trace = read_trace(args.trace)
    stats = stats_of(trace)
    table = Table(["metric", "value"], title=f"Trace statistics: {args.trace}")
    table.add_row(["total reads", stats.total_reads])
    table.add_row(["total writes", stats.total_writes])
    ratio = stats.read_write_ratio
    table.add_row(["reads / writes",
                   "inf" if ratio == float("inf") else f"{ratio:.1f}"])
    table.add_row([f"top-{args.top_k} read share",
                   f"{stats.top_k_share(args.top_k) * 100:.1f}%"])
    counts = np.array(list(stats.read_counts.values()))
    if counts.size >= 2:
        fit = fit_zipf_exponent(counts, min_count=args.min_count)
        table.add_row(["zipf exponent (fit)", f"{fit.s:.3f}"])
        table.add_row(["fit R^2", f"{fit.r_squared:.4f}"])
    print(table.render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description="Generate and analyze block-access traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", help="write a synthetic trace")
    generate.add_argument("--out", required=True, help="output CSV path")
    generate.add_argument("--name", default="host", help="host label")
    generate.add_argument("--reads", type=int, default=100_000)
    generate.add_argument("--writes", type=int, default=300)
    generate.add_argument("--blocks", type=int, default=20_000)
    generate.add_argument("--top-k", type=int, default=1_000)
    generate.add_argument("--top-k-share", type=float, default=0.95)
    generate.add_argument("--duration", type=float, default=72_000.0,
                          help="trace duration in seconds")
    generate.add_argument("--seed", type=int, default=2024)
    generate.set_defaults(func=_cmd_generate)

    analyze = sub.add_parser("analyze", help="summarize a trace CSV")
    analyze.add_argument("trace", help="trace CSV path")
    analyze.add_argument("--top-k", type=int, default=1_000)
    analyze.add_argument("--min-count", type=int, default=2,
                         help="ignore blocks with fewer reads in the fit")
    analyze.set_defaults(func=_cmd_analyze)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
