"""``repro-report``: collate benchmark reports into one document.

After ``pytest benchmarks/ --benchmark-only``, each experiment leaves its
table in ``bench_reports/<name>.txt``; this tool stitches them into a
single markdown document in the paper's experiment order -- the artifact
to diff against EXPERIMENTS.md after a change.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

# Paper order: tables/figures first, then production results, then ablations.
SECTION_ORDER = [
    ("table1_hdfs_traffic", "Table 1 — HDFS production traffic"),
    ("fig2_zipf_popularity", "Figure 2 — Zipf popularity"),
    ("fig9_tpcds_q81_99", "Figure 9 — TPC-DS Q81–Q99"),
    ("fig10_scan_time_percentiles", "Figure 10 — scan time percentiles"),
    ("fig13_cache_read_rates", "Figure 13 — DataNode read rates"),
    ("fig14_blocked_processes", "Figure 14 — blocked processes"),
    ("fig15_tpcds_full", "Figure 15 — TPC-DS Q1–Q49"),
    ("fig16_tpcds_full", "Figure 16 — TPC-DS Q50–Q99"),
    ("fig15_16_summary", "TPC-DS Q1–Q99 summary"),
    ("meta_production_latency", "Meta production (§6.1.4)"),
    ("admission_effectiveness", "Admission effectiveness (§5.1)"),
    ("ablation_page_size", "Ablation — page size (§7)"),
    ("ablation_soft_affinity", "Ablation — soft affinity (§6.1.2)"),
    ("ablation_replicas", "Ablation — replica count (§7)"),
    ("ablation_eviction", "Ablation — eviction policy (§4.1)"),
    ("ablation_admission", "Ablation — admission policy (§5.1)"),
    ("ablation_metadata_cache", "Ablation — metadata cache (§6.1.1/§7)"),
    ("chaos_soak", "Chaos soak — resilience under fault injection"),
    ("churn_soak", "Churn soak — membership, admission, recovery SLOs"),
    ("cluster_membership", "Cluster membership — node health"),
    ("trace_attribution", "Trace attribution — per-query latency breakdown"),
    ("kernel_perf", "Kernel perf — scheduler throughput ladder + profile"),
    ("telemetry", "Telemetry — continuous virtual-time metrics"),
]


def format_membership(
    health_snapshot: dict[str, dict],
    membership_states: dict[str, str] | None = None,
) -> str:
    """Render ``NodeHealthTracker.snapshot()`` (plus optional membership
    states) as the cluster-membership report section.

    One row per node: membership state, breaker state, availability, and
    the success/failure tallies the breaker decided from.  Benchmarks call
    this and pass the text to ``emit_report("cluster_membership", ...)``.
    """
    states = membership_states if membership_states is not None else {}
    nodes = sorted(set(health_snapshot) | set(states))
    lines = [
        f"{'node':<16} {'member':<10} {'breaker':<10} {'avail':<6} "
        f"{'ok':>8} {'fail':>6}  last failure",
    ]
    for node in nodes:
        entry = health_snapshot.get(node, {})
        last = entry.get("last_failure_at")
        lines.append(
            f"{node:<16} "
            f"{states.get(node, '-'):<10} "
            f"{entry.get('state', '-'):<10} "
            f"{('yes' if entry.get('available', True) else 'no'):<6} "
            f"{entry.get('successes', 0):>8} "
            f"{entry.get('failures', 0):>6}  "
            f"{f'{last:.1f}s' if last is not None else '-'}"
        )
    return "\n".join(lines)


def validate_bench_json(report_dir: Path) -> list[str]:
    """Sanity-check every ``BENCH_*.json`` machine artifact in the dir.

    These files are the perf-trajectory record CI diffs between PRs; a
    truncated or hand-mangled one must fail the report step, not silently
    ride along.  Returns a list of problems (empty = all valid).
    """
    problems = []
    for path in sorted(report_dir.glob("BENCH_*.json")):
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            problems.append(f"{path.name}: {exc}")
            continue
        if not isinstance(doc, dict) or not doc:
            problems.append(f"{path.name}: expected a non-empty JSON object")
    return problems


def collate(report_dir: Path) -> str:
    """Build the markdown document from whatever reports exist."""
    sections: list[str] = ["# Benchmark report", ""]
    seen: set[str] = set()
    for stem, title in SECTION_ORDER:
        path = report_dir / f"{stem}.txt"
        if not path.exists():
            continue
        seen.add(stem)
        sections.append(f"## {title}")
        sections.append("")
        sections.append("```")
        sections.append(path.read_text(encoding="utf-8").rstrip())
        sections.append("```")
        sections.append("")
    # anything new that is not yet in the canonical order
    for path in sorted(report_dir.glob("*.txt")):
        if path.stem in seen:
            continue
        sections.append(f"## {path.stem}")
        sections.append("")
        sections.append("```")
        sections.append(path.read_text(encoding="utf-8").rstrip())
        sections.append("```")
        sections.append("")
    return "\n".join(sections)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-report",
        description="Collate bench_reports/*.txt into one markdown file.",
    )
    parser.add_argument(
        "--reports", default="bench_reports",
        help="directory holding per-benchmark .txt reports",
    )
    parser.add_argument(
        "--out", default=None,
        help="output markdown path (default: stdout)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point.  Every error path returns a non-zero exit code
    (and prints to stderr) so CI pipelines that chain this tool fail
    loudly instead of publishing an empty report."""
    args = build_parser().parse_args(argv)
    report_dir = Path(args.reports)
    if not report_dir.is_dir():
        print(f"error: {report_dir} is not a directory "
              f"(run `pytest benchmarks/ --benchmark-only` first)",
              file=sys.stderr)
        return 1
    problems = validate_bench_json(report_dir)
    if problems:
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        return 1
    document = collate(report_dir)
    if args.out:
        try:
            Path(args.out).write_text(document, encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 1
        print(f"wrote {args.out}")
    else:
        print(document)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
