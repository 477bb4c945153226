"""Per-trace latency attribution: where did each request's time go?

The paper's evaluation (§6.1.3) is a set of *attribution* questions --
cache vs. remote bytes, SSD vs. memory serving, blocked time under load.
This module answers them per request: every span in a trace carries
explicit latency ``charges`` recorded at the call sites that added latency
to the result, so summing charges over the tree (minus hedge-attempt
subtrees, whose cost is not on the serving path) reconstructs the
request's wall time bucket by bucket.

Reconciliation invariant: the bucket sums equal the measured virtual
latency.  A hedged read needs no correction: its race runs on the event
kernel, the losing copy is cancelled where it stands and charges only the
time it actually ran, and the backup's subtree is off the serving path.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.obs.span import ATTRIBUTION_BUCKETS, Span

# Root-span attr naming the measured wall time (seconds).  Cache reads and
# the cached DataNode annotate ``latency``; the coordinator annotates
# ``wall``.
_WALL_ATTRS = ("latency", "wall")

# Spans flagged with these attrs (and their subtrees) are work whose cost
# is not on the request's serving path -- speculative hedge attempts, or
# background-style cache loads whose latency the caller does not charge to
# the read -- and are excluded from attribution.
HEDGE_ATTEMPT_ATTR = "hedge_attempt"
OFF_PATH_ATTR = "off_path"


def is_off_path(span: Span) -> bool:
    attrs = span.attrs
    return bool(attrs.get(HEDGE_ATTEMPT_ATTR) or attrs.get(OFF_PATH_ATTR))


@dataclass(slots=True)
class TraceAttribution:
    """Bucketed latency for one trace."""

    trace_id: str
    root_name: str
    wall: float
    buckets: dict[str, float] = field(default_factory=dict)
    span_count: int = 0

    @property
    def charged_total(self) -> float:
        return sum(self.buckets.values())

    @property
    def unattributed(self) -> float:
        return self.wall - self.charged_total

    def within(self, tolerance: float = 0.01) -> bool:
        """Do the buckets sum to within ``tolerance`` (relative) of wall?"""
        if self.wall <= 0.0:
            return self.charged_total <= tolerance
        return abs(self.unattributed) <= tolerance * self.wall


def _children_index(spans: list[Span]) -> dict[str | None, list[Span]]:
    index: dict[str | None, list[Span]] = defaultdict(list)
    for span in spans:
        index[span.parent_id].append(span)
    return index


def _collect_charges(
    span: Span, index: dict[str | None, list[Span]], buckets: dict[str, float]
) -> int:
    """DFS summing charges, pruning off-path subtrees.  Returns spans visited."""
    if is_off_path(span):
        return 0
    visited = 1
    for bucket, seconds in span.charges.items():
        buckets[bucket] = buckets.get(bucket, 0.0) + seconds
    for child in sorted(
        index.get(span.span_id, ()), key=lambda s: (s.start, s.span_id)
    ):
        visited += _collect_charges(child, index, buckets)
    return visited


def attribute_trace(spans: list[Span]) -> TraceAttribution:
    """Attribute one trace's spans; ``spans`` must share a trace id."""
    if not spans:
        raise ValueError("cannot attribute an empty trace")
    roots = [s for s in spans if s.parent_id is None]
    if len(roots) != 1:
        raise ValueError(
            f"trace {spans[0].trace_id} has {len(roots)} roots, expected 1"
        )
    root = roots[0]
    index = _children_index(spans)
    buckets: dict[str, float] = {}
    span_count = _collect_charges(root, index, buckets)

    wall = None
    for attr in _WALL_ATTRS:
        if attr in root.attrs:
            wall = float(root.attrs[attr])
            break
    if wall is None:
        wall = sum(buckets.values())

    return TraceAttribution(
        trace_id=root.trace_id,
        root_name=root.name,
        wall=wall,
        buckets=buckets,
        span_count=span_count,
    )


def attribute_buffer(buffer: object) -> list[TraceAttribution]:
    """Attribute every complete trace in a SpanBuffer, in trace order."""
    reports: list[TraceAttribution] = []
    for _, spans in buffer.traces().items():  # type: ignore[attr-defined]
        if not any(s.parent_id is None for s in spans):
            continue  # partial trace (root dropped by a full buffer)
        reports.append(attribute_trace(spans))
    return reports


def aggregate(reports: list[TraceAttribution]) -> dict[str, float]:
    """Fleet view: total seconds per bucket across many traces."""
    totals: dict[str, float] = {}
    for report in reports:
        for bucket, seconds in report.buckets.items():
            totals[bucket] = totals.get(bucket, 0.0) + seconds
    return totals


def format_attribution(reports: list[TraceAttribution], *, top: int = 0) -> str:
    """Human-readable attribution table (for bench reports / trace_viz)."""
    lines: list[str] = []
    totals = aggregate(reports)
    wall_total = sum(r.wall for r in reports)
    charged_total = sum(totals.values())
    extra = sorted(set(totals) - set(ATTRIBUTION_BUCKETS))
    columns = [b for b in ATTRIBUTION_BUCKETS if b in totals] + extra
    lines.append(
        f"traces={len(reports)}  wall={wall_total:.6f}s  "
        f"charged={charged_total:.6f}s  "
        f"coverage={100.0 * charged_total / wall_total if wall_total else 100.0:.2f}%"
    )
    width = max((len(c) for c in columns), default=8)
    for bucket in columns:
        seconds = totals[bucket]
        share = 100.0 * seconds / charged_total if charged_total else 0.0
        lines.append(f"  {bucket:<{width}}  {seconds:12.6f}s  {share:6.2f}%")
    if top > 0:
        slowest = sorted(reports, key=lambda r: (-r.wall, r.trace_id))[:top]
        lines.append("")
        lines.append(f"slowest {len(slowest)} trace(s):")
        for report in slowest:
            mix = ", ".join(
                f"{b}={report.buckets[b]:.6f}"
                for b in columns
                if report.buckets.get(b, 0.0) > 0.0
            )
            lines.append(
                f"  {report.trace_id}  {report.root_name:<12} "
                f"wall={report.wall:.6f}s  [{mix}]"
            )
    return "\n".join(lines)
