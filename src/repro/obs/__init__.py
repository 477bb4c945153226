"""Virtual-time distributed tracing (DESIGN.md §8).

Public surface:

- :func:`current_tracer` / :func:`installed_tracer` -- the global tracer
  slot instrumented code reads (no-op by default; zero per-read cost).
- :class:`SimTracer` / :class:`SpanBuffer` -- enable tracing for a run.
- :mod:`~repro.obs.attribution` / :mod:`~repro.obs.critical_path` /
  :mod:`~repro.obs.export` -- analysis and exporters over recorded spans.
- :class:`KernelProfiler` / :data:`NOOP_PROFILER` -- scheduler profiling
  with wait-state attribution (DESIGN.md §12).
- :class:`TelemetrySampler` -- continuous virtual-time metrics sampling.
"""

from repro.obs.attribution import (
    HEDGE_ATTEMPT_ATTR,
    OFF_PATH_ATTR,
    TraceAttribution,
    aggregate,
    attribute_buffer,
    attribute_trace,
    format_attribution,
    is_off_path,
)
from repro.obs.buffer import SpanBuffer
from repro.obs.critical_path import PathStep, critical_path, format_critical_path
from repro.obs.export import (
    chrome_trace_json,
    jsonl_to_dicts,
    spans_from_dicts,
    spans_to_jsonl,
    to_chrome_trace,
    tree_signature,
)
from repro.obs.profiler import (
    NOOP_PROFILER,
    KernelProfile,
    KernelProfiler,
    NoopKernelProfiler,
    classify_wait,
    process_type,
)
from repro.obs.sampler import DEFAULT_COUNTERS, TelemetrySampler, format_telemetry
from repro.obs.span import ATTRIBUTION_BUCKETS, NOOP_SPAN, NoopSpan, Span
from repro.obs.tracer import (
    NOOP_TRACER,
    NoopTracer,
    SimTracer,
    current_tracer,
    installed_tracer,
)

__all__ = [
    "ATTRIBUTION_BUCKETS",
    "DEFAULT_COUNTERS",
    "HEDGE_ATTEMPT_ATTR",
    "NOOP_PROFILER",
    "NOOP_SPAN",
    "NOOP_TRACER",
    "OFF_PATH_ATTR",
    "KernelProfile",
    "KernelProfiler",
    "NoopKernelProfiler",
    "NoopSpan",
    "NoopTracer",
    "PathStep",
    "SimTracer",
    "Span",
    "SpanBuffer",
    "TelemetrySampler",
    "TraceAttribution",
    "aggregate",
    "attribute_buffer",
    "attribute_trace",
    "chrome_trace_json",
    "classify_wait",
    "critical_path",
    "current_tracer",
    "format_attribution",
    "format_critical_path",
    "format_telemetry",
    "installed_tracer",
    "is_off_path",
    "jsonl_to_dicts",
    "process_type",
    "spans_from_dicts",
    "spans_to_jsonl",
    "to_chrome_trace",
    "tree_signature",
]
