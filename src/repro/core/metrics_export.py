"""Metrics exporters: the observable surface of the metrics system.

The production deployment exports cache metrics through Presto JMX
exporters into a centralized system (Sections 6.1.3, 7).  This module
renders a :class:`~repro.core.metrics.MetricsRegistry` into the two
formats a scrape pipeline wants:

- :func:`to_json_dict` -- structured counters, gauges, histogram summaries,
  and the per-operation error breakdown;
- :func:`to_prometheus_text` -- Prometheus exposition format, one gauge or
  counter line per metric, labelled by cache instance.
"""

from __future__ import annotations

import json
import re

from repro.core.metrics import MetricsRegistry

_HISTOGRAM_QUANTILES = (50.0, 90.0, 95.0, 99.0)
_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def _sanitize(name: str) -> str:
    return _NAME_RE.sub("_", name)


def _escape_label(value: str) -> str:
    """Escape a label value per the Prometheus exposition format: backslash,
    double quote, and line feed must be backslash-escaped."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def to_json_dict(registry: MetricsRegistry) -> dict:
    """Structured snapshot of one registry."""
    histograms = {}
    for name, histogram in registry._histograms.items():
        histograms[name] = {
            "count": histogram.count,
            "total": histogram.total,
            "mean": histogram.mean,
            "sampled": histogram.sampled,
            **{
                f"p{int(q)}": histogram.percentile(q)
                for q in _HISTOGRAM_QUANTILES
            },
            # metric -> trace linkage: recent (value, span_id) exemplars
            "exemplars": [
                {"value": value, "span_id": ref}
                for value, ref in histogram.exemplars()
            ],
        }
    return {
        "name": registry.name,
        "counters": registry.counters(),
        "gauges": {name: g.value for name, g in registry._gauges.items()},
        "histograms": histograms,
        "errors": registry.error_breakdown(),
        "hit_ratio": registry.hit_ratio,
    }


def to_json(registry: MetricsRegistry, *, indent: int | None = None) -> str:
    """JSON text of :func:`to_json_dict`."""
    return json.dumps(to_json_dict(registry), indent=indent, sort_keys=True)


def to_prometheus_text(registry: MetricsRegistry) -> str:
    """Prometheus exposition format for one registry."""
    # metric names must be sanitized; label values may hold any UTF-8 but
    # backslash, quote, and newline must be escaped
    instance = _escape_label(registry.name)
    lines: list[str] = []
    for name, value in sorted(registry.counters().items()):
        metric = f"cache_{_sanitize(name)}_total"
        lines.append(f'{metric}{{instance="{instance}"}} {value}')
    for name, gauge in sorted(registry._gauges.items()):
        metric = f"cache_{_sanitize(name)}"
        lines.append(f'{metric}{{instance="{instance}"}} {gauge.value}')
    for name, histogram in sorted(registry._histograms.items()):
        metric = f"cache_{_sanitize(name)}"
        lines.append(
            f'{metric}_count{{instance="{instance}"}} {histogram.count}'
        )
        lines.append(
            f'{metric}_sum{{instance="{instance}"}} {histogram.total}'
        )
        for q in _HISTOGRAM_QUANTILES:
            lines.append(
                f'{metric}{{instance="{instance}",quantile="{q / 100:g}"}} '
                f"{histogram.percentile(q)}"
            )
    for operation, types in sorted(registry.error_breakdown().items()):
        for error_type, count in sorted(types.items()):
            lines.append(
                f'cache_errors_total{{instance="{instance}",'
                f'operation="{_sanitize(operation)}",'
                f'type="{_sanitize(error_type)}"}} {count}'
            )
    lines.append(f'cache_hit_ratio{{instance="{instance}"}} {registry.hit_ratio}')
    return "\n".join(lines) + "\n"
