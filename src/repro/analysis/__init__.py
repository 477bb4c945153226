"""Analysis helpers for the benchmark harness."""

from repro.analysis.percentile import percentile, reduction
from repro.analysis.report import Table, format_bytes
from repro.analysis.timeseries import RingSeries

__all__ = [
    "percentile",
    "reduction",
    "Table",
    "format_bytes",
    "RingSeries",
]
