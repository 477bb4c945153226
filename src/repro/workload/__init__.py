"""Workload generators calibrated to the paper's published statistics.

- :mod:`~repro.workload.zipf` -- bounded Zipf sampling and rank-frequency
  exponent fitting (Figure 2 reports a Zipfian factor up to 1.39 on Presto
  nodes at Uber).
- :mod:`~repro.workload.traces` -- HDFS block-access traces matching the
  Table 1 per-host statistics (total reads/writes, top-10K-block traffic
  concentration).
- :mod:`~repro.workload.fragments` -- ranged-read size distributions
  matching Section 2.2 (">50 % of SQL requests access <10 KB, >90 %
  <1 MB").
- :mod:`~repro.workload.tpcds` -- 99 TPC-DS-shaped query templates with
  scan/compute profiles driving the Presto simulator (Figures 9/15/16).
"""

from repro.workload.arrivals import bursty_arrivals, poisson_arrivals
from repro.workload.fragments import FragmentedReadGenerator
from repro.workload.traces import BlockAccess, HostTraceSpec, TraceGenerator, TraceStats
from repro.workload.zipf import ZipfFit, ZipfSampler, fit_zipf_exponent

__all__ = [
    "ZipfSampler",
    "ZipfFit",
    "fit_zipf_exponent",
    "HostTraceSpec",
    "BlockAccess",
    "TraceGenerator",
    "TraceStats",
    "FragmentedReadGenerator",
    "poisson_arrivals",
    "bursty_arrivals",
]
