"""HDFS block-access trace generation calibrated to Table 1.

The paper's Table 1 reports, for four production DataNodes over ~20 hours:

=================  ======  ======  ======  ======
Host               Host 1  Host 2  Host 3  Host 4
Total reads (M)      13.5    12.8     8.5    14.3
Total writes (K)      3.3     4.7     4.6      45
Reads / writes     4091.0  2723.4  1847.8   317.8
Top-10K share         89%     94%     99%     99%
=================  ======  ======  ======  ======

:class:`HostTraceSpec` carries those calibration targets (with the
published values as presets); :class:`TraceGenerator` produces a
time-ordered stream of block accesses whose aggregate statistics land on
them.  The Zipf exponent per host is solved numerically so that the top-10K
blocks carry the target share of reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ports.rng import RngStream
from repro.workload.zipf import ZipfSampler


@dataclass(frozen=True, slots=True)
class HostTraceSpec:
    """Calibration targets for one host's trace."""

    name: str
    total_reads: int
    total_writes: int
    n_blocks: int
    top_k: int
    top_k_share: float
    duration_seconds: float = 20 * 3600.0
    block_size: int = 128 * 1024 * 1024
    mean_read_bytes: int = 256 * 1024

    def __post_init__(self) -> None:
        if self.total_reads <= 0 or self.total_writes < 0:
            raise ValueError("totals must be positive / non-negative")
        if not 0 < self.top_k_share <= 1:
            raise ValueError(f"top_k_share must be in (0, 1], got {self.top_k_share}")
        if self.top_k <= 0 or self.n_blocks <= 0:
            raise ValueError("top_k and n_blocks must be positive")

    @property
    def read_write_ratio(self) -> float:
        if self.total_writes == 0:
            return float("inf")
        return self.total_reads / self.total_writes


# The four hosts of Table 1, scaled down 100x by default so simulations
# stay laptop-sized; ratios and shares are preserved exactly.
def table1_hosts(scale: float = 0.01) -> list[HostTraceSpec]:
    """The paper's four production hosts, optionally scaled in volume."""
    raw = [
        ("host1", 13_500_000, 3_300, 0.89),
        ("host2", 12_800_000, 4_700, 0.94),
        ("host3", 8_500_000, 4_600, 0.99),
        ("host4", 14_300_000, 45_000, 0.99),
    ]
    specs = []
    for name, reads, writes, share in raw:
        specs.append(
            HostTraceSpec(
                name=name,
                total_reads=max(int(reads * scale), 1),
                total_writes=max(int(writes * scale), 1),
                n_blocks=max(int(200_000 * scale), 20_000),
                top_k=max(int(10_000 * scale), 100),
                top_k_share=share,
            )
        )
    return specs


@dataclass(frozen=True, slots=True)
class BlockAccess:
    """One trace record."""

    timestamp: float
    block_id: int
    nbytes: int
    is_read: bool


@dataclass(slots=True)
class TraceStats:
    """Aggregate statistics of a generated (or replayed) trace, in the
    shape of Table 1's rows."""

    total_reads: int = 0
    total_writes: int = 0
    read_counts: dict[int, int] = field(default_factory=dict)

    def record(self, access: BlockAccess) -> None:
        if access.is_read:
            self.total_reads += 1
            self.read_counts[access.block_id] = (
                self.read_counts.get(access.block_id, 0) + 1
            )
        else:
            self.total_writes += 1

    @property
    def read_write_ratio(self) -> float:
        if self.total_writes == 0:
            return float("inf")
        return self.total_reads / self.total_writes

    def top_k_share(self, k: int) -> float:
        """Fraction of read traffic hitting the k most-read blocks."""
        if self.total_reads == 0:
            return 0.0
        counts = sorted(self.read_counts.values(), reverse=True)
        return sum(counts[:k]) / self.total_reads


def solve_zipf_exponent_for_share(
    n_blocks: int, top_k: int, target_share: float, *, tolerance: float = 1e-4
) -> float:
    """Find s such that the top-k mass of Zipf(s) over n_blocks equals the
    target share, by bisection on the monotone share(s) curve."""
    if not 0 < target_share < 1:
        raise ValueError(f"target_share must be in (0, 1), got {target_share}")

    def share(s: float) -> float:
        weights = np.arange(1, n_blocks + 1, dtype=np.float64) ** (-s)
        return float(weights[:top_k].sum() / weights.sum())

    low, high = 0.0, 5.0
    if share(high) < target_share:
        return high
    for __ in range(100):
        mid = (low + high) / 2
        if share(mid) < target_share:
            low = mid
        else:
            high = mid
        if high - low < tolerance:
            break
    return (low + high) / 2


class TraceGenerator:
    """Generate a time-ordered block access trace for one host spec."""

    def __init__(self, spec: HostTraceSpec, rng: RngStream) -> None:
        self.spec = spec
        self._rng = rng
        self.exponent = solve_zipf_exponent_for_share(
            spec.n_blocks, spec.top_k, spec.top_k_share
        )
        self._sampler = ZipfSampler(spec.n_blocks, self.exponent, rng.child("zipf"))

    def generate(self) -> list[BlockAccess]:
        """The full trace, reads and writes interleaved uniformly in time."""
        spec = self.spec
        rng = self._rng.rng
        total = spec.total_reads + spec.total_writes
        timestamps = np.sort(rng.random(total) * spec.duration_seconds)
        is_read = np.ones(total, dtype=bool)
        write_positions = rng.choice(total, size=spec.total_writes, replace=False)
        is_read[write_positions] = False

        read_blocks = self._sampler.sample(spec.total_reads)
        # Writes touch uniformly random blocks: cold data being ingested.
        write_blocks = rng.integers(0, spec.n_blocks, size=spec.total_writes)

        read_sizes = self._read_sizes(spec.total_reads)
        accesses: list[BlockAccess] = []
        read_cursor = 0
        write_cursor = 0
        for index in range(total):
            if is_read[index]:
                accesses.append(
                    BlockAccess(
                        timestamp=float(timestamps[index]),
                        block_id=int(read_blocks[read_cursor]),
                        nbytes=int(read_sizes[read_cursor]),
                        is_read=True,
                    )
                )
                read_cursor += 1
            else:
                accesses.append(
                    BlockAccess(
                        timestamp=float(timestamps[index]),
                        block_id=int(write_blocks[write_cursor]),
                        nbytes=spec.block_size,
                        is_read=False,
                    )
                )
                write_cursor += 1
        return accesses

    def _read_sizes(self, count: int) -> np.ndarray:
        """Log-normal read sizes centred on the spec's mean (columnar reads
        are small and skewed)."""
        rng = self._rng.child("sizes").rng
        sigma = 1.2
        mu = np.log(self.spec.mean_read_bytes) - sigma**2 / 2
        sizes = rng.lognormal(mu, sigma, size=count)
        return np.clip(sizes, 512, self.spec.block_size).astype(np.int64)


def stats_of(trace: list[BlockAccess]) -> TraceStats:
    """Aggregate a trace into Table-1-shaped statistics."""
    stats = TraceStats()
    for access in trace:
        stats.record(access)
    return stats
