"""Fragmented-read size distributions (Section 2.2).

"More than 50% of SQL requests on HDFS access less than 10 KB of data, and
over 90% involve less than 1 MB."  Predicate pushdown over columnar files
produces exactly this: many tiny column-chunk reads plus an occasional
large sequential scan.

:class:`FragmentedReadGenerator` draws read sizes from a mixture calibrated
to those two quantiles and positions them within files; it powers the page-
size ablation bench (read amplification vs request count, Section 7).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ports.rng import RngStream

KIB = 1024
MIB = 1024 * KIB


@dataclass(frozen=True, slots=True)
class ReadRequest:
    """One positional read against one file."""

    file_id: str
    offset: int
    length: int


class FragmentedReadGenerator:
    """Read sizes matching the paper's CDF anchors.

    A three-component log-normal mixture:

    - ~55 % "footer/stat" reads centred near 2 KB   (the <10 KB mass),
    - ~37 % "column chunk" reads centred near 100 KB (the 10 KB-1 MB mass),
    - ~8 %  "large scan" reads centred near 4 MB     (the >1 MB tail),

    which lands P50 < 10 KB and P90 <= ~1 MB as published.
    """

    _COMPONENTS = (
        # (probability, median_bytes, sigma)
        (0.55, 2 * KIB, 0.9),
        (0.37, 100 * KIB, 0.8),
        (0.08, 4 * MIB, 0.6),
    )

    def __init__(self, rng: RngStream) -> None:
        self._rng = rng

    def sizes(self, count: int) -> np.ndarray:
        """Draw ``count`` read sizes in bytes."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        rng = self._rng.rng
        probs = np.array([p for p, __, __ in self._COMPONENTS])
        choices = rng.choice(len(self._COMPONENTS), size=count, p=probs)
        sizes = np.empty(count, dtype=np.float64)
        for index, (__, median, sigma) in enumerate(self._COMPONENTS):
            mask = choices == index
            sizes[mask] = rng.lognormal(np.log(median), sigma, size=int(mask.sum()))
        return np.clip(sizes, 64, 64 * MIB).astype(np.int64)

    def requests(
        self,
        count: int,
        file_ids: list[str],
        file_length: int,
        *,
        popularity: np.ndarray | None = None,
    ) -> list[ReadRequest]:
        """Draw ``count`` positioned reads across ``file_ids``.

        ``popularity`` optionally supplies a per-file selection weight
        (e.g. Zipfian); defaults to uniform.
        """
        if not file_ids:
            raise ValueError("need at least one file")
        rng = self._rng.rng
        if popularity is not None:
            popularity = np.asarray(popularity, dtype=np.float64)
            popularity = popularity / popularity.sum()
        picks = rng.choice(len(file_ids), size=count, p=popularity)
        sizes = self.sizes(count)
        requests = []
        for pick, size in zip(picks, sizes):
            size = int(min(size, file_length))
            offset = int(rng.integers(0, max(file_length - size, 0) + 1))
            requests.append(ReadRequest(file_ids[int(pick)], offset, size))
        return requests


def read_size_cdf(sizes: np.ndarray, anchors: list[int]) -> dict[int, float]:
    """Fraction of reads at or below each anchor size (for the Section 2.2
    '<10 KB' / '<1 MB' checks)."""
    sizes = np.asarray(sizes)
    if sizes.size == 0:
        return {a: 0.0 for a in anchors}
    return {a: float((sizes <= a).mean()) for a in anchors}
