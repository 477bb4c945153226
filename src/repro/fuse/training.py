"""Epoch-based ML-training-loop simulation over the FUSE layer.

The paper's ML use case: training re-reads the same dataset every epoch,
so the first epoch is I/O-bound against remote storage and later epochs
are served from the local SSD cache -- raising GPU utilization.

The model: each training step reads one batch of samples through
:class:`~repro.fuse.filesystem.CachedFileSystem` (virtual I/O time from
the cache/source latency models), then computes for a fixed virtual time.
GPU utilization for an epoch is ``compute_time / (compute_time +
io_stall_time)``, where a step's I/O only stalls the GPU to the extent it
exceeds the compute time of the *previous* step (single-stage prefetch
pipelining, as real data loaders do).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fuse.filesystem import CachedFileSystem
from repro.ports.rng import RngStream


@dataclass(frozen=True, slots=True)
class TrainingConfig:
    """Shape of the training job.

    Attributes:
        batch_size: samples per step.
        sample_size: bytes per sample read.
        step_compute_seconds: virtual GPU time per step.
        shuffle: reshuffle sample order each epoch (True matches real
            training; the cache must absorb *random* re-reads, which is
            exactly why page-granular caching matters here).
        prefetch: overlap each step's I/O with the previous step's compute.
    """

    batch_size: int = 32
    sample_size: int = 64 * 1024
    step_compute_seconds: float = 0.05
    shuffle: bool = True
    prefetch: bool = True

    def __post_init__(self) -> None:
        if self.batch_size <= 0 or self.sample_size <= 0:
            raise ValueError("batch_size and sample_size must be positive")
        if self.step_compute_seconds <= 0:
            raise ValueError("step_compute_seconds must be positive")


@dataclass(slots=True)
class EpochStats:
    """Outcome of one epoch."""

    epoch: int
    steps: int = 0
    io_seconds: float = 0.0
    stall_seconds: float = 0.0
    compute_seconds: float = 0.0
    bytes_read: int = 0
    cache_hit_ratio: float = 0.0

    @property
    def wall_seconds(self) -> float:
        return self.compute_seconds + self.stall_seconds

    @property
    def gpu_utilization(self) -> float:
        wall = self.wall_seconds
        return self.compute_seconds / wall if wall else 0.0


class TrainingLoop:
    """Runs epochs of batched reads through the cached filesystem."""

    def __init__(
        self,
        filesystem: CachedFileSystem,
        dataset_paths: list[str],
        config: TrainingConfig | None = None,
        *,
        rng: RngStream | None = None,
    ) -> None:
        if not dataset_paths:
            raise ValueError("dataset_paths must be non-empty")
        self.filesystem = filesystem
        self.dataset_paths = list(dataset_paths)
        self.config = config if config is not None else TrainingConfig()
        self._rng = rng if rng is not None else RngStream(0, "training")
        self.history: list[EpochStats] = []
        # (path, offset) sample index across the whole dataset
        self._samples: list[tuple[str, int]] = []
        for path in self.dataset_paths:
            size = filesystem.stat(path).size
            for offset in range(0, size - self.config.sample_size + 1,
                                self.config.sample_size):
                self._samples.append((path, offset))
        if not self._samples:
            raise ValueError(
                "dataset files are smaller than one sample; nothing to train on"
            )

    @property
    def samples_per_epoch(self) -> int:
        return len(self._samples)

    def run_epoch(self) -> EpochStats:
        """One pass over the dataset; returns the epoch's stats."""
        config = self.config
        epoch_number = len(self.history) + 1
        stats = EpochStats(epoch=epoch_number)
        order = list(range(len(self._samples)))
        if config.shuffle:
            self._rng.child(f"epoch{epoch_number}").rng.shuffle(order)

        hits_before = self.filesystem.cache.metrics.counter("get_hits").value
        misses_before = self.filesystem.cache.metrics.counter("get_misses").value

        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            io_time = 0.0
            for index in batch:
                path, offset = self._samples[index]
                result = self.filesystem._read(path, offset, config.sample_size)
                io_time += result.latency
                stats.bytes_read += len(result.data)
            stats.steps += 1
            stats.io_seconds += io_time
            stats.compute_seconds += config.step_compute_seconds
            if config.prefetch:
                # pipelined loader: I/O stalls only beyond the previous
                # step's compute window
                stats.stall_seconds += max(
                    io_time - config.step_compute_seconds, 0.0
                )
            else:
                stats.stall_seconds += io_time

        hits = self.filesystem.cache.metrics.counter("get_hits").value - hits_before
        misses = (
            self.filesystem.cache.metrics.counter("get_misses").value
            - misses_before
        )
        total = hits + misses
        stats.cache_hit_ratio = hits / total if total else 0.0
        self.history.append(stats)
        return stats

    def run(self, epochs: int) -> list[EpochStats]:
        return [self.run_epoch() for __ in range(epochs)]
