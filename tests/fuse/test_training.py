"""Tests for the training-loop simulator (the ML use case of Figure 6)."""

import pytest

from repro.core import CacheConfig, LocalCacheManager
from repro.fuse import CachedFileSystem, TrainingConfig, TrainingLoop
from repro.ports.rng import RngStream
from repro.storage.remote import NullDataSource

KIB = 1024


def make_loop(cache_capacity=4 << 20, sample_size=4 * KIB, shards=4,
              shard_size=128 * KIB, **config_kwargs):
    source = NullDataSource(base_latency=0.02, bandwidth=200e6)
    paths = []
    for n in range(shards):
        path = f"dataset/shard-{n}"
        source.add_file(path, shard_size)
        paths.append(path)
    cache = LocalCacheManager(CacheConfig.small(cache_capacity, page_size=16 * KIB))
    fs = CachedFileSystem(cache, source)
    config = TrainingConfig(sample_size=sample_size, **config_kwargs)
    return TrainingLoop(fs, paths, config, rng=RngStream(1, "t"))


class TestConfig:
    @pytest.mark.parametrize("kwargs", [
        {"batch_size": 0},
        {"sample_size": 0},
        {"step_compute_seconds": 0.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TrainingConfig(**kwargs)

    def test_empty_dataset_rejected(self):
        source = NullDataSource()
        cache = LocalCacheManager(CacheConfig.small(1 << 20, page_size=4 * KIB))
        fs = CachedFileSystem(cache, source)
        with pytest.raises(ValueError):
            TrainingLoop(fs, [], TrainingConfig())

    def test_undersized_files_rejected(self):
        source = NullDataSource()
        source.add_file("tiny", 10)
        cache = LocalCacheManager(CacheConfig.small(1 << 20, page_size=4 * KIB))
        fs = CachedFileSystem(cache, source)
        with pytest.raises(ValueError):
            TrainingLoop(fs, ["tiny"], TrainingConfig(sample_size=4 * KIB))


class TestEpochs:
    def test_samples_per_epoch(self):
        loop = make_loop(shards=2, shard_size=64 * KIB, sample_size=4 * KIB)
        assert loop.samples_per_epoch == 2 * 16

    def test_epoch_reads_whole_dataset(self):
        loop = make_loop()
        stats = loop.run_epoch()
        assert stats.bytes_read == loop.samples_per_epoch * 4 * KIB
        assert stats.steps == -(-loop.samples_per_epoch // 32)

    def test_later_epochs_have_higher_gpu_utilization(self):
        """The paper's ML claim: caching improves GPU utilization."""
        loop = make_loop()
        first, second, third = loop.run(3)
        # the first epoch misses on every first-touch page (intra-page
        # locality still gives it some request-level hits)
        assert first.cache_hit_ratio < 0.85
        assert second.cache_hit_ratio > 0.95
        assert second.cache_hit_ratio > first.cache_hit_ratio
        assert second.gpu_utilization > first.gpu_utilization
        assert third.gpu_utilization >= second.gpu_utilization - 0.02
        assert second.wall_seconds < first.wall_seconds

    def test_shuffled_epochs_still_hit(self):
        """Random re-read order across epochs: the page cache still serves
        it (sequential-only caching would not)."""
        loop = make_loop(shuffle=True)
        loop.run_epoch()
        warm = loop.run_epoch()
        assert warm.cache_hit_ratio > 0.9

    def test_no_prefetch_stalls_fully(self):
        pipelined = make_loop(prefetch=True).run_epoch()
        blocking = make_loop(prefetch=False).run_epoch()
        assert blocking.stall_seconds > pipelined.stall_seconds
        assert blocking.gpu_utilization < pipelined.gpu_utilization

    def test_history_recorded(self):
        loop = make_loop()
        loop.run(2)
        assert [s.epoch for s in loop.history] == [1, 2]

    def test_small_cache_keeps_first_and_warm_distinct(self):
        """A cache far smaller than the dataset still helps, just less."""
        big = make_loop(cache_capacity=4 << 20)
        small = make_loop(cache_capacity=64 * KIB)
        big.run(2)
        small.run(2)
        assert small.history[1].cache_hit_ratio < big.history[1].cache_hit_ratio
