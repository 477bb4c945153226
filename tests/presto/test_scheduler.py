"""Tests for soft-affinity scheduling (Section 6.1.2, Figure 8)."""

import pytest

from repro.presto.hashring import ConsistentHashRing
from repro.presto.scheduler import RandomScheduler, SoftAffinityScheduler
from repro.presto.split import Split
from repro.ports.rng import RngStream


def split_for(file_id: str, offset: int = 0) -> Split:
    return Split(
        file_id=file_id, offset=offset, length=100,
        schema="s", table="t", partition="p",
    )


def make_scheduler(n_workers=4, **kwargs):
    ring = ConsistentHashRing()
    for i in range(n_workers):
        ring.add_node(f"worker-{i}")
    return SoftAffinityScheduler(ring, **kwargs), ring


class TestSoftAffinity:
    def test_same_file_same_worker(self):
        scheduler, __ = make_scheduler()
        load = {f"worker-{i}": 0 for i in range(4)}
        decisions = [
            scheduler.assign(split_for("file-x", offset), load)
            for offset in range(0, 500, 100)
        ]
        assert len({d.worker for d in decisions}) == 1
        assert all(d.affinity and not d.bypass_cache for d in decisions)

    def test_busy_primary_falls_to_secondary(self):
        scheduler, ring = make_scheduler(max_splits_per_node=5)
        load = {f"worker-{i}": 0 for i in range(4)}
        primary, secondary = ring.candidates("file-x", 2)
        load[primary] = 5  # at capacity
        decision = scheduler.assign(split_for("file-x"), load)
        assert decision.worker == secondary
        assert decision.affinity
        assert not decision.bypass_cache

    def test_both_replicas_busy_falls_to_least_loaded_with_bypass(self):
        scheduler, ring = make_scheduler(max_splits_per_node=5)
        load = {f"worker-{i}": 4 for i in range(4)}
        primary, secondary = ring.candidates("file-x", 2)
        load[primary] = 5
        load[secondary] = 5
        others = [w for w in load if w not in (primary, secondary)]
        load[others[0]] = 1
        load[others[1]] = 3
        decision = scheduler.assign(split_for("file-x"), load)
        assert decision.worker == others[0]  # least burdened
        assert not decision.affinity
        assert decision.bypass_cache  # fetch direct from external storage
        assert scheduler.fallback_assignments == 1

    def test_offline_primary_skipped(self):
        scheduler, ring = make_scheduler()
        load = {f"worker-{i}": 0 for i in range(4)}
        primary = ring.primary("file-x")
        ring.mark_offline(primary, now=0.0)
        decision = scheduler.assign(split_for("file-x"), load)
        assert decision.worker != primary

    def test_no_workers_raises(self):
        scheduler, __ = make_scheduler()
        with pytest.raises(ValueError):
            scheduler.assign(split_for("f"), {})

    def test_bad_config(self):
        ring = ConsistentHashRing()
        with pytest.raises(ValueError):
            SoftAffinityScheduler(ring, max_splits_per_node=0)

    def test_counters(self):
        scheduler, __ = make_scheduler()
        load = {f"worker-{i}": 0 for i in range(4)}
        scheduler.assign(split_for("a"), load)
        scheduler.assign(split_for("b"), load)
        assert scheduler.affinity_assignments == 2


class TestRandomScheduler:
    def test_spreads_load(self):
        scheduler = RandomScheduler(RngStream(1, "sched"))
        load = {f"worker-{i}": 0 for i in range(4)}
        picks = {
            scheduler.assign(split_for(f"file-{i}"), load).worker
            for i in range(100)
        }
        assert len(picks) == 4

    def test_never_bypasses(self):
        scheduler = RandomScheduler(RngStream(1, "sched"))
        load = {"worker-0": 0}
        decision = scheduler.assign(split_for("f"), load)
        assert not decision.bypass_cache
        assert not decision.affinity

    def test_same_file_scatters(self):
        """The inefficiency the paper replaced: one file's splits land on
        many workers."""
        scheduler = RandomScheduler(RngStream(1, "sched"))
        load = {f"worker-{i}": 0 for i in range(8)}
        picks = {
            scheduler.assign(split_for("file-x", off), load).worker
            for off in range(0, 4000, 100)
        }
        assert len(picks) > 1

    def test_empty_raises(self):
        scheduler = RandomScheduler(RngStream(1, "sched"))
        with pytest.raises(ValueError):
            scheduler.assign(split_for("f"), {})


class TestSplit:
    def test_scope(self):
        split = split_for("f")
        assert str(split.scope) == "global.s.t.p"
        assert split.qualified_table == "s.t"

    def test_validation(self):
        with pytest.raises(ValueError):
            Split(file_id="f", offset=-1, length=10,
                  schema="s", table="t", partition="p")
        with pytest.raises(ValueError):
            Split(file_id="f", offset=0, length=0,
                  schema="s", table="t", partition="p")

    def test_splits_for_file(self):
        from repro.presto.catalog import DataFile
        from repro.presto.split import splits_for_file

        data_file = DataFile("f", size=250)
        splits = splits_for_file(
            data_file, schema="s", table="t", partition="p", target_split_size=100
        )
        assert [(s.offset, s.length) for s in splits] == [(0, 100), (100, 100), (200, 50)]

    def test_splits_for_file_bad_target(self):
        from repro.presto.catalog import DataFile
        from repro.presto.split import splits_for_file

        with pytest.raises(ValueError):
            splits_for_file(DataFile("f", size=10), schema="s", table="t",
                            partition="p", target_split_size=0)
