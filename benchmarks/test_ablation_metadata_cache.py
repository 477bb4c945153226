"""Sections 6.1.1 / 7 ablation: file-metadata caching.

"Parsing complex column-oriented data files can consume as much as 30% of
CPU resources ... caching deserialized metadata objects can reduce CPU
usage by up to 40%."

We run the same parse-heavy split stream through workers with and without
the metadata cache and compare CPU time; the parse share of the baseline's
CPU and the with-cache CPU reduction must land near the paper's numbers.
"""

import pytest

from harness import emit_report, pct
from repro.analysis import Table, reduction
from repro.presto.metadata_cache import MetadataCache
from repro.presto.operators import (
    INPUT_HANDLING_FIXED,
    INPUT_HANDLING_PER_MB,
    METADATA_PARSE_COST,
    ScanFilterProjectOperator,
    ScanProfile,
)
from repro.presto.split import Split
from repro.ports.rng import RngStream
from repro.storage.remote import NullDataSource
from repro.workload.zipf import ZipfSampler

KIB = 1024
MIB = 1024 * KIB
N_FILES = 200
FILE_SIZE = 2 * MIB
N_SPLITS = 5_000


def run_one(with_metadata_cache: bool) -> tuple[float, float]:
    source = NullDataSource(base_latency=0.004)
    for f in range(N_FILES):
        source.add_file(f"wh/t/part-{f}", FILE_SIZE)
    metadata_cache = MetadataCache() if with_metadata_cache else None
    operator = ScanFilterProjectOperator(None, metadata_cache, source)
    sampler = ZipfSampler(
        N_FILES, 1.1, RngStream(17, f"metadata/{with_metadata_cache}")
    )
    profile = ScanProfile(columns_read=3, row_group_selectivity=0.5)
    total_cpu = 0.0
    parse_cpu = 0.0
    for pick in sampler.sample(N_SPLITS):
        split = Split(
            file_id=f"wh/t/part-{int(pick)}", offset=0, length=FILE_SIZE,
            schema="wh", table="t", partition="p",
            n_columns=16, n_row_groups=8,
        )
        result = operator.execute(split, profile)
        # scan-side CPU = footer parsing + filter/project + per-chunk
        # decode/handling (the handling model charges input_wall, but the
        # work is CPU -- decompression and decoding in the reader)
        decode_cpu = (
            result.requests * INPUT_HANDLING_FIXED
            + (result.bytes_scanned / MIB) * INPUT_HANDLING_PER_MB
        )
        total_cpu += result.cpu_time + decode_cpu
    if metadata_cache is not None:
        parse_cpu = metadata_cache.misses * METADATA_PARSE_COST
    else:
        parse_cpu = N_SPLITS * METADATA_PARSE_COST
    return total_cpu, parse_cpu


def run_experiment():
    without_cpu, without_parse = run_one(with_metadata_cache=False)
    with_cpu, __ = run_one(with_metadata_cache=True)
    return without_cpu, without_parse, with_cpu


@pytest.mark.benchmark(group="ablation_metadata_cache")
def test_ablation_metadata_cache(benchmark):
    without_cpu, without_parse, with_cpu = benchmark.pedantic(
        run_experiment, rounds=1, iterations=1
    )

    parse_share = without_parse / without_cpu
    cpu_cut = reduction(without_cpu, with_cpu)
    table = Table(
        ["metric", "measured", "paper"],
        title="Sections 6.1.1/7 -- metadata caching vs CPU time",
    )
    table.add_row(["parse share of CPU (no metadata cache)",
                   pct(parse_share), "up to ~30%"])
    table.add_row(["CPU reduction with metadata cache",
                   pct(cpu_cut), "up to ~40%"])
    table.add_row(["CPU without cache (s)", f"{without_cpu:.1f}", "-"])
    table.add_row(["CPU with cache (s)", f"{with_cpu:.1f}", "-"])
    emit_report("ablation_metadata_cache", table.render())

    # metadata parsing is a large slice of scan-side CPU...
    assert 0.15 <= parse_share <= 0.45
    # ...and caching deserialized objects removes most of it
    assert 0.10 <= cpu_cut <= 0.45
    assert with_cpu < without_cpu
