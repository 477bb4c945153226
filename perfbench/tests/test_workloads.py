"""Request sequences, and BENCHMARK.json held against the code."""

import json
from pathlib import Path

from perfbench import report, workloads
from perfbench.workloads import GET, PUT, SPECS

ROOT = Path(__file__).resolve().parents[2]


def test_sequence_is_stable_per_seed():
    spec = SPECS["svc_rw"]
    assert workloads.sequence_hash(workloads.segment_ops(spec, 42, 0)) == "eda7a8988e7c5a7d"
    assert workloads.sequence_hash(workloads.segment_ops(spec, 7, 0)) == "98036e6b357ee32a"


def test_seed_and_segment_both_change_the_sequence():
    spec = SPECS["svc_miss"]
    digests = {
        workloads.sequence_hash(workloads.segment_ops(spec, seed, segment))
        for seed in (42, 7) for segment in (-1, 0, 1)
    }
    assert len(digests) == 6


def test_segments_have_their_fixed_size_and_stay_inside_the_files():
    for spec in SPECS.values():
        if spec.kind == "sim":
            continue
        ops = workloads.segment_ops(spec, 42, 0)
        # 1 000 samples per segment: p99 has ten samples beyond it
        assert len(ops) == spec.segment_ops >= 1000
        assert all(
            op.offset % spec.read_bytes == 0
            and op.offset + spec.read_bytes <= spec.file_bytes
            for op in ops
        )
        if spec.mix[1] == 0:
            # one GET in sixteen is compared byte for byte
            assert sum(op.full_verify for op in ops) == -(-len(ops) // workloads.VERIFY_EVERY)


def test_every_sixteenth_put_is_read_back():
    ops = workloads.segment_ops(SPECS["svc_rw"], 42, 0)
    puts = 0
    for op, following in zip(ops, ops[1:]):
        if op.kind != PUT:
            continue
        puts += 1
        if puts % workloads.VERIFY_EVERY == 0:
            assert following == (GET, op.file_id, op.offset, True)
    assert puts >= 10 * workloads.VERIFY_EVERY
    kinds = [op.kind for op in ops]
    assert 0.65 < kinds.count(GET) / len(ops) < 0.78


def test_benchmark_json_declares_what_the_code_reports():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(SPECS)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == report.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == report.PER_LAYER
    assert declared["paths"] == ["perfbench"]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in declared["workloads"])
