"""From passes to metrics: the seven end-to-end numbers of an untraced
pass, and the per-layer numbers of a traced pass beside its untraced twin.

Names and units here are the ones ``BENCHMARK.json`` declares
(``perfbench/tests`` holds the two together).
"""

from __future__ import annotations

import statistics

from perfbench import stats
from perfbench.runners import PassResult, Segment
from perfbench.workloads import MIB, Spec

END_TO_END = {
    "throughput_ops_s": "1/s",
    "lat_p50_ms": "ms",
    "lat_p99_ms": "ms",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MiB",
    "ok_frac": "frac",
    "setup_s": "s",
}

PER_LAYER = {
    "client.cpu_us_per_op": "us",
    "client.request_us": "us",
    "protocol.encode_request_us": "us",
    "protocol.decode_request_us": "us",
    "protocol.encode_response_us": "us",
    "protocol.decode_response_us": "us",
    "protocol.wire_bytes_per_op": "bytes",
    "server.request_us": "us",
    "server.executor_hop_us": "us",
    "server.unattributed_us": "us",
    "server.served": "count",
    "server.rejected": "count",
    "server.drain_clean": "count",
    "engine.get_us": "us",
    "engine.put_us": "us",
    "engine.evict_us": "us",
    "engine.hit_ratio": "frac",
    "engine.get_hits": "count",
    "engine.get_misses": "count",
    "engine.puts": "count",
    "engine.evictions": "count",
    "engine.put_rejected": "count",
    "engine.errors": "count",
    "metastore.us_per_op": "us",
    "metastore.calls_per_op": "count",
    "eviction.us_per_op": "us",
    "eviction.victims": "count",
    "pagestore.get_us": "us",
    "pagestore.put_us": "us",
    "pagestore.delete_us": "us",
    "pagestore.write_amp": "frac",
    "pagestore.bytes_used_mb": "MiB",
    "source.read_us": "us",
    "source.reads": "count",
    "source.mb": "MiB",
    "kernel.events": "count",
    "kernel.virtual_s": "s",
    "kernel.events_per_s": "1/s",
    "kernel.process_resumes": "count",
    "kernel.heap_pushes": "count",
    "kernel.ready_pushes": "count",
    "kernel.timer_cancels": "count",
    "kernel.other_us_per_event": "us",
    "presto.operator_us": "us",
    "presto.scheduler_us": "us",
    "presto.splits": "count",
    "presto.hit_ratio": "frac",
    "host.spin_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.covered_pct": "%",
}


def _throughputs(result: PassResult) -> list[float]:
    return [(seg.ops - seg.failed) / seg.wall_s for seg in result.segments]


def _latency_segments(result: PassResult) -> list[list[float]]:
    # sim_tpcds reports its (identical) simulated latencies once, not per round
    return [seg.latencies_s for seg in result.segments if seg.latencies_s]


def end_to_end(result: PassResult, import_s: float) -> dict[str, stats.Spread]:
    """Each timing over the pass's segments; ``Spread.quartile`` is the
    reported value (see ``stats.summarize``).  Every socket and embedded
    segment holds at least 1 000 ops, so its p99 has ten samples beyond it."""
    latencies = _latency_segments(result)
    attempted = sum(seg.ops for seg in result.segments)
    failed = sum(seg.failed for seg in result.segments)

    def constant(value: float) -> stats.Spread:
        return stats.Spread(value, value, value, value, 1)

    return {
        "throughput_ops_s": stats.summarize(_throughputs(result), better="higher"),
        "lat_p50_ms": stats.summarize(
            [stats.percentile(seg, 50.0)[0] * 1e3 for seg in latencies],
            better="lower",
        ),
        "lat_p99_ms": stats.summarize(
            [stats.percentile(seg, 99.0)[0] * 1e3 for seg in latencies],
            better="lower",
        ),
        "cpu_ms_per_op": stats.summarize(
            [seg.program_cpu_s / seg.ops * 1e3 for seg in result.segments],
            better="lower",
        ),
        "peak_rss_mb": constant(result.peak_rss_mb),
        "ok_frac": constant((attempted - failed) / attempted),
        # imports are paid once per process; the repeatable part of set-up
        # is repeated and its median taken
        "setup_s": constant(import_s + statistics.median(result.setups_s)),
    }


def percentile_note(result: PassResult) -> str:
    """Sample count and the percentile actually supported, for the printout."""
    smallest = min(len(seg) for seg in _latency_segments(result))
    return (
        f"{smallest} samples per segment; "
        f"lat_p99_ms is p{stats.supported_quantile(smallest, 99.0):.1f}"
    )


# ---------------------------------------------------------------- per layer


def _sum(segments: list[Segment], key: str) -> float:
    return sum(seg.counters.get(key, 0.0) for seg in segments)


def _mean_self_us(spans: dict[str, dict[str, int]], key: str) -> float:
    row = spans.get(key)
    return row["self_ns"] / row["count"] / 1e3 if row and row["count"] else 0.0


def _layer_total(spans: dict[str, dict[str, int]], layer: str, field: str) -> float:
    return sum(
        row[field] for key, row in spans.items()
        if key.startswith(layer + ".") and not key.endswith("!raised")
    )


def per_layer(spec: Spec, plain: PassResult, traced: PassResult) -> dict[str, float]:
    """``plain`` and ``traced`` ran the same segments.  Counts (C) come from
    ``plain``, span times (T) from ``traced``; layers a workload never
    enters read 0."""
    out = dict.fromkeys(PER_LAYER, 0.0)
    ops = sum(seg.ops for seg in traced.segments)
    server, client = traced.spans, traced.client_spans

    if spec.kind == "svc":
        latency_us = (
            sum(sum(seg.latencies_s) for seg in traced.segments) / ops * 1e6
        )
        request_us = (
            _sum(traced.segments, "request_seconds")
            / _sum(traced.segments, "request_count") * 1e6
        )
        client_codec_us = _layer_total(client, "protocol", "self_ns") / ops / 1e3
        server_codec_us = _layer_total(server, "protocol", "self_ns") / ops / 1e3
        engine_us = _layer_total(server, "engine", "total_ns") / ops / 1e3
        out.update({
            "client.cpu_us_per_op": (
                sum(seg.client_cpu_s for seg in plain.segments)
                / sum(seg.ops for seg in plain.segments) * 1e6
            ),
            "client.request_us": latency_us,
            "protocol.encode_request_us": _mean_self_us(client, "protocol.encode_request"),
            "protocol.decode_response_us": _mean_self_us(client, "protocol.decode_response"),
            "protocol.decode_request_us": _mean_self_us(server, "protocol.decode_request"),
            "protocol.encode_response_us": _mean_self_us(server, "protocol.encode_response"),
            "protocol.wire_bytes_per_op": (
                client["protocol.encode_request"]["nbytes"]
                + client["protocol.decode_response"]["nbytes"]
            ) / ops,
            "server.request_us": request_us,
            "server.executor_hop_us": request_us - engine_us,
            # what no span covers: sockets, the event loops, GIL hand-offs.
            # By construction the four terms sum to the mean client latency.
            "server.unattributed_us": (
                latency_us - client_codec_us - server_codec_us - request_us
            ),
            "server.served": float(plain.server["drain"]["served"]),
            "server.rejected": float(plain.server["drain"]["rejected"]),
            "server.drain_clean": float(plain.server["drain"]["clean"]),
        })

    if spec.kind in ("svc", "embed"):
        hits, misses = _sum(plain.segments, "get_hits"), _sum(plain.segments, "get_misses")
        cached = plain.server["cached_bytes"]
        out.update({
            "engine.get_us": _mean_self_us(server, "engine.get"),
            "engine.put_us": _mean_self_us(server, "engine.put"),
            "engine.evict_us": _mean_self_us(server, "engine.evict"),
            "engine.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "engine.get_hits": hits,
            "engine.get_misses": misses,
            "engine.puts": _sum(plain.segments, "puts"),
            "engine.evictions": _sum(plain.segments, "evictions"),
            "engine.put_rejected": sum(
                _sum(plain.segments, f"put_rejected_{why}")
                for why in ("admission", "quota", "space")
            ),
            "engine.errors": _sum(plain.segments, "errors"),
            "metastore.us_per_op": _layer_total(server, "metastore", "self_ns") / ops / 1e3,
            "metastore.calls_per_op": _layer_total(server, "metastore", "count") / ops,
            "eviction.us_per_op": _layer_total(server, "eviction", "self_ns") / ops / 1e3,
            "eviction.victims": float(server.get("eviction.victim", {}).get("count", 0)),
            "pagestore.get_us": _mean_self_us(server, "pagestore.get"),
            "pagestore.put_us": _mean_self_us(server, "pagestore.put"),
            "pagestore.delete_us": _mean_self_us(server, "pagestore.delete"),
            "pagestore.write_amp": plain.server["stored_bytes"] / cached if cached else 0.0,
            "pagestore.bytes_used_mb": plain.server["stored_bytes"] / MIB,
            "source.read_us": _mean_self_us(server, "source.read"),
            "source.reads": float(plain.server["source_reads"]),
            "source.mb": plain.server["source_bytes"] / MIB,
        })

    if spec.kind == "sim":
        one, profiled = plain.segments[0].counters, traced.segments[0].counters
        events = sum(seg.counters["events"] for seg in traced.segments)
        wall_ns = sum(seg.wall_s for seg in traced.segments) * 1e9
        out.update({
            "kernel.events": one["events"],
            "kernel.virtual_s": one["virtual_s"],
            "kernel.events_per_s": one["events"] / min(
                seg.wall_s for seg in plain.segments
            ),
            "kernel.process_resumes": profiled["process_resumes"],
            "kernel.heap_pushes": profiled["heap_pushes"],
            "kernel.ready_pushes": profiled["ready_pushes"],
            "kernel.timer_cancels": profiled["timer_cancels"],
            "kernel.other_us_per_event": (
                wall_ns - _layer_total(server, "presto", "total_ns")
            ) / events / 1e3,
            "presto.operator_us": _mean_self_us(server, "presto.operator"),
            "presto.scheduler_us": _mean_self_us(server, "presto.scheduler"),
            "presto.splits": one["splits"],
            "presto.hit_ratio": one["hit_ratio"],
        })

    # share of the traced time that spans account for: self times over the
    # loop's wall time (embedded), presto spans over the round (simulator),
    # everything but `server.unattributed_us` over the latency (sockets)
    wall_ns = sum(seg.wall_s for seg in traced.segments) * 1e9
    if spec.kind == "svc":
        covered = 1.0 - out["server.unattributed_us"] / out["client.request_us"]
    elif spec.kind == "embed":
        covered = sum(row["self_ns"] for row in server.values()) / wall_ns
    else:
        covered = _layer_total(server, "presto", "total_ns") / wall_ns
    out["trace.covered_pct"] = covered * 100.0

    plain_best, traced_best = max(_throughputs(plain)), max(_throughputs(traced))
    out["host.spin_ms"] = min(plain.spin_ms, traced.spin_ms)
    out["trace.overhead_pct"] = (plain_best - traced_best) / plain_best * 100.0
    return out


CACHE_COUNTS = ("get_hits", "get_misses", "puts", "evictions")
SIM_COUNTS = ("events", "virtual_s", "splits")


def count_mismatches(spec: Spec, plain: PassResult, traced: PassResult) -> list[str]:
    """Tracing must not change what the program does: per segment, every
    count agrees exactly on the single-lane workloads, and within 1 % of the
    segment's ops on the pipelined ones (where arrival order is a race)."""
    slack = 0.01 * spec.segment_ops if spec.kind == "svc" else 0.0
    complaints = []
    for index, (a, b) in enumerate(zip(plain.segments, traced.segments)):
        for key in SIM_COUNTS if spec.kind == "sim" else CACHE_COUNTS:
            if abs(a.counters[key] - b.counters[key]) > slack:
                complaints.append(
                    f"segment {index} {key}: untraced {a.counters[key]} "
                    f"vs traced {b.counters[key]}"
                )
    return complaints
