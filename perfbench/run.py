"""perfbench: one benchmark for the socket path, the embedded core and the
simulator.

    python3 perfbench/run.py --seed 42                  every workload, untraced
    python3 perfbench/run.py --seed 42 --trace          ... plus the traced pass
    python3 perfbench/run.py --check-repeat             two sets, compared
    python3 perfbench/run.py --workload svc_hot --seed 42 --seconds 10 --trace 0

Prints every metric as ``workload metric value unit``; with ``--workload``
the last line of standard output is the JSON object BENCHMARK.json's
contract asks for.  Exits non-zero if any output failed verification.
See README.md in this directory.
"""

from __future__ import annotations

import sys
import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing")
for _path in (ROOT, ROOT / "src"):
    sys.path.insert(0, str(_path))

from perfbench import fixtures, report, runners, workloads  # noqa: E402

IMPORT_S = time.perf_counter() - _PROCESS_START

DEFAULT_SEED = 42
HOLDOUT_SEED = 7
"""Not used while a change is written; a claim must also hold here."""
SETUP_REPS = 3
TRACE_SEGMENTS = 2


def _lines(workload: str, values: dict[str, float], units: dict[str, str],
           notes: dict[str, str] | None = None) -> None:
    for name, value in values.items():
        note = f"   # {notes[name]}" if notes and name in notes else ""
        print(f"{workload} {name} {value:.6g} {units[name]}{note}")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    """The contract run: one workload, one JSON result line."""
    spec = workloads.SPECS[name]
    server_cpu = fixtures.pin_generator()
    if not trace:
        result = runners.run_pass(
            spec, seed, seconds=seconds, setup_reps=SETUP_REPS,
            server_cpu=server_cpu,
        )
        spreads = report.end_to_end(result, IMPORT_S)
        values = {metric: spread.quartile for metric, spread in spreads.items()}
        notes = {
            metric: f"best {spread.best:.6g} median {spread.median:.6g} "
            f"worst {spread.worst:.6g} of {spread.n} segments"
            for metric, spread in spreads.items() if spread.n > 1
        }
        notes["lat_p99_ms"] = "; ".join(
            filter(None, [notes.get("lat_p99_ms"), report.percentile_note(result)])
        )
        _lines(name, values, report.END_TO_END, notes)
        units, passes, problems = report.END_TO_END, [result], list(result.problems)
    else:
        plain = runners.run_pass(
            spec, seed, segments=TRACE_SEGMENTS, server_cpu=server_cpu
        )
        traced = runners.run_pass(
            spec, seed, traced=True, segments=TRACE_SEGMENTS, server_cpu=server_cpu
        )
        values = report.per_layer(spec, plain, traced)
        _lines(name, values, report.PER_LAYER)
        units, passes = report.PER_LAYER, [plain, traced]
        problems = (
            plain.problems + traced.problems
            + report.count_mismatches(spec, plain, traced)
        )
    for extra, value in passes[0].extras.items():
        print(f"{name} rig.{extra} {value:g}")
    for problem in problems:
        print(f"{name} PROBLEM {problem}")
    attempted = sum(seg.ops for run in passes for seg in run.segments)
    failed = sum(seg.failed for run in passes for seg in run.segments)
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": value, "unit": units[metric]}
            for metric, value in values.items()
        },
    }))
    return 0 if correct else 1


# ------------------------------------------------------------ all workloads


def _child(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One workload in a process of its own, exactly as the driver runs it
    (peak RSS and CPU are per process, so workloads must not share one)."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
    )
    *printed, last = done.stdout.rstrip("\n").split("\n")
    print("\n".join(printed), flush=True)
    if done.returncode != 0:
        raise SystemExit(f"perfbench: {name} failed (exit code {done.returncode})")
    return json.loads(last)


def run_set(seed: int, seconds: float, trace: bool) -> dict[str, dict[str, float]]:
    results = {}
    for name in workloads.SPECS:
        outcome = _child(name, seed, seconds, trace=False)
        results[name] = {m: row["value"] for m, row in outcome["metrics"].items()}
        if trace:
            layers = _child(name, seed, seconds, trace=True)["metrics"]
            _predictions(name, {m: row["value"] for m, row in layers.items()},
                         results[name])
    return results


def _predictions(name: str, layer: dict[str, float], e2e: dict[str, float]) -> None:
    """The cross-workload claims of README.md, checked against this run."""
    def say(claim: str, holds: bool) -> None:
        print(f"{name} PREDICTION {'holds' if holds else 'FAILS'}: {claim}")

    service_us = layer["server.request_us"] + layer["protocol.decode_request_us"] \
        + layer["protocol.encode_response_us"]
    engine_side = {
        key: layer[key] for key in (
            "engine.get_us", "metastore.us_per_op", "eviction.us_per_op",
            "pagestore.get_us", "pagestore.put_us", "pagestore.delete_us",
        )
    }
    if name == "svc_hot":
        engine_us = layer["server.request_us"] - layer["server.executor_hop_us"]
        share = 1.0 - engine_us / service_us
        say(f"protocol + server are {share:.0%} (>= 80 %) of server time per "
            f"request; engine.get / server.request = "
            f"{engine_us / layer['server.request_us']:.1%}", share >= 0.8)
        say(f"pagestore is {layer['pagestore.get_us'] / service_us:.1%} (< 5 %)",
            layer["pagestore.get_us"] / service_us < 0.05)
    if name == "svc_miss":
        bound = workloads.EXECUTOR_WORKERS / workloads.SPECS[name].sleep_s
        say(f"throughput {e2e['throughput_ops_s']:.0f}/s is below the "
            f"8 threads / 2 ms bound over the miss share "
            f"({bound / (1.0 - layer['engine.hit_ratio']):.0f}/s)",
            e2e["throughput_ops_s"] < bound / (1.0 - layer["engine.hit_ratio"]))
    if name == "svc_rw":
        largest = max(engine_side, key=engine_side.get)
        say(f"the largest engine-side span is {largest}",
            largest.startswith("pagestore."))
    if name in ("embed_zipf", "sim_tpcds"):
        say("protocol.* and server.* are 0", service_us == 0.0)
    if name == "embed_zipf":
        say(f"layer self times sum to {layer['trace.covered_pct']:.1f} % "
            "(within 10 %) of the traced wall time",
            abs(layer["trace.covered_pct"] - 100.0) <= 10.0)


def check_repeat(seed: int, seconds: float) -> int:
    """Two full untraced sets back to back; every workload x end-to-end
    metric must agree within its bound."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    first, second = run_set(seed, seconds, False), run_set(seed, seconds, False)
    worst = 0
    for name in workloads.SPECS:
        for metric in spec["end_to_end"]:
            a, b = first[name][metric["name"]], second[name][metric["name"]]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            gap = sign * (b - a) / a
            verdict = "ok" if abs(gap) <= metric["bound"] else "EXCEEDS"
            worst |= verdict != "ok"
            print(f"{name} {metric['name']} first {a:.6g} second {b:.6g} "
                  f"gap {gap:+.2%} bound {metric['bound']:.0%} {verdict}")
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(workloads.SPECS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="time budget of the untraced pass's timed phase")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--check-repeat", action="store_true")
    args = parser.parse_args(argv)
    if args.workload:
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.check_repeat:
        return check_repeat(args.seed, args.seconds)
    run_set(args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
