"""Benchmark-owned fixtures: the remote the cache reads through, and the
server subprocess the socket workloads talk to.

``PatternSource`` stands in for remote storage.  It is *not*
``SyntheticDataSource``: that one generates bytes with two sha256 calls per
64 bytes (about 1.1 ms per 64 KiB miss), which would turn every miss
workload into a hashlib benchmark.  Here a read is one slice (about 2 us).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import select
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any

from repro.storage.remote import ReadResult

PERFBENCH = Path(__file__).resolve().parent
OUT_DIR = PERFBENCH / "out"
"""Everything a run writes (span dumps, the ``svc_rw`` page-store dir) lands
here, inside the checkout; the root ``.gitignore`` names it."""

PERIOD = 65521
"""File bytes repeat with this period: the largest prime below 64 KiB, so no
two 64 KiB pages of one file hold the same bytes and a page served at the
wrong index fails verification."""


def file_name(index: int) -> str:
    return f"bench/file-{index:05d}"


class PatternSource:
    """A ``DataSource`` with deterministic bytes and an optional real sleep.

    ``content(file)[i] == block(file)[i % PERIOD]`` where ``block`` is
    ``PERIOD`` pseudo-random bytes seeded from ``blake2b(file_id)``.
    """

    def __init__(self, n_files: int, file_bytes: int, *, sleep_s: float = 0.0) -> None:
        self._lengths = {file_name(i): file_bytes for i in range(n_files)}
        self._doubled: dict[str, bytes] = {}
        self.sleep_s = sleep_s
        self.reads = 0
        self.bytes = 0
        # read() runs on the server's executor threads; += is not atomic
        self._count_lock = threading.Lock()

    def file_length(self, file_id: str) -> int:
        try:
            return self._lengths[file_id]
        except KeyError:
            raise FileNotFoundError(file_id) from None

    def expected(self, file_id: str, offset: int, length: int) -> bytes:
        """The bytes a correct read of this range returns (no sleep, no
        counting): what verification compares against."""
        end = min(offset + length, self.file_length(file_id))
        if end <= offset:
            return b""
        doubled = self._doubled.get(file_id)
        if doubled is None:
            seed = hashlib.blake2b(file_id.encode(), digest_size=8).digest()
            block = random.Random(int.from_bytes(seed, "big")).randbytes(PERIOD)
            doubled = self._doubled[file_id] = block + block
        phase = offset % PERIOD
        span = end - offset
        if phase + span <= 2 * PERIOD:
            return doubled[phase : phase + span]
        repeats = (phase + span) // PERIOD + 1
        return (doubled[:PERIOD] * repeats)[phase : phase + span]

    def read(self, file_id: str, offset: int, length: int) -> ReadResult:
        data = self.expected(file_id, offset, length)
        if self.sleep_s > 0:
            time.sleep(self.sleep_s)
        with self._count_lock:
            self.reads += 1
            self.bytes += len(data)
        return ReadResult(data, self.sleep_s)


# ---------------------------------------------------------------- processes


def cpu_seconds(pid: int) -> float:
    """user+sys CPU of a live process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat", "rb") as handle:
        # the command name may hold spaces; fields resume after its ')'
        fields = handle.read().rsplit(b")", 1)[1].split()
    ticks = int(fields[11]) + int(fields[12])  # utime, stime
    return ticks / os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def own_peak_rss_mb() -> float:
    """``ru_maxrss`` of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pin_generator() -> int | None:
    """Pin this process to the last CPU it may use and return the first for
    the server (``None`` with fewer than two).  Unpinned, the server's
    threads wander over both CPUs, fight the generator for them and convoy
    on the GIL: the same code reads 4.3 K or 5.1 K ops/s from run to run."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    os.sched_setaffinity(0, {cpus[-1]})
    return cpus[0]


def make_temp_dir(prefix: str) -> Path:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=OUT_DIR))


class ServerProcess:
    """``server_main.py`` in its own process, so the generator's GIL is not
    in the measurement.

    ``start()`` returns once the server printed ``ready <port>`` (engine
    built, cache warm, socket listening).  ``stop()`` sends SIGTERM, which
    makes the server drain; a crashed server or an unclean drain raises.
    """

    READY_TIMEOUT_S = 120.0
    STOP_TIMEOUT_S = 120.0

    def __init__(
        self, workload: str, seed: int, *, traced: bool, cpu: int | None
    ) -> None:
        self._argv = [
            sys.executable, str(PERFBENCH / "server_main.py"),
            "--workload", workload, "--seed", str(seed),
            "--trace", "1" if traced else "0",
        ]
        if cpu is not None:
            self._argv += ["--cpu", str(cpu)]
        self._proc: subprocess.Popen | None = None
        self.port = 0
        self.ready: dict[str, Any] = {}

    @property
    def pid(self) -> int:
        assert self._proc is not None
        return self._proc.pid

    def start(self) -> None:
        self._proc = subprocess.Popen(
            self._argv, stdout=subprocess.PIPE, text=True, cwd=PERFBENCH.parent
        )
        assert self._proc.stdout is not None
        readable, _, _ = select.select(
            [self._proc.stdout], [], [], self.READY_TIMEOUT_S
        )
        line = self._proc.stdout.readline() if readable else ""
        parts = line.split(maxsplit=2)
        if len(parts) != 3 or parts[0] != "ready":
            self.kill()
            raise RuntimeError(f"cache server did not come up (got {line!r})")
        self.port = int(parts[1])
        self.ready = json.loads(parts[2])

    def stop(self) -> dict[str, Any]:
        """Drain the server; returns its exit summary."""
        assert self._proc is not None
        self._proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self._proc.communicate(timeout=self.STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("cache server did not drain in time") from None
        code = self._proc.returncode
        self._proc = None
        lines = out.strip().splitlines()
        if code != 0 or not lines:
            raise RuntimeError(f"cache server exited with code {code}: {out!r}")
        summary = json.loads(lines[-1])
        if not summary["drain"]["clean"]:
            raise RuntimeError(f"cache server drain was not clean: {summary['drain']}")
        return summary

    def kill(self) -> None:
        """Last resort for error paths: never leave the child behind."""
        if self._proc is not None:
            self._proc.kill()
            self._proc.communicate()
            self._proc = None
