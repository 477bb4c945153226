"""Scheduler profiler: wait-state attribution and event-loop counters.

ROADMAP item 1 wants the kernel an order of magnitude faster; this module
is the instrument panel that makes the hot loop attackable.  A
:class:`KernelProfiler` attached to a :class:`~repro.sim.kernel.Kernel`
records, with zero simulation impact:

- **Wait-state attribution** (virtual time): every process's lifetime is
  split into ``ready`` (spawned/woken but not yet stepped), ``running``
  (inside a resume -- zero virtual width by construction, accounted so the
  split telescopes), ``blocked`` (waiting on a resource slot, an event, a
  channel, or another process), and ``sleeping`` (waiting on a
  ``Timeout``/``Timer``).  States are charged per process *and* rolled up
  per process type, with a detail frame (the resource/event name) for
  flamegraphs.  The split is exact: the per-state segments of one process
  telescope to its reported lifetime.
- **Event-loop counters**: events popped, cancelled-handle reaps, timer
  inserts/cancels, resume scheduling, and the high-water marks of both
  scheduler lanes (the timer heap and the same-instant ready deque).
- **Host-CPU cost** per process type per resume, read through the
  sanctioned :mod:`repro.sim.hostclock` API.  Host fields live in their
  own report (:meth:`KernelProfile.host_report`) so the virtual report
  stays byte-identical across same-seed runs -- the determinism harness
  compares only the virtual side.

The default profiler is :data:`NOOP_PROFILER`; the kernel guards every
hook behind a single ``enabled`` flag read, so an unprofiled run pays one
attribute check per scheduler operation and allocates nothing.
"""

from __future__ import annotations

import json
import re
from typing import Any

# wait states (stable strings: they appear in reports and folded stacks)
READY = "ready"
RUNNING = "running"
BLOCKED = "blocked"
SLEEPING = "sleeping"
WAIT_STATES = (READY, RUNNING, BLOCKED, SLEEPING)

#: distinct wait-detail frames retained per (ptype, state); further
#: details fold into "other" so pathological name cardinality stays bounded
DETAIL_CAP = 64

_TRAILING_ID = re.compile(r"[-_/]?\d+$")


def process_type(name: str) -> str:
    """Collapse a process name to its type: ``block-read/17`` -> ``block-read``.

    Trailing numeric ids (``worker-3``, ``q00042``, ``proc-9``) are the
    per-instance part; stripping them keeps profile cardinality bounded by
    the number of process *kinds* in the scenario, not the request count.
    """
    stripped = _TRAILING_ID.sub("", name)
    return stripped if stripped else name


class NoopKernelProfiler:
    """Profiling disabled: the kernel skips every hook on ``enabled``."""

    __slots__ = ()

    enabled = False


NOOP_PROFILER = NoopKernelProfiler()


class _ProcRecord:
    """Per-process state machine: current wait state plus exact segments."""

    __slots__ = ("pid", "name", "ptype", "birth", "end", "state", "since",
                 "states", "resumes", "detail")

    def __init__(self, pid: int, name: str, birth: float) -> None:
        self.pid = pid
        self.name = name
        self.ptype = process_type(name)
        self.birth = birth
        self.end: float | None = None
        self.state = READY
        self.since = birth
        self.states = {READY: 0.0, RUNNING: 0.0, BLOCKED: 0.0, SLEEPING: 0.0}
        self.resumes = 0
        # name of what the process is currently waiting on (None for
        # ready/running); charged into the per-ptype detail roll-up
        self.detail: str | None = None


class KernelProfile:
    """The collected measurements; build reports after (or mid-) run.

    Virtual-time data (wait states, event counters) and host-time data
    (CPU per resume) are deliberately segregated: ``virtual_report()`` is
    byte-identical across same-seed runs, ``host_report()`` is not and
    must never be folded into a determinism-checked artifact.
    """

    def __init__(self) -> None:
        # -- virtual side ----------------------------------------------------
        self.procs: dict[int, _ProcRecord] = {}
        self.events_popped = 0
        self.events_reaped = 0          # popped with a cancelled handle
        self.timer_inserts = 0
        self.timer_cancels = 0
        self.resume_schedules = 0       # wakeups pushed by the process driver
        self.heap_high_water = 0        # timer lane (the heap proper)
        self.ready_high_water = 0       # same-instant resume lane (deque)
        self.spawns = 0
        self.completions = 0
        self.cancellations = 0
        # (ptype, state, detail) -> virtual seconds, detail "" for none
        self._detail: dict[tuple[str, str, str], float] = {}
        # -- host side -------------------------------------------------------
        self.host_cpu: dict[str, float] = {}      # ptype -> CPU seconds
        self.host_resumes: dict[str, int] = {}    # ptype -> resume count

    # -- accounting (driven by KernelProfiler) ------------------------------

    def _charge(self, rec: _ProcRecord, now: float, new_state: str,
                detail: str | None) -> None:
        elapsed = now - rec.since
        rec.states[rec.state] += elapsed
        key = (rec.ptype, rec.state, rec.detail or "")
        if key in self._detail:
            self._detail[key] += elapsed
        else:
            per_state = sum(
                1 for (pt, st, __) in self._detail
                if pt == rec.ptype and st == rec.state
            )
            if per_state >= DETAIL_CAP:
                key = (rec.ptype, rec.state, "other")
            self._detail[key] = self._detail.get(key, 0.0) + elapsed
        rec.state = new_state
        rec.since = now
        rec.detail = detail

    def finalize(self, now: float) -> None:
        """Close every still-open state at ``now`` (idempotent at one time)."""
        for rec in self.procs.values():
            if rec.end is None:
                self._charge(rec, now, rec.state, rec.detail)

    # -- virtual report ------------------------------------------------------

    def wait_states(self) -> dict[str, dict[str, float]]:
        """``{ptype: {state: virtual_seconds}}`` over all processes."""
        rollup: dict[str, dict[str, float]] = {}
        for rec in self.procs.values():
            per = rollup.setdefault(
                rec.ptype, {s: 0.0 for s in WAIT_STATES}
            )
            for state, seconds in rec.states.items():
                per[state] += seconds
        return rollup

    def per_process(self) -> list[dict[str, Any]]:
        """One row per process: exact state split plus telescoped lifetime.

        ``lifetime`` is the sum of the state segments, so
        ``ready + running + blocked + sleeping == lifetime`` holds exactly
        (same floats, same order); it also equals ``end - birth`` up to
        float addition error, which the tests pin at 1e-9.
        """
        rows = []
        for pid in sorted(self.procs):
            rec = self.procs[pid]
            rows.append({
                "pid": rec.pid,
                "name": rec.name,
                "ptype": rec.ptype,
                "birth": rec.birth,
                "end": rec.end,
                "resumes": rec.resumes,
                "states": dict(rec.states),
                "lifetime": (
                    rec.states[READY] + rec.states[RUNNING]
                    + rec.states[BLOCKED] + rec.states[SLEEPING]
                ),
            })
        return rows

    def counters(self) -> dict[str, int]:
        return {
            "events_popped": self.events_popped,
            "events_reaped": self.events_reaped,
            "timer_inserts": self.timer_inserts,
            "timer_cancels": self.timer_cancels,
            "resume_schedules": self.resume_schedules,
            "heap_high_water": self.heap_high_water,
            "ready_high_water": self.ready_high_water,
            "spawns": self.spawns,
            "completions": self.completions,
            "cancellations": self.cancellations,
        }

    def virtual_report(self, *, include_processes: bool = True) -> dict[str, Any]:
        """Everything deterministic: wait states, details, counters.

        ``include_processes=False`` drops the per-process rows -- for
        scenarios spawning one process per request, the rollups carry
        the signal at a tiny fraction of the size.
        """
        details = {
            f"{ptype};{state};{detail}" if detail else f"{ptype};{state}":
                round(seconds, 9)
            for (ptype, state, detail), seconds in sorted(self._detail.items())
        }
        report: dict[str, Any] = {
            "counters": self.counters(),
            "wait_states": {
                ptype: {s: round(v, 9) for s, v in states.items()}
                for ptype, states in sorted(self.wait_states().items())
            },
            "wait_details": details,
        }
        if include_processes:
            report["processes"] = [
                {
                    **row,
                    "states": {
                        s: round(v, 9) for s, v in row["states"].items()
                    },
                    "lifetime": round(row["lifetime"], 9),
                }
                for row in self.per_process()
            ]
        return report

    # -- host report (NEVER determinism-checked) ----------------------------

    def host_report(self) -> dict[str, Any]:
        """Host-CPU cost per process type; segregated from the virtual side."""
        rows = {}
        for ptype in sorted(self.host_cpu):
            resumes = self.host_resumes.get(ptype, 0)
            cpu = self.host_cpu[ptype]
            rows[ptype] = {
                "resumes": resumes,
                "cpu_seconds": cpu,
                "cpu_us_per_resume": (1e6 * cpu / resumes) if resumes else 0.0,
            }
        return {"per_ptype": rows}

    # -- exports -------------------------------------------------------------

    def folded_wait_states(self) -> str:
        """Folded-stack lines (``flamegraph.pl`` / speedscope input).

        One line per ``ptype;state[;detail]`` with integer virtual
        microseconds -- deterministic, so the folded file itself can sit
        behind the determinism harness.
        """
        lines = []
        for (ptype, state, detail), seconds in sorted(self._detail.items()):
            us = int(round(seconds * 1e6))
            if us <= 0:
                continue
            frames = f"{ptype};{state}" + (f";{detail}" if detail else "")
            lines.append(f"{frames} {us}")
        return "\n".join(lines)

    def to_json(self, *, include_host: bool = False,
                include_processes: bool = True, indent: int = 2) -> str:
        """Serialize; host fields only on request, under their own key."""
        doc: dict[str, Any] = {
            "virtual": self.virtual_report(include_processes=include_processes)
        }
        if include_host:
            doc["host"] = self.host_report()
        return json.dumps(doc, indent=indent, sort_keys=True)


class KernelProfiler:
    """The hook surface :class:`~repro.sim.kernel.Kernel` drives.

    Attach with ``kernel.attach_profiler(KernelProfiler(kernel.clock))``
    *before* spawning processes.  All virtual timestamps come from the
    kernel's own clock; host-CPU reads go through
    :func:`repro.sim.hostclock.host_cpu_now` and never influence anything
    virtual, so a profiled run's simulation results are bit-identical to
    an unprofiled run's.
    """

    enabled = True

    def __init__(self, clock: Any) -> None:
        # deferred: sanctioned obs -> sim runtime hook (see the
        # `obs-below-everything` contract); keeps repro.obs importable
        # without pulling in the sim substrate
        from repro.sim import hostclock

        self._hostclock = hostclock
        self.clock = clock
        self.profile = KernelProfile()
        # resume frames: [cpu_start, child_cpu_accum] -- a stack because
        # cancellation steps the victim synchronously inside the
        # canceller's own resume; self-time = total - child time
        self._cpu_frames: list[list[float]] = []

    # -- event-loop hooks ----------------------------------------------------

    def on_heap_push(self, heap_len: int, *, timer: bool) -> None:
        p = self.profile
        if timer:
            p.timer_inserts += 1
        else:
            p.resume_schedules += 1
        if heap_len > p.heap_high_water:
            p.heap_high_water = heap_len

    def on_ready_push(self, ready_len: int) -> None:
        """A same-instant resume entered the kernel's ready lane."""
        p = self.profile
        p.resume_schedules += 1
        if ready_len > p.ready_high_water:
            p.ready_high_water = ready_len

    def on_timer_cancel(self) -> None:
        self.profile.timer_cancels += 1

    def on_event_pop(self, reaped: bool) -> None:
        p = self.profile
        p.events_popped += 1
        if reaped:
            p.events_reaped += 1

    # -- process lifecycle hooks ---------------------------------------------

    def on_spawn(self, process: Any) -> None:
        p = self.profile
        p.spawns += 1
        p.procs[process.pid] = _ProcRecord(
            process.pid, process.name, float(self.clock.now())
        )

    def on_resume_start(self, process: Any) -> None:
        rec = self.profile.procs.get(process.pid)
        if rec is not None:
            rec.resumes += 1
            self.profile._charge(rec, float(self.clock.now()), RUNNING, None)
        self._cpu_frames.append([self._hostclock.host_cpu_now(), 0.0])

    def on_resume_end(self, process: Any) -> None:
        start, child = self._cpu_frames.pop()
        total = self._hostclock.host_cpu_now() - start
        cpu = total - child  # self time: nested cancel steps charged to victim
        if self._cpu_frames:
            self._cpu_frames[-1][1] += total
        rec = self.profile.procs.get(process.pid)
        ptype = rec.ptype if rec is not None else process_type(process.name)
        p = self.profile
        p.host_cpu[ptype] = p.host_cpu.get(ptype, 0.0) + cpu
        p.host_resumes[ptype] = p.host_resumes.get(ptype, 0) + 1

    def on_wait(self, process: Any, state: str, detail: str) -> None:
        """The process suspended into ``state`` (BLOCKED or SLEEPING)."""
        rec = self.profile.procs.get(process.pid)
        if rec is not None:
            self.profile._charge(
                rec, float(self.clock.now()), state, detail or None
            )

    def on_wait_yield(self, process: Any, yielded: Any) -> None:
        """Classify a raw yielded waitable and record the suspension.

        This is the hook the kernel actually calls -- classification lives
        here so :mod:`repro.sim.kernel` never has to import this module.
        """
        state, detail = classify_wait(yielded)
        self.on_wait(process, state, detail)

    def on_runnable(self, process: Any) -> None:
        """The process's wait completed; it is queued to resume."""
        rec = self.profile.procs.get(process.pid)
        if rec is not None and rec.end is None and rec.state != READY:
            self.profile._charge(rec, float(self.clock.now()), READY, None)

    def on_exit(self, process: Any) -> None:
        rec = self.profile.procs.get(process.pid)
        now = float(self.clock.now())
        if rec is not None and rec.end is None:
            self.profile._charge(rec, now, rec.state, None)
            rec.end = now
        if process.cancelled:
            self.profile.cancellations += 1
        else:
            self.profile.completions += 1

    # -- convenience ---------------------------------------------------------

    def finalize(self) -> KernelProfile:
        """Close open states at the current virtual time and return the
        profile (safe to call more than once)."""
        self.profile.finalize(float(self.clock.now()))
        return self.profile


def classify_wait(yielded: Any) -> tuple[str, str]:
    """Map a kernel waitable to ``(state, detail)`` for attribution.

    Timeouts and timers are SLEEPING (the process chose to let time pass);
    resource requests, events, channel gets, process joins, and
    combinators containing any of those are BLOCKED (the process is stuck
    on somebody else's progress).
    """
    # local import: kernel imports this module's hook surface lazily via
    # duck typing, so the only hard edge points obs -> sim
    from repro.sim.kernel import (
        AllOf, AnyOf, Event, Process, Request, Timeout, Timer,
    )

    if isinstance(yielded, Timeout):
        return SLEEPING, ""
    if isinstance(yielded, Timer):
        return SLEEPING, yielded.name
    if isinstance(yielded, Request):
        return BLOCKED, f"resource:{yielded.resource.name}"
    if isinstance(yielded, Process):
        return BLOCKED, f"join:{process_type(yielded.name)}"
    if isinstance(yielded, Event):
        return BLOCKED, f"event:{yielded.name}" if yielded.name else "event"
    if isinstance(yielded, (AnyOf, AllOf)):
        members = [classify_wait(w) for w in yielded.waitables]
        if all(state == SLEEPING for state, __ in members):
            return SLEEPING, "timer-group"
        kind = "any_of" if isinstance(yielded, AnyOf) else "all_of"
        return BLOCKED, kind
    return BLOCKED, ""
