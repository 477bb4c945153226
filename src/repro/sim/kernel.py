"""A process-based discrete-event kernel over :class:`~repro.ports.clock.SimClock`.

The kernel is the one place simulated work *queues*.  The phenomena the
paper's figures and robustness story hinge on -- processes blocking on a
saturated device (Fig 14), a hedged read whose loser is cancelled
mid-flight, a worker pool draining a split queue -- are lived by kernel
processes; outside a process, device and source models return their
service time and record no wait.  The substrate:

- **Processes** are generator coroutines driven by the kernel.  A process
  yields *waitables* (a :class:`Timeout`, an :class:`Event`, a
  :class:`Resource` request, another :class:`Process`, or an
  :func:`any_of`/:func:`all_of` combinator) and is resumed when the wait
  completes.  Virtual time only moves between events.
- **Determinism**: every schedule action (timer insert or same-instant
  resume) consumes one tick of a global monotone ``seq`` counter, and
  events fire in exact ``(time, seq)`` order, so same-timestamp events
  fire in schedule order (FIFO).  Process ids are sequential.  Two runs
  of the same scenario produce the identical event order.
- **Two-lane scheduling**: genuinely-future timers live on a heap keyed
  by ``(when, seq)``; same-instant resumes (the dominant operation --
  event triggers, resource grants, channel gets, already-done waits) go
  onto a FIFO *ready deque* instead of paying a heap push, a lambda and
  a handle allocation each.  The drain loop merges the two lanes by
  ``seq`` whenever both are due at the current instant, which reproduces
  the single-heap ``(time, seq)`` order exactly (see DESIGN.md §13).
- **Cancellation** is synchronous: ``process.cancel()`` detaches the
  process from whatever it is waiting on (including a resource's FIFO
  queue) and throws :class:`Cancelled` into the generator, so ``finally``
  blocks release resources and I/O models can account the bytes actually
  wasted by an abandoned transfer.  Pending scheduler entries are
  invalidated by stamping, not by mutating the lanes: each live entry
  carries the ``seq`` it was queued under and the process remembers it in
  ``_wait_seq``; cancelling resets the stamp and the stale entry is
  skipped when popped.
- **Deferred-I/O collection** bridges the synchronous decision logic
  (cache admission, eviction, scheduling) and the event kernel.  Under
  :func:`collecting_io`, device/remote models append replayable operation
  generators to a plan and return ~0 latency; the owning process then
  replays the plan with :func:`replay_plan`, *experiencing* queue waits
  at kernel resources.  Decisions happen at the arrival instant; time
  becomes emergent.

The kernel is also the one timer API for plain callbacks (TTL sweeps,
fault schedules, metric flushes): :meth:`Kernel.call_at` /
:meth:`Kernel.call_after` / :meth:`Kernel.call_periodic`, drained by
:meth:`Kernel.run_until` / :meth:`Kernel.run_all`.

The kernel requires a :class:`~repro.ports.clock.SimClock` (or a subclass
exposing ``_now``): the drain loops advance virtual time by writing the
slot directly rather than calling ``advance_to`` per event.
"""

from __future__ import annotations

import heapq
from collections import deque
from types import GeneratorType
from typing import Any, Callable, Generator, Iterable

from repro.obs import tracer as _tracer_slot
from repro.ports.clock import SimClock

_heappush = heapq.heappush
_heappop = heapq.heappop


class Cancelled(Exception):
    """Thrown into a process's generator by :meth:`Process.cancel`."""


class KernelError(RuntimeError):
    """Misuse of the kernel API (yielding a non-waitable, self-cancel...)."""


# ---------------------------------------------------------------------------
# deferred-I/O collection


# The plans of the open `collecting_io` blocks, innermost last.  Models on
# the per-read path test and append to it directly (``if IO_PLANS:
# IO_PLANS[-1].append(op)``) -- what `io_collection_active` and `defer_io`
# do, without their two frames (DESIGN.md §16).
IO_PLANS: list[list] = []

# the kernel currently stepping a process (None outside process context);
# lets replayed operation generators reach the clock / spawn helpers
# without threading a kernel reference through every model layer.  A
# module scalar (saved/restored around each step, so nested kernels work)
# instead of a stack: a global store is cheaper than a list append+pop on
# the per-resume hot path.
_ACTIVE_KERNEL: "Kernel | None" = None


class collecting_io:  # lower case: it is used like a function, `with collecting_io(plan):`
    """Collect deferred I/O operations into ``plan`` instead of running them.

    While active, kernel-attached devices and remote models append
    zero-argument *operation generators* to ``plan`` via :func:`defer_io`
    and report ~0 latency to their synchronous callers.  Replay the plan
    from a process with ``yield from replay_plan(plan)``.

    A class rather than a ``@contextmanager`` generator: it is entered once
    per simulated read, and this way costs three frames instead of six.
    """

    __slots__ = ("plan",)

    def __init__(self, plan: list) -> None:
        self.plan = plan

    def __enter__(self) -> list:
        IO_PLANS.append(self.plan)
        return self.plan

    def __exit__(self, *exc_info: object) -> None:
        IO_PLANS.pop()


def io_collection_active() -> bool:
    """True when inside a :func:`collecting_io` block."""
    return bool(IO_PLANS)


def defer_io(op: Callable[[], Generator]) -> None:
    """Append an operation generator factory to the active collection plan."""
    IO_PLANS[-1].append(op)


def replay_plan(plan: list) -> Generator[Any, Any, float]:
    """Replay collected operations in order; returns total elapsed seconds.

    An operation is a zero-argument callable returning either a generator
    (replayed with ``yield from``, experiencing kernel waits) or a plain
    float (an instantaneous side effect, e.g. spawning a background load).
    """
    total = 0.0
    for op in plan:
        step = op()
        if isinstance(step, GeneratorType):
            step = yield from step
        total += float(step or 0.0)
    return total


def current_kernel() -> "Kernel":
    """The kernel driving the currently-executing process."""
    kernel = _ACTIVE_KERNEL
    if kernel is None:
        raise KernelError("no kernel is currently stepping a process")
    return kernel


def charge_wasted_bytes(nbytes: int) -> None:
    """Account bytes a cancelled transfer had already moved.

    Called from an I/O operation's ``except Cancelled`` handler; the bytes
    accrue on the process being cancelled so a hedge can read how much its
    loser actually wasted.
    """
    kernel = _ACTIVE_KERNEL
    if kernel is not None:
        process = kernel.active
        if process is not None:
            process.wasted_bytes += int(nbytes)


# ---------------------------------------------------------------------------
# cancellation sentinels
#
# ``Process._cleanup`` holds either one of these markers (the common,
# allocation-free waits) or a closure (combinator waits).  The markers are
# interpreted by :meth:`Process.cancel`; using sentinels instead of bound
# methods keeps the hot wait paths free of per-wait closure allocation.

_CLEANUP_SLEEP = object()   # pending heap entry (Timeout / unstarted spawn)
_CLEANUP_READY = object()   # pending ready-lane resume
_CLEANUP_WAITER = object()  # registered directly on an Event/Process

# forces the first _step/spawn to classify whatever tracer is installed
_TRACER_UNSET = object()


# ---------------------------------------------------------------------------
# waitables


class Timeout:
    """Yield ``Timeout(delay)`` to sleep ``delay`` virtual seconds.

    Immutable -- a hot loop may allocate one instance and yield it every
    iteration (the telemetry sampler does).
    """

    __slots__ = ("delay",)

    def __init__(self, delay: float) -> None:
        if delay < 0:
            raise ValueError(f"Timeout delay must be >= 0, got {delay}")
        self.delay = float(delay)

    def __repr__(self) -> str:
        return f"Timeout({self.delay!r})"


class Event:
    """A one-shot triggerable waitable carrying an optional value.

    Waiter storage is allocation-free for the common case: the first
    waiter (a :class:`Process` registered by the kernel, or a plain
    callback) occupies the ``_cb0`` slot; only a second concurrent waiter
    promotes to a list.
    """

    __slots__ = ("kernel", "name", "triggered", "value", "_cb0",
                 "_callbacks", "_on_abandon")

    def __init__(self, kernel: "Kernel", name: str = "") -> None:
        self.kernel = kernel
        self.name = name
        self.triggered = False
        self.value: Any = None
        self._cb0: Any = None
        self._callbacks: list | None = None
        # hook a queue owner installs so an abandoned wait can be
        # withdrawn from the owner's FIFO: either a zero-arg callable or
        # the owner deque itself (the Event is removed from it)
        self._on_abandon: Any = None

    def trigger(self, value: Any = None) -> None:
        """Fire the event; process waiters go onto the kernel ready lane."""
        if self.triggered:
            return
        self.triggered = True
        self.value = value
        cb = self._cb0
        if cb is not None:
            self._cb0 = None
            if cb.__class__ is Process:
                # _ready_push inlined: one waiter resuming on a trigger is
                # the hottest handoff in the system (channel put -> getter)
                kernel = cb.kernel
                seq = kernel._seq
                kernel._seq = seq + 1
                cb._wait_seq = seq
                cb._cleanup = _CLEANUP_READY
                cb._waiting_on = None
                kernel._ready.append((seq, cb, value, None))
                kernel._pending += 1
                if kernel._profiling:
                    kernel.profiler.on_ready_push(len(kernel._ready))
                    kernel.profiler.on_runnable(cb)
            else:
                cb(self)
        cbs = self._callbacks
        if cbs:
            self._callbacks = None
            for cb in cbs:
                if cb.__class__ is Process:
                    cb.kernel._ready_push(cb, value, None)
                else:
                    cb(self)

    def add_callback(self, callback: Any) -> None:
        """Register a waiter: a callable taking the event, or a Process."""
        if self.triggered:
            if callback.__class__ is Process:
                callback.kernel._ready_push(callback, self.value, None)
            else:
                callback(self)
        elif self._cb0 is None and self._callbacks is None:
            self._cb0 = callback
        elif self._callbacks is None:
            self._callbacks = [callback]
        else:
            self._callbacks.append(callback)

    def discard_callback(self, callback: Any) -> None:
        if self._cb0 is callback:
            self._cb0 = None
            return
        cbs = self._callbacks
        if cbs is not None:
            try:
                cbs.remove(callback)
            except ValueError:
                pass

    def abandon(self) -> None:
        """Withdraw an untriggered wait from its owner's queue, if any."""
        if not self.triggered:
            owner = self._on_abandon
            if owner is None:
                return
            if owner.__class__ is deque:
                try:
                    owner.remove(self)
                except ValueError:
                    pass
            else:
                owner()

    def _wait_value(self) -> tuple[Any, BaseException | None]:
        return self.value, None


class Timer(Event):
    """An :class:`Event` that triggers itself at an absolute virtual time."""

    __slots__ = ("when", "_handle")

    def __init__(self, kernel: "Kernel", when: float, name: str = "") -> None:
        super().__init__(kernel, name=name)
        self.when = when
        self._handle = kernel.call_at(when, self.trigger)

    def cancel(self) -> None:
        """Stop the timer; it will never trigger."""
        self._handle.cancel()


class Request(Event):
    """A pending or granted claim on one slot of a :class:`Resource`."""

    __slots__ = ("resource", "released", "grant_time")

    def __init__(self, resource: "Resource") -> None:
        # Event.__init__ inlined: one Request per resource claim makes this
        # a per-request allocation, so skip the superclass call frame
        self.kernel = resource.kernel
        self.name = resource._req_name
        self.triggered = False
        self.value = None
        self._cb0 = None
        self._callbacks = None
        self._on_abandon = None
        self.resource = resource
        self.released = False
        self.grant_time: float | None = None

    def abandon(self) -> None:
        # cancelled while still queued: withdraw from the resource FIFO
        if not self.triggered:
            self.resource.release(self)


class Resource:
    """``capacity`` parallel slots with a real FIFO queue of waiters.

    ``request()`` returns a :class:`Request`; yield it to block until a
    slot is free, and pass it back to :meth:`release` when done (use
    ``try/finally`` so cancellation releases too).  Releasing a request
    that is still queued withdraws it (cancel-while-queued).
    """

    __slots__ = ("kernel", "capacity", "name", "in_use", "_queue", "_req_name")

    def __init__(self, kernel: "Kernel", capacity: int, name: str = "") -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.kernel = kernel
        self.capacity = capacity
        self.name = name
        self.in_use = 0
        self._queue: deque[Request] = deque()
        self._req_name = f"req:{name}"

    def request(self) -> Request:
        req = Request(self)
        if self.in_use < self.capacity:
            self.in_use += 1
            req.triggered = True  # granted immediately; no waiters yet
            req.grant_time = self.kernel.clock._now
        else:
            self._queue.append(req)
        return req

    def release(self, req: Request) -> None:
        if req.released:
            return
        req.released = True
        if not req.triggered:
            # still waiting: withdraw from the FIFO
            try:
                self._queue.remove(req)
            except ValueError:
                pass
            return
        self.in_use -= 1
        while self._queue and self.in_use < self.capacity:
            nxt = self._queue.popleft()
            self.in_use += 1
            nxt.grant_time = self.kernel.clock._now
            nxt.trigger(None)

    @property
    def waiting(self) -> int:
        """Processes blocked in the FIFO right now."""
        return len(self._queue)

    @property
    def queue_depth(self) -> int:
        """Requests in service plus requests waiting (live occupancy)."""
        return self.in_use + len(self._queue)


class Channel:
    """An unbounded FIFO message queue; ``get()`` blocks when empty.

    Feeds worker pools: producers :meth:`put` items synchronously, consumer
    processes ``yield channel.get()`` and are resumed with the item.
    """

    __slots__ = ("kernel", "name", "_items", "_getters", "puts", "gets",
                 "_get_name")

    def __init__(self, kernel: "Kernel", name: str = "") -> None:
        self.kernel = kernel
        self.name = name
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()
        self.puts = 0
        self.gets = 0
        self._get_name = f"get:{name}"

    def put(self, item: Any) -> None:
        self.puts += 1
        if self._getters:
            self.gets += 1
            self._getters.popleft().trigger(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        ev = Event(self.kernel, self._get_name)
        if self._items:
            ev.triggered = True
            ev.value = self._items.popleft()
            self.gets += 1
        else:
            self._getters.append(ev)
            # abandoning the wait removes the Event from this deque
            ev._on_abandon = self._getters
        return ev

    def drain(self) -> list[Any]:
        """Remove and return every queued item (consumer-pool retirement).

        Blocked getters are untouched -- they stay queued for whatever is
        put next (typically poison pills).
        """
        items = list(self._items)
        self._items.clear()
        return items

    @property
    def backlog(self) -> int:
        """Items queued and not yet claimed by a getter."""
        return len(self._items)


class _Combinator:
    """Base for :func:`any_of` / :func:`all_of` wait groups."""

    __slots__ = ("waitables",)

    def __init__(self, waitables: tuple) -> None:
        if not waitables:
            raise ValueError("need at least one waitable")
        self.waitables = waitables


class AnyOf(_Combinator):
    """Resume when the first member completes; the value is that member."""


class AllOf(_Combinator):
    """Resume when every member has completed; the value is the tuple."""


def any_of(*waitables) -> AnyOf:
    return AnyOf(waitables)


def all_of(*waitables) -> AllOf:
    return AllOf(waitables)


# ---------------------------------------------------------------------------
# processes


def _is_done(waitable: Any) -> bool:
    if isinstance(waitable, Process):
        return waitable.done
    return bool(waitable.triggered)


class Process:
    """A generator coroutine scheduled by the kernel.

    Exposes the :class:`Event` waitable protocol so processes can be
    yielded (joined) or combined with :func:`any_of`/:func:`all_of`.
    Joining a process that failed re-raises its exception in the joiner
    (including :class:`Cancelled` for a cancelled process).
    """

    __slots__ = (
        "kernel", "name", "pid", "done", "cancelled", "value", "exception",
        "wasted_bytes", "_gen", "_send", "_throw", "_cb0", "_callbacks",
        "_cleanup", "_wait_seq", "_waiting_on", "_span_context", "started",
    )

    def __init__(self, kernel: "Kernel", gen: Generator, name: str, pid: int) -> None:
        self.kernel = kernel
        self.name = name
        self.pid = pid
        self.done = False
        self.cancelled = False
        self.started = False
        self.value: Any = None
        self.exception: BaseException | None = None
        # bytes a cancelled transfer had already moved (hedge-loser waste)
        self.wasted_bytes = 0
        self._gen = gen
        self._send = gen.send
        self._throw = gen.throw
        self._cb0: Any = None
        self._callbacks: list | None = None
        # how to detach from the current wait: a sentinel or a closure
        self._cleanup: Any = None
        # seq stamp of the pending scheduler entry (-1 = none); a popped
        # entry whose seq no longer matches is stale and is skipped
        self._wait_seq = -1
        self._waiting_on: Any = None
        self._span_context: list | None = None

    # -- Event-compatible waitable protocol ---------------------------------

    @property
    def triggered(self) -> bool:
        return self.done

    def add_callback(self, callback: Any) -> None:
        if self.done:
            if callback.__class__ is Process:
                callback.kernel._ready_push(callback, self.value, self.exception)
            else:
                callback(self)
        elif self._cb0 is None and self._callbacks is None:
            self._cb0 = callback
        elif self._callbacks is None:
            self._callbacks = [callback]
        else:
            self._callbacks.append(callback)

    def discard_callback(self, callback: Any) -> None:
        if self._cb0 is callback:
            self._cb0 = None
            return
        cbs = self._callbacks
        if cbs is not None:
            try:
                cbs.remove(callback)
            except ValueError:
                pass

    def abandon(self) -> None:  # joining a process holds no queue slot
        return None

    def _wait_value(self) -> tuple[Any, BaseException | None]:
        return self.value, self.exception

    # -- lifecycle ----------------------------------------------------------

    def cancel(self, reason: str = "") -> bool:
        """Cancel the process *now*: detach its wait, throw :class:`Cancelled`.

        Synchronous -- on return the process has run its ``finally``
        blocks (releasing resource slots, accounting wasted bytes) and is
        done.  Returns False if the process had already finished.
        """
        if self.done:
            return False
        kernel = self.kernel
        if kernel.active is self:
            raise KernelError("a process cannot cancel itself")
        if not self.started:
            # never ran: invalidate the start entry, close the generator
            if self._wait_seq != -1:
                self._wait_seq = -1
                kernel._pending -= 1
                if kernel._profiling:
                    kernel.profiler.on_timer_cancel()
            self._cleanup = None
            self._gen.close()
            kernel.processes_cancelled += 1
            self._complete(None, Cancelled(reason or "cancelled before start"),
                           cancelled=True)
            if kernel._profiling:
                kernel.profiler.on_exit(self)
            return True
        cleanup = self._cleanup
        if cleanup is not None:
            self._cleanup = None
            if cleanup is _CLEANUP_READY:
                # the stale lane entry keeps its value alive until drained;
                # that's bounded by the current instant's queue depth
                self._wait_seq = -1
                kernel._pending -= 1
            elif cleanup is _CLEANUP_SLEEP:
                self._wait_seq = -1
                kernel._pending -= 1
                if kernel._profiling:
                    kernel.profiler.on_timer_cancel()
            elif cleanup is _CLEANUP_WAITER:
                waitable = self._waiting_on
                self._waiting_on = None
                waitable.discard_callback(self)
                waitable.abandon()
            else:
                cleanup()
        kernel._step(self, None, Cancelled(reason or f"cancel {self.name}"))
        return True

    def _complete(self, value: Any, exception: BaseException | None,
                  *, cancelled: bool = False) -> None:
        self.done = True
        self.value = value
        self.exception = exception
        self.cancelled = cancelled
        cb = self._cb0
        if cb is not None:
            self._cb0 = None
            if cb.__class__ is Process:
                cb.kernel._ready_push(cb, value, exception)
            else:
                cb(self)
        cbs = self._callbacks
        if cbs:
            self._callbacks = None
            for cb in cbs:
                if cb.__class__ is Process:
                    cb.kernel._ready_push(cb, value, exception)
                else:
                    cb(self)

    def __repr__(self) -> str:
        state = ("cancelled" if self.cancelled else
                 "done" if self.done else
                 "running" if self.started else "new")
        return f"Process(pid={self.pid}, name={self.name!r}, {state})"


class _TimerHandle:
    """Cancellation handle for a scheduled callback.

    ``scheduled`` is True while the handle's entry sits in the heap; the
    drain loop clears it on pop, so :meth:`cancel` knows whether the
    kernel's live-entry count still includes it.  ``on_cancel`` is set
    only by a profiling kernel (timer-cancel counting).
    """

    __slots__ = ("cancelled", "scheduled", "on_cancel", "_kernel")

    def __init__(self, kernel: "Kernel") -> None:
        self.cancelled = False
        self.scheduled = True
        self.on_cancel: Callable[[], None] | None = None
        self._kernel = kernel

    def cancel(self) -> None:
        if not self.cancelled:
            self.cancelled = True
            if self.scheduled:
                self.scheduled = False
                self._kernel._pending -= 1
            if self.on_cancel is not None:
                self.on_cancel()


class Kernel:
    """The discrete-event scheduler: a two-lane run queue plus process driver.

    >>> kernel = Kernel()
    >>> order = []
    >>> def proc(tag, delay):
    ...     yield Timeout(delay)
    ...     order.append(tag)
    >>> _ = kernel.spawn(proc("b", 2.0))
    >>> _ = kernel.spawn(proc("a", 1.0))
    >>> kernel.run_all()
    >>> order
    ['a', 'b']
    """

    __slots__ = (
        "clock", "_heap", "_ready", "_seq", "_next_pid", "_pending",
        "active", "processes_spawned", "processes_completed",
        "processes_cancelled", "events_fired", "profiler", "_profiling",
        "_cached_tracer", "_tracer_ctx",
    )

    def __init__(self, clock: SimClock | None = None) -> None:
        self.clock = clock if clock is not None else SimClock()
        # future-timer lane: (when, seq, handle_or_None, callback_or_process)
        self._heap: list[tuple] = []
        # same-instant lane: (seq, process, value, exc); always due at the
        # current time -- the entry carries the resume payload so waking a
        # process never round-trips through per-process slots
        self._ready: deque[tuple] = deque()
        self._seq = 0
        self._next_pid = 1
        # live (non-cancelled, not yet fired) entries across both lanes
        self._pending = 0
        self.active: Process | None = None
        self.processes_spawned = 0
        self.processes_completed = 0
        self.processes_cancelled = 0
        # non-cancelled events drained by run_until/run_all; always counted
        # (one int add per event) so perf harnesses need no profiler
        self.events_fired = 0
        # pluggable scheduler profiler (repro.obs.profiler); duck-typed so
        # this module never imports obs beyond the tracer slot.  Every hook
        # site is guarded by the cached bool, keeping the unprofiled hot
        # path at one attribute read per operation.
        self.profiler: Any = None
        self._profiling = False
        # cached classification of the installed tracer: recomputed by
        # identity whenever repro.obs.tracer._active_tracer changes, so
        # the NOOP default skips per-resume context capture entirely
        self._cached_tracer: Any = _TRACER_UNSET
        self._tracer_ctx = False

    def attach_profiler(self, profiler: Any) -> None:
        """Install a scheduler profiler (attach before spawning processes).

        Pass ``repro.obs.profiler.NOOP_PROFILER`` (or any object with
        ``enabled = False``) to explicitly disable; hooks then stay cold.
        """
        self.profiler = profiler
        self._profiling = bool(getattr(profiler, "enabled", False))
        # drop the tracer classification too: (re)installing observability
        # is the moment cached hot-path shortcuts must be revalidated
        self._cached_tracer = _TRACER_UNSET

    # -- timer API --------------------------------------------------------------

    def __len__(self) -> int:
        """Live scheduled entries (cancelled-but-unpopped ones excluded)."""
        return self._pending

    def call_at(self, when: float, callback: Callable[[], None]) -> _TimerHandle:
        """Schedule ``callback`` at absolute virtual time ``when``."""
        if when < self.clock._now:
            raise ValueError(
                f"cannot schedule in the past (when={when}, now={self.clock.now()})"
            )
        handle = _TimerHandle(self)
        seq = self._seq
        self._seq = seq + 1
        _heappush(self._heap, (when, seq, handle, callback))
        self._pending += 1
        if self._profiling:
            handle.on_cancel = self.profiler.on_timer_cancel
            self.profiler.on_heap_push(len(self._heap), timer=True)
        return handle

    def call_after(self, delay: float, callback: Callable[[], None]) -> _TimerHandle:
        """Schedule ``callback`` ``delay`` seconds from now."""
        return self.call_at(self.clock._now + delay, callback)

    def call_after_many(
        self, items: Iterable[tuple[float, Callable[[], None]]],
    ) -> list[_TimerHandle]:
        """Batch-schedule ``(delay, callback)`` pairs; one handle each.

        Semantically identical to ``[call_after(d, cb) for d, cb in items]``
        -- sequence numbers are assigned in iteration order, so ties at one
        instant fire in submission order exactly as with the loop.  For
        large batches the heap is rebuilt once with ``heapq.heapify``
        (O(n+m)) instead of m pushes (O(m log n)), which is what bulk
        arrival injection (trace replay, periodic fan-out) wants.
        """
        now = self.clock._now
        seq = self._seq
        entries: list[tuple] = []
        handles: list[_TimerHandle] = []
        for delay, callback in items:
            if delay < 0:
                raise ValueError(f"delay must be >= 0, got {delay}")
            handle = _TimerHandle(self)
            entries.append((now + delay, seq, handle, callback))
            handles.append(handle)
            seq += 1
        self._seq = seq
        if not entries:
            return handles
        heap = self._heap
        # pop order depends only on (when, seq), so push-vs-heapify is
        # unobservable; pick whichever is cheaper for this batch size
        if len(entries) * 8 >= len(heap):
            heap.extend(entries)
            heapq.heapify(heap)
        else:
            for entry in entries:
                _heappush(heap, entry)
        self._pending += len(entries)
        if self._profiling:
            for handle in handles:
                handle.on_cancel = self.profiler.on_timer_cancel
                self.profiler.on_heap_push(len(heap), timer=True)
        return handles

    def call_periodic(
        self, interval: float, callback: Callable[[], None], *,
        start: float | None = None,
    ) -> _TimerHandle:
        """Fire ``callback`` every ``interval`` seconds until cancelled."""
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        handle = _TimerHandle(self)
        first = self.clock._now + interval if start is None else start

        def fire() -> None:
            if handle.cancelled:
                return
            callback()
            if not handle.cancelled:
                seq = self._seq
                self._seq = seq + 1
                _heappush(self._heap,
                          (self.clock._now + interval, seq, handle, fire))
                handle.scheduled = True
                self._pending += 1
                if self._profiling:
                    self.profiler.on_heap_push(len(self._heap), timer=True)

        seq = self._seq
        self._seq = seq + 1
        _heappush(self._heap, (first, seq, handle, fire))
        self._pending += 1
        if self._profiling:
            handle.on_cancel = self.profiler.on_timer_cancel
            self.profiler.on_heap_push(len(self._heap), timer=True)
        return handle

    # -- the drain loops ----------------------------------------------------
    #
    # Four specializations of one merge loop (see DESIGN.md §13 for the
    # order-preservation argument).  The unprofiled run_until/run_all
    # bodies are the hottest code in the repository: lane heads, the heap
    # pop and the step driver are bound to locals, the clock slot is
    # written directly, and the fired-event counters are reconciled once
    # in a ``finally`` instead of per event.

    def run_until(self, deadline: float) -> None:
        """Fire every due event up to ``deadline``, advancing the clock."""
        if self._profiling:
            self._drain_profiled(deadline, 0)
            self.clock.advance_to(deadline)
            return
        clock = self.clock
        if clock._now > deadline:
            return
        heap = self._heap
        ready = self._ready
        popleft = ready.popleft
        pop = _heappop
        step = self._step
        fired = 0
        try:
            while True:
                if ready:
                    if heap:
                        entry = heap[0]
                        if entry[0] <= clock._now and entry[1] < ready[0][0]:
                            # a due timer scheduled before the queued resume
                            pop(heap)
                            handle = entry[2]
                            target = entry[3]
                            if handle is None:
                                if target._wait_seq != entry[1]:
                                    continue
                                target._wait_seq = -1
                                target._cleanup = None
                                step(target)
                            elif handle.cancelled:
                                continue
                            else:
                                handle.scheduled = False
                                target()
                            fired += 1
                            continue
                    entry = popleft()
                    proc = entry[1]
                    if proc._wait_seq != entry[0]:
                        continue
                    proc._wait_seq = -1
                    proc._cleanup = None
                    step(proc, entry[2], entry[3])
                    fired += 1
                    continue
                if not heap:
                    break
                entry = heap[0]
                when = entry[0]
                if when > deadline:
                    break
                pop(heap)
                handle = entry[2]
                target = entry[3]
                if handle is None:
                    if target._wait_seq != entry[1]:
                        continue
                    target._wait_seq = -1
                    target._cleanup = None
                    if when > clock._now:
                        clock._now = when
                    step(target)
                elif handle.cancelled:
                    continue
                else:
                    handle.scheduled = False
                    if when > clock._now:
                        clock._now = when
                    target()
                fired += 1
        except BaseException:
            # a process or callback raised out of the entry being fired:
            # that entry was consumed, so it still counts
            fired += 1
            raise
        finally:
            self.events_fired += fired
            self._pending -= fired
        clock.advance_to(deadline)

    def run_all(self, *, max_events: int = 10_000_000) -> None:
        """Drain both lanes completely (bounded by ``max_events``)."""
        if self._profiling:
            self._drain_profiled(None, max_events)
            return
        clock = self.clock
        heap = self._heap
        ready = self._ready
        popleft = ready.popleft
        pop = _heappop
        step = self._step
        fired = 0
        try:
            while True:
                if ready:
                    if heap:
                        entry = heap[0]
                        if entry[0] <= clock._now and entry[1] < ready[0][0]:
                            pop(heap)
                            handle = entry[2]
                            target = entry[3]
                            if handle is None:
                                if target._wait_seq != entry[1]:
                                    continue
                                target._wait_seq = -1
                                target._cleanup = None
                                step(target)
                            elif handle.cancelled:
                                continue
                            else:
                                handle.scheduled = False
                                target()
                            fired += 1
                            if fired >= max_events:
                                break
                            continue
                    entry = popleft()
                    proc = entry[1]
                    if proc._wait_seq != entry[0]:
                        continue
                    proc._wait_seq = -1
                    proc._cleanup = None
                    step(proc, entry[2], entry[3])
                else:
                    if not heap:
                        break
                    entry = pop(heap)
                    handle = entry[2]
                    target = entry[3]
                    if handle is None:
                        if target._wait_seq != entry[1]:
                            continue
                        target._wait_seq = -1
                        target._cleanup = None
                        when = entry[0]
                        if when > clock._now:
                            clock._now = when
                        step(target)
                    elif handle.cancelled:
                        continue
                    else:
                        handle.scheduled = False
                        when = entry[0]
                        if when > clock._now:
                            clock._now = when
                        target()
                fired += 1
                if fired >= max_events:
                    break
        except BaseException:
            fired += 1  # the raising entry was consumed (see run_until)
            raise
        finally:
            self.events_fired += fired
            self._pending -= fired
        if fired >= max_events:
            raise KernelError(f"kernel did not quiesce after {max_events} events")

    run = run_all

    def _drain_profiled(self, deadline: float | None, max_events: int) -> None:
        """The instrumented merge loop (hook calls per pop; not hot)."""
        clock = self.clock
        if deadline is not None and clock._now > deadline:
            return
        heap = self._heap
        ready = self._ready
        profiler = self.profiler
        fired = 0
        try:
            while True:
                entry = None
                if ready:
                    if heap:
                        head = heap[0]
                        if head[0] <= clock._now and head[1] < ready[0][0]:
                            entry = _heappop(heap)
                    if entry is None:
                        seq, proc, value, error = ready.popleft()
                        if proc._wait_seq != seq:
                            profiler.on_event_pop(True)
                            continue
                        proc._wait_seq = -1
                        proc._cleanup = None
                        self._step(proc, value, error)
                        self.events_fired += 1
                        self._pending -= 1
                        profiler.on_event_pop(False)
                        fired += 1
                        if max_events and fired >= max_events:
                            break
                        continue
                else:
                    if not heap:
                        break
                    if deadline is not None and heap[0][0] > deadline:
                        break
                    entry = _heappop(heap)
                when, seq, handle, target = entry
                if handle is None:
                    if target._wait_seq != seq:
                        profiler.on_event_pop(True)
                        continue
                    target._wait_seq = -1
                    target._cleanup = None
                    clock.advance_to(when)
                    self._step(target)
                elif handle.cancelled:
                    profiler.on_event_pop(True)
                    continue
                else:
                    handle.scheduled = False
                    clock.advance_to(when)
                    target()
                self.events_fired += 1
                self._pending -= 1
                profiler.on_event_pop(False)
                fired += 1
                if max_events and fired >= max_events:
                    break
        except BaseException:
            # the raising entry was consumed (see run_until)
            self.events_fired += 1
            self._pending -= 1
            raise
        if max_events and fired >= max_events:
            raise KernelError(f"kernel did not quiesce after {max_events} events")

    # -- factories ----------------------------------------------------------

    def event(self, name: str = "") -> Event:
        return Event(self, name=name)

    def timer(self, delay: float, name: str = "") -> Timer:
        """An event that triggers ``delay`` seconds from now."""
        return Timer(self, self.clock._now + delay, name=name)

    def resource(self, capacity: int, name: str = "") -> Resource:
        return Resource(self, capacity, name=name)

    def channel(self, name: str = "") -> Channel:
        return Channel(self, name=name)

    # -- processes ----------------------------------------------------------

    def spawn(self, gen: Generator, name: str | None = None) -> Process:
        """Start a process at the current virtual time."""
        return self.spawn_at(self.clock._now, gen, name=name)

    def spawn_at(self, when: float, gen: Generator,
                 name: str | None = None) -> Process:
        """Start a process at absolute virtual time ``when``."""
        pid = self._next_pid
        self._next_pid = pid + 1
        process = Process(self, gen, name or f"proc-{pid}", pid)
        self.processes_spawned += 1
        # child processes inherit the spawner's open-span stack so their
        # spans parent correctly (a query's splits nest under the query)
        tracer = _tracer_slot._active_tracer
        if tracer is not self._cached_tracer:
            self._cached_tracer = tracer
            self._tracer_ctx = (
                getattr(tracer, "enabled", True) is not False
                and hasattr(tracer, "capture_context")
            )
        if self._tracer_ctx:
            process._span_context = tracer.capture_context()
        if when < self.clock._now:
            raise ValueError(
                f"cannot schedule in the past (when={when}, now={self.clock.now()})"
            )
        seq = self._seq
        self._seq = seq + 1
        process._wait_seq = seq
        _heappush(self._heap, (when, seq, None, process))
        self._pending += 1
        if self._profiling:
            self.profiler.on_heap_push(len(self._heap), timer=True)
            self.profiler.on_spawn(process)
        return process

    # -- the process driver -------------------------------------------------

    def _ready_push(self, process: "Process", value: Any,
                    error: BaseException | None) -> None:
        """Queue a same-instant resume on the ready lane (FIFO)."""
        seq = self._seq
        self._seq = seq + 1
        process._wait_seq = seq
        process._cleanup = _CLEANUP_READY
        process._waiting_on = None
        self._ready.append((seq, process, value, error))
        self._pending += 1
        if self._profiling:
            self.profiler.on_ready_push(len(self._ready))
            self.profiler.on_runnable(process)

    def _step(self, process: Process, value: Any = None,
              exc: BaseException | None = None) -> None:
        """Advance ``process`` by one yield, delivering ``value`` or ``exc``."""
        if process.done:
            return
        process.started = True
        profiling = self._profiling
        if profiling:
            self.profiler.on_resume_start(process)
        tracer = _tracer_slot._active_tracer
        if tracer is not self._cached_tracer:
            self._cached_tracer = tracer
            self._tracer_ctx = (
                getattr(tracer, "enabled", True) is not False
                and hasattr(tracer, "capture_context")
            )
        tracing = self._tracer_ctx
        if tracing:
            saved_context = tracer.capture_context()
            tracer.restore_context(process._span_context or [])
        global _ACTIVE_KERNEL
        previous_active = self.active
        previous_kernel = _ACTIVE_KERNEL
        self.active = process
        _ACTIVE_KERNEL = self
        try:
            try:
                if exc is not None:
                    yielded = process._throw(exc)
                else:
                    yielded = process._send(value)
            except StopIteration as stop:
                self.processes_completed += 1
                process._complete(stop.value, None)
                if profiling:
                    self.profiler.on_exit(process)
                return
            except Cancelled as cancelled_exc:
                self.processes_cancelled += 1
                process._complete(None, cancelled_exc, cancelled=True)
                if profiling:
                    self.profiler.on_exit(process)
                return
            except Exception as error:
                self.processes_completed += 1
                had_waiters = (process._cb0 is not None
                               or bool(process._callbacks))
                process._complete(None, error)
                if profiling:
                    self.profiler.on_exit(process)
                if not had_waiters and exc is None:
                    # nobody is joining: fail fast rather than swallow
                    raise
                return
            if profiling:
                # record the suspension BEFORE arming the wait: an
                # already-done waitable schedules the wakeup immediately,
                # and the wakeup hook must see the blocked state
                self.profiler.on_wait_yield(process, yielded)
            cls = yielded.__class__
            if cls is Timeout:
                # the dominant wait: one heap tuple, no handle, no closure
                seq = self._seq
                self._seq = seq + 1
                process._wait_seq = seq
                process._cleanup = _CLEANUP_SLEEP
                _heappush(self._heap,
                          (self.clock._now + yielded.delay, seq, None, process))
                self._pending += 1
                if profiling:
                    self.profiler.on_heap_push(len(self._heap), timer=True)
            elif cls is Event or cls is Request:
                # second-hottest: channel gets and resource grants, inlined
                if yielded.triggered:
                    # _ready_push inlined (immediate grant / non-empty get);
                    # _waiting_on needs no clear -- every resume path nulls
                    # it before _step runs, and this process is mid-step
                    seq = self._seq
                    self._seq = seq + 1
                    process._wait_seq = seq
                    process._cleanup = _CLEANUP_READY
                    self._ready.append((seq, process, yielded.value, None))
                    self._pending += 1
                    if profiling:
                        self.profiler.on_ready_push(len(self._ready))
                        self.profiler.on_runnable(process)
                elif yielded._cb0 is None and yielded._callbacks is None:
                    yielded._cb0 = process
                    process._waiting_on = yielded
                    process._cleanup = _CLEANUP_WAITER
                else:
                    if yielded._callbacks is None:
                        yielded._callbacks = [process]
                    else:
                        yielded._callbacks.append(process)
                    process._waiting_on = yielded
                    process._cleanup = _CLEANUP_WAITER
            else:
                handler = _WAIT_HANDLERS.get(cls)
                if handler is not None:
                    handler(self, process, yielded)
                else:
                    self._wait_on(process, yielded)
        finally:
            _ACTIVE_KERNEL = previous_kernel
            self.active = previous_active
            if tracing:
                process._span_context = tracer.capture_context()
                tracer.restore_context(saved_context)
            if profiling:
                self.profiler.on_resume_end(process)

    # -- wait registration --------------------------------------------------

    def _wait_event(self, process: Process, waitable: Event) -> None:
        """Wait on an Event/Timer/Request: register the process directly."""
        if waitable.triggered:
            self._ready_push(process, waitable.value, None)
        elif waitable._cb0 is None and waitable._callbacks is None:
            waitable._cb0 = process
            process._waiting_on = waitable
            process._cleanup = _CLEANUP_WAITER
        else:
            if waitable._callbacks is None:
                waitable._callbacks = [process]
            else:
                waitable._callbacks.append(process)
            process._waiting_on = waitable
            process._cleanup = _CLEANUP_WAITER

    def _wait_join(self, process: Process, target: "Process") -> None:
        """Join another process (re-raises its exception in the joiner)."""
        if target.done:
            self._ready_push(process, target.value, target.exception)
        elif target._cb0 is None and target._callbacks is None:
            target._cb0 = process
            process._waiting_on = target
            process._cleanup = _CLEANUP_WAITER
        else:
            if target._callbacks is None:
                target._callbacks = [process]
            else:
                target._callbacks.append(process)
            process._waiting_on = target
            process._cleanup = _CLEANUP_WAITER

    def _wait_on(self, process: Process, yielded: Any) -> None:
        """Fallback dispatch for waitable *subclasses* (isinstance chain).

        The hot paths dispatch on exact type via ``_WAIT_HANDLERS``; this
        keeps user-defined subclasses of the waitable protocol working.
        """
        if isinstance(yielded, Timeout):
            seq = self._seq
            self._seq = seq + 1
            process._wait_seq = seq
            process._cleanup = _CLEANUP_SLEEP
            _heappush(self._heap,
                      (self.clock._now + yielded.delay, seq, None, process))
            self._pending += 1
            if self._profiling:
                self.profiler.on_heap_push(len(self._heap), timer=True)
            return

        if isinstance(yielded, Process):
            self._wait_join(process, yielded)
            return

        if isinstance(yielded, Event):
            self._wait_event(process, yielded)
            return

        if isinstance(yielded, AnyOf):
            self._wait_any(process, yielded)
            return

        if isinstance(yielded, AllOf):
            self._wait_all(process, yielded)
            return

        raise KernelError(
            f"process {process.name!r} yielded non-waitable {yielded!r}"
        )

    def _wait_any(self, process: Process, group: AnyOf) -> None:
        for waitable in group.waitables:
            if _is_done(waitable):
                self._ready_push(process, waitable, None)
                return

        fired = [False]
        registered: list[tuple[Any, Callable]] = []

        def detach() -> None:
            for waitable, callback in registered:
                waitable.discard_callback(callback)

        for waitable in group.waitables:
            def on_fire(_w: Any, waitable: Any = waitable) -> None:
                if fired[0]:
                    return
                fired[0] = True
                detach()
                self._ready_push(process, waitable, None)

            waitable.add_callback(on_fire)
            registered.append((waitable, on_fire))

        def cleanup() -> None:
            fired[0] = True
            detach()
            # note: members are deliberately NOT abandoned -- an any_of
            # loser (e.g. the still-running primary of a hedge) keeps
            # going until explicitly cancelled.

        process._cleanup = cleanup

    def _wait_all(self, process: Process, group: AllOf) -> None:
        remaining = [sum(1 for w in group.waitables if not _is_done(w))]
        if remaining[0] == 0:
            self._ready_push(process, list(group.waitables), None)
            return

        cancelled = [False]
        registered: list[tuple[Any, Callable]] = []

        def on_fire(_w: Any) -> None:
            if cancelled[0]:
                return
            remaining[0] -= 1
            if remaining[0] == 0:
                self._ready_push(process, list(group.waitables), None)

        for waitable in group.waitables:
            if not _is_done(waitable):
                waitable.add_callback(on_fire)
                registered.append((waitable, on_fire))

        def cleanup() -> None:
            cancelled[0] = True
            for waitable, callback in registered:
                waitable.discard_callback(callback)

        process._cleanup = cleanup


# exact-type dispatch for the wait paths the hot loop actually sees;
# subclasses fall through to Kernel._wait_on's isinstance chain
_WAIT_HANDLERS: dict[type, Callable] = {
    Event: Kernel._wait_event,
    Timer: Kernel._wait_event,
    Request: Kernel._wait_event,
    Process: Kernel._wait_join,
    AnyOf: Kernel._wait_any,
    AllOf: Kernel._wait_all,
}
