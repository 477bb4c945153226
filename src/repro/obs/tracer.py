"""Tracers: the factory for spans, installed process-globally.

Two implementations share the duck-typed surface instrumented code uses
(``span`` / ``current`` / ``current_span_id`` / ``enabled``):

- :data:`NOOP_TRACER` (the default): every call is a constant-time no-op,
  so the instrumented read path costs a global read, an attribute call and
  one shared sentinel object -- nothing is allocated per read and virtual
  results are bit-identical to an uninstrumented build.
- :class:`SimTracer`: virtual-clock-native tracing.  Timestamps come from
  the clock passed in (normally the scenario's ``SimClock``), span ids come
  from a dedicated :class:`~repro.ports.rng.RngStream` child so traced runs
  are reproducible, and finished spans land in a bounded
  :class:`~repro.obs.buffer.SpanBuffer`.

Installation mirrors :func:`repro.core.page.installed_time_source`: a
module-level slot plus an ``installed_tracer`` context manager that always
restores the previous tracer.  Instrumented modules call
:func:`current_tracer` at use time, never at import time.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator

from repro.obs.buffer import SpanBuffer
from repro.obs.span import NOOP_SPAN, NoopSpan, Span


class NoopTracer:
    """Disabled tracing: hands out the shared :data:`NOOP_SPAN`."""

    __slots__ = ()

    enabled = False

    def span(self, name: str, *, actor: str = "", **attrs: Any) -> NoopSpan:
        return NOOP_SPAN

    def current(self) -> NoopSpan:
        return NOOP_SPAN

    def current_span_id(self) -> str | None:
        return None

    def open_spans(self) -> list[Span]:
        return []

    # context switching is a no-op without a span stack (the event kernel
    # calls these around every process step)
    def capture_context(self) -> list[Span]:
        return []

    def restore_context(self, context: list[Span]) -> None:
        return None


NOOP_TRACER = NoopTracer()


class SimTracer:
    """Deterministic tracer bound to a virtual clock and a seeded rng.

    Args:
        clock: anything with ``now() -> float`` (normally a ``SimClock``).
        rng: an ``RngStream``; a ``trace-ids`` child is derived so span-id
            draws never perturb the scenario's own random streams.
        buffer: span sink; a fresh bounded :class:`SpanBuffer` by default.
        sample_rate: probability that a *root* span (and therefore its whole
            tree) is recorded.  Sampling draws come from a second dedicated
            child stream, so the id sequence is identical at any rate.
            Unsampled spans still flow through the stack (parentage and
            charges behave identically); they are simply not recorded.
    """

    enabled = True

    def __init__(
        self,
        clock: Any,
        rng: Any,
        *,
        buffer: SpanBuffer | None = None,
        sample_rate: float = 1.0,
    ) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in [0, 1], got {sample_rate}")
        self.clock = clock
        self.buffer = buffer if buffer is not None else SpanBuffer()
        self.sample_rate = sample_rate
        self._id_rng = rng.child("trace-ids")
        self._sample_rng = rng.child("trace-sampling")
        self._stack: list[Span] = []
        self._next_trace_seq = 0

    # -- ids -----------------------------------------------------------------

    def _new_id(self) -> str:
        # two 32-bit draws: numpy's integers() caps at int64 exclusive-high
        high = int(self._id_rng.rng.integers(0, 1 << 32))
        low = int(self._id_rng.rng.integers(0, 1 << 32))
        return f"{(high << 32) | low:016x}"

    # -- span factory --------------------------------------------------------

    def span(self, name: str, *, actor: str = "", **attrs: Any) -> Span:
        """Open a span as a child of the innermost open span (if any)."""
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            trace_id = f"t{self._next_trace_seq:06d}"
            self._next_trace_seq += 1
            sampled = (
                self.sample_rate >= 1.0
                or float(self._sample_rng.rng.random()) < self.sample_rate
            )
        else:
            trace_id = parent.trace_id
            sampled = parent.sampled
        span = Span(
            trace_id=trace_id,
            span_id=self._new_id(),
            parent_id=parent.span_id if parent is not None else None,
            name=name,
            actor=actor,
            start=float(self.clock.now()),
            sampled=sampled,
            tracer=self,
            attrs=attrs,
        )
        self._stack.append(span)
        return span

    def _finish(self, span: Span) -> None:
        span.end = float(self.clock.now())
        # Out-of-order finish (possible only through misuse; TRC001 guards
        # the idiom) still pops the span so the stack cannot wedge.
        if span in self._stack:
            self._stack.remove(span)
        if span.sampled:
            self.buffer.record(span)

    # -- process context switching -------------------------------------------
    #
    # The span stack is per-logical-task state.  Under the analytic
    # simulator there is exactly one task, so a single stack suffices; the
    # event kernel interleaves many processes on one tracer, so it saves
    # the stack when a process suspends and restores it when the process
    # resumes (repro.sim.kernel duck-types on these two methods).

    def capture_context(self) -> list[Span]:
        """Snapshot the open-span stack (the current process's context)."""
        return list(self._stack)

    def restore_context(self, context: list[Span]) -> None:
        """Replace the open-span stack with a previously captured snapshot."""
        self._stack = list(context)

    # -- introspection -------------------------------------------------------

    def current(self) -> Span | NoopSpan:
        """The innermost open span, or the no-op span outside any trace."""
        return self._stack[-1] if self._stack else NOOP_SPAN

    def current_span_id(self) -> str | None:
        return self._stack[-1].span_id if self._stack else None

    def open_spans(self) -> list[Span]:
        """Spans opened but not yet finished (the span-leak surface)."""
        return list(self._stack)


# -- global installation (mirrors repro.core.page's time-source slot) --------

_active_tracer: Any = NOOP_TRACER


def current_tracer() -> Any:
    """The tracer instrumented code should use *right now*."""
    return _active_tracer


def set_tracer(tracer: Any) -> None:
    global _active_tracer
    _active_tracer = tracer


def reset_tracer() -> None:
    global _active_tracer
    _active_tracer = NOOP_TRACER


@contextmanager
def installed_tracer(tracer: Any) -> Iterator[Any]:
    """Install ``tracer`` for the duration of a ``with`` block."""
    global _active_tracer
    previous = _active_tracer
    _active_tracer = tracer
    try:
        yield tracer
    finally:
        _active_tracer = previous
