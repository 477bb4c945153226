"""Spans recorded from outside the program, around its public calls.

``Tracer.wrap`` replaces an attribute (a module function or a method on a
class) with a wrapper that records ``(layer, name, start, end, parent,
request id, bytes)``.  The parent is whatever traced call encloses this one
*on the same thread*; spans stay in memory until ``dump``.  A layer's self
time is its span's duration minus what its child spans cover.

Nothing under ``src/`` knows about this file: ``uninstall`` restores every
attribute, and an untraced pass never sees a wrapper.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Any, Callable, Iterable, NamedTuple


class Span(NamedTuple):
    layer: str
    name: str
    start_ns: int
    end_ns: int
    parent: int          # index into the same thread's span list, -1 for a root
    request_id: int      # -1 where the call does not expose one
    nbytes: int          # frame bytes for codec calls, else 0


Meta = Callable[[tuple, dict, Any], tuple[int, int]]
"""``(args, kwargs, result) -> (request_id, nbytes)`` for calls that expose them."""


class _ThreadLog(threading.local):
    def __init__(self) -> None:
        self.spans: list[Span | None] | None = None
        self.stack: list[int] = []


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self._local = _ThreadLog()
        self._logs: list[tuple[str, list[Span | None]]] = []
        self._logs_lock = threading.Lock()
        self._patched: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ install

    def wrap(
        self, owner: Any, attr: str, layer: str, name: str, meta: Meta | None = None
    ) -> None:
        """Trace ``owner.attr`` (a module function or a class's method)."""
        original = getattr(owner, attr)
        tracer = self
        local = self._local

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.enabled:
                return original(*args, **kwargs)
            spans = local.spans
            if spans is None:
                spans = tracer._new_log()
            stack = local.stack
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                # kept, under its own name, so self times still add up and
                # the count of successful calls stays exact
                end = time.perf_counter_ns()
                stack.pop()
                spans[index] = Span(layer, name + "!raised", start, end, parent, -1, 0)
                raise
            end = time.perf_counter_ns()
            stack.pop()
            request_id, nbytes = meta(args, kwargs, result) if meta else (-1, 0)
            spans[index] = Span(layer, name, start, end, parent, request_id, nbytes)
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, traced)

    def _new_log(self) -> list[Span | None]:
        spans: list[Span | None] = []
        self._local.spans = spans
        with self._logs_lock:
            self._logs.append((threading.current_thread().name, spans))
        return spans

    def record(self, span: Span) -> None:
        """A span the caller timed itself (the generator's request spans,
        which interleave on one thread and so cannot nest by containment)."""
        spans = self._local.spans
        if spans is None:
            spans = self._new_log()
        spans.append(span)

    def uninstall(self) -> None:
        self.enabled = False
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # ------------------------------------------------------------- output

    def logs(self) -> list[tuple[str, list[Span | None]]]:
        """``(thread name, spans)`` per thread that recorded anything; a
        ``None`` entry is a call still open."""
        with self._logs_lock:
            return list(self._logs)

    def summary(self) -> dict[str, dict[str, int]]:
        return summarize(spans for _, spans in self.logs())

    def dump(self, path: Path) -> int:
        """Write every span as one JSON line; returns the span count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        count = 0
        with open(path, "w") as handle:
            for thread, spans in self.logs():
                for index, span in enumerate(spans):
                    if span is None:
                        continue
                    handle.write(json.dumps({
                        "thread": thread, "id": index, **span._asdict(),
                    }))
                    handle.write("\n")
                    count += 1
        return count


def self_times(spans: list[Span | None]) -> list[int]:
    """Per span: duration minus the part its direct children cover.

    Children of one parent on one thread never overlap each other (calls
    nest), so the covered part is the plain sum of their durations.
    """
    selfs = [0] * len(spans)
    for index, span in enumerate(spans):
        if span is None:
            continue
        duration = span.end_ns - span.start_ns
        selfs[index] += duration
        if span.parent >= 0:
            selfs[span.parent] -= duration
    return selfs


def summarize(
    logs: Iterable[list[Span | None]],
) -> dict[str, dict[str, int]]:
    """``{"layer.name": {count, total_ns, self_ns, nbytes}}`` over all threads."""
    out: dict[str, dict[str, int]] = {}
    for spans in logs:
        selfs = self_times(spans)
        for span, self_ns in zip(spans, selfs):
            if span is None:
                continue
            row = out.setdefault(
                f"{span.layer}.{span.name}",
                {"count": 0, "total_ns": 0, "self_ns": 0, "nbytes": 0},
            )
            row["count"] += 1
            row["total_ns"] += span.end_ns - span.start_ns
            row["self_ns"] += self_ns
            row["nbytes"] += span.nbytes
    return out


# ------------------------------------------------------------ what to wrap


def _rid_kwarg(args: tuple, kwargs: dict, result: Any) -> tuple[int, int]:
    return kwargs.get("request_id", -1), len(result)


def _rid_result(args: tuple, kwargs: dict, result: Any) -> tuple[int, int]:
    return result[0], len(args[0]) + 4  # payload + its length prefix


def wrap_protocol(tracer: Tracer) -> None:
    """The four codec functions; server and client reach them as module
    attributes of ``repro.service.protocol``, so one patch covers both."""
    from repro.service import protocol

    tracer.wrap(protocol, "encode_request", "protocol", "encode_request", _rid_kwarg)
    tracer.wrap(protocol, "decode_request", "protocol", "decode_request", _rid_result)
    tracer.wrap(protocol, "encode_response", "protocol", "encode_response", _rid_kwarg)
    tracer.wrap(protocol, "decode_response", "protocol", "decode_response", _rid_result)


def wrap_core(tracer: Tracer, engine: Any, source: Any) -> None:
    """Engine verbs, metastore, eviction policy, page store and the remote,
    patched on the classes of the objects ``engine`` was built from."""
    from repro.core.eviction import make_eviction_policy
    from repro.core.metastore import PageMetaStore
    from repro.ports.rng import RngStream

    for verb in ("get", "put", "evict"):
        tracer.wrap(type(engine), verb, "engine", verb)
    for verb in ("get", "add", "remove"):
        tracer.wrap(PageMetaStore, verb, "metastore", verb)
    policy = type(
        make_eviction_policy(engine.config.eviction_policy, RngStream(0, "probe"))
    )
    for verb in ("on_access", "on_put", "on_delete", "victim"):
        tracer.wrap(policy, verb, "eviction", verb)
    for verb in ("get", "put", "delete"):
        tracer.wrap(type(engine.manager.page_store), verb, "pagestore", verb)
    tracer.wrap(type(source), "read", "source", "read")


def wrap_presto(tracer: Tracer) -> None:
    from repro.presto.operators import ScanFilterProjectOperator
    from repro.presto.scheduler import SoftAffinityScheduler

    tracer.wrap(ScanFilterProjectOperator, "execute", "presto", "operator")
    tracer.wrap(SoftAffinityScheduler, "assign", "presto", "scheduler")
