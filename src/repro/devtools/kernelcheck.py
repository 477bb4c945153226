"""Flow-aware lint over kernel process generators (the ``KRN`` rule family).

PR 4/5 moved the read path onto generator-coroutine processes driven by
:mod:`repro.sim.kernel`.  The classic discrete-event bugs there are
invisible to per-file syntactic checks because they live in the *control
flow around yield points*:

- ``KRN001`` -- a shared attribute written from a value that was read
  before a yield: between the read and the write the kernel ran other
  processes, so the write can clobber a concurrent update (the static
  twin of :class:`repro.sim.sanitizer.WriteWriteConflictDetector`'s
  lost-update check);
- ``KRN002`` -- a resource slot (``Resource.request()``) or a spawned
  handle (``kernel.spawn``/``timer``) acquired and then carried across a
  yield with no ``try``/``finally``/``except`` that releases it: if the
  process is cancelled at that yield the slot leaks or the spawned
  process runs on as an orphan (``any_of`` losers are deliberately not
  reaped by the kernel);
- ``KRN003`` -- a process generator called without ``yield from`` (the
  call builds a generator and silently never runs it) or a yield of a
  non-waitable literal;
- ``KRN004`` -- wall-clock or real-I/O calls inside a process body,
  which re-couple virtual time to the host.

The analysis is a deliberately simple CFG approximation: each function's
*own* statements (nested ``def``/``class`` bodies excluded) linearized in
source order, with yield points as barriers.  That linearization is exact
for straight-line code and conservative for loops (a yield later in the
loop body is treated as after, not before, earlier statements) -- see
DESIGN.md section 11 for the model and its limits.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from itertools import chain as _chain
from typing import Iterator

from repro.devtools.findings import Finding
from repro.devtools.rules import Rule, _attr_chain

#: bare-name constructors whose result is a kernel waitable
_WAITABLE_FACTORIES = {"Timeout", "Timer", "Event", "Request", "any_of", "all_of"}
#: method calls whose result is a kernel waitable (chan.get(), res.request())
_WAITABLE_METHODS = {"get", "request", "timer", "event"}
#: generator helpers a process delegates to with ``yield from``
_REPLAY_HELPERS = {"replay_plan"}
_PROC_SUFFIX = "_proc"
#: method calls that hand back a handle the process must reap
_HANDLE_METHODS = {"spawn", "spawn_at", "timer"}
#: method names that settle a held handle/slot
_RELEASE_METHODS = {"release", "cancel", "abandon"}

_NESTED_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _own_statements(func: ast.AST) -> list[ast.stmt]:
    """The function's own statements, source order, nested defs excluded."""
    collected: list[ast.stmt] = []

    def visit(body: list) -> None:
        for stmt in body:
            collected.append(stmt)
            if isinstance(stmt, _NESTED_SCOPES):
                continue
            for field in ("body", "orelse", "finalbody"):
                visit(getattr(stmt, field, []) or [])
            for handler in getattr(stmt, "handlers", []) or []:
                visit(handler.body)

    visit(getattr(func, "body", []))
    collected.sort(key=lambda s: (s.lineno, s.col_offset))
    return collected


def _stmt_exprs(stmt: ast.stmt) -> list[ast.AST]:
    """The expression parts executed *at* this statement (headers only for
    compound statements -- their bodies are linearized separately)."""
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, (ast.Try, *_NESTED_SCOPES)):
        return []
    return [stmt]


def _walk_exprs(stmt: ast.stmt) -> Iterator[ast.AST]:
    return _chain.from_iterable(ast.walk(e) for e in _stmt_exprs(stmt))


def _yields_in(stmt: ast.stmt) -> bool:
    return any(isinstance(n, (ast.Yield, ast.YieldFrom)) for n in _walk_exprs(stmt))


def _callee_name(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _is_waitable_expr(expr: ast.AST) -> bool:
    if not isinstance(expr, ast.Call):
        return False
    if isinstance(expr.func, ast.Name):
        return expr.func.id in _WAITABLE_FACTORIES
    if isinstance(expr.func, ast.Attribute):
        return expr.func.attr in _WAITABLE_METHODS
    return False


def is_kernel_process(func: ast.AST) -> bool:
    """Does this function look like a kernel process generator?

    A process either follows the ``*_proc`` naming convention or yields
    something recognizably kernel-shaped (a waitable constructor, a
    ``replay_plan`` delegation, another ``*_proc``).
    """
    statements = _own_statements(func)
    yields = [
        n for stmt in statements for n in _walk_exprs(stmt)
        if isinstance(n, (ast.Yield, ast.YieldFrom))
    ]
    if not yields:
        return False
    name = getattr(func, "name", "")
    if name.endswith(_PROC_SUFFIX):
        return True
    for node in yields:
        if isinstance(node, ast.Yield) and node.value is not None:
            if _is_waitable_expr(node.value):
                return True
        if isinstance(node, ast.YieldFrom) and isinstance(node.value, ast.Call):
            callee = _callee_name(node.value)
            if callee is not None and (
                callee in _REPLAY_HELPERS or callee.endswith(_PROC_SUFFIX)
            ):
                return True
    return False


def iter_functions(tree: ast.AST) -> Iterator[ast.FunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def iter_processes(tree: ast.AST) -> Iterator[ast.FunctionDef]:
    for func in iter_functions(tree):
        if is_kernel_process(func):
            yield func


# ---------------------------------------------------------------------------
# KRN001: shared-attribute write across a yield


class StaleSharedWriteRule(Rule):
    """KRN001: don't write shared state from a value read before a yield.

    ``tokens = self.tokens; yield ...; self.tokens = tokens - n`` is the
    lost-update bug: while the process waited, the kernel ran other
    processes that may have updated ``self.tokens``, and the write
    clobbers them.  This is exactly the conflict
    :class:`repro.sim.sanitizer.WriteWriteConflictDetector` reports at
    runtime (same key, same virtual instant, different actor, no
    generation bump) -- caught here before a soak has to execute it.
    Re-reading the attribute after the yield (an optimistic-concurrency
    guard) marks the value fresh and is the sanctioned pattern.
    """

    rule_id = "KRN001"
    include = ("src/repro",)

    def check(self, tree, path, lines):
        for func in iter_processes(tree):
            yield from self._check_process(func, path, lines)

    def _check_process(self, func, path, lines):
        bindings: dict[str, str] = {}   # local name -> shared attr chain
        stale: set[str] = set()         # bound before the latest yield
        for stmt in _own_statements(func):
            loads = {
                c for node in _walk_exprs(stmt)
                if isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                for c in (_attr_chain(node),) if c is not None
            }
            for name, attr in list(bindings.items()):
                if attr in loads:
                    stale.discard(name)  # re-read after the yield: fresh again
            targets: list[ast.expr] = []
            value = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AugAssign):
                targets, value = [stmt.target], stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            for target in targets:
                if not isinstance(target, ast.Attribute):
                    continue
                written = _attr_chain(target)
                if written is None:
                    continue
                value_names = {
                    n.id for n in ast.walk(value)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                }
                for name in sorted(value_names):
                    if name in stale and bindings.get(name) == written:
                        yield self.finding(
                            path, stmt,
                            f"`{written}` written from `{name}`, which was "
                            f"read from `{written}` before a yield point -- "
                            "a concurrent process may have updated it (lost "
                            "update)",
                            "re-read the shared attribute after the yield, "
                            "or guard the write with a generation stamp as "
                            "WriteWriteConflictDetector expects",
                            lines,
                        )
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
            ):
                local = stmt.targets[0].id
                read = _attr_chain(stmt.value)
                if read is not None and "." in read:
                    bindings[local] = read
                else:
                    bindings.pop(local, None)
                stale.discard(local)
            if _yields_in(stmt):
                stale |= set(bindings)


# ---------------------------------------------------------------------------
# KRN002: handle/slot acquired but not settled on every path


def _unwrap_acquisition(expr: ast.AST) -> ast.Call | None:
    """The acquiring call in ``x = res.request()`` / ``x = k.spawn(...)``,
    unwrapping a conditional (``res.request() if res else None``)."""
    if isinstance(expr, ast.IfExp):
        return _unwrap_acquisition(expr.body) or _unwrap_acquisition(expr.orelse)
    if not isinstance(expr, ast.Call) or not isinstance(expr.func, ast.Attribute):
        return None
    attr = expr.func.attr
    if attr == "request" and not expr.args and not expr.keywords:
        return expr
    if attr in _HANDLE_METHODS:
        return expr
    return None


def _released_names(try_stmt: ast.Try) -> set[str]:
    """Names settled in the try's ``finally`` or ``except`` bodies, via
    ``name.release()/.cancel()/.abandon()`` or ``owner.release(name)``."""
    released: set[str] = set()
    bodies = [try_stmt.finalbody] + [h.body for h in try_stmt.handlers]
    for stmt in _chain.from_iterable(bodies):
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Call):
                continue
            if not isinstance(node.func, ast.Attribute):
                continue
            if node.func.attr not in _RELEASE_METHODS:
                continue
            if isinstance(node.func.value, ast.Name):
                released.add(node.func.value.id)
            for arg in node.args:
                if isinstance(arg, ast.Name):
                    released.add(arg.id)
    return released


class LeakedHandleRule(Rule):
    """KRN002: a held slot or spawned handle must be settled on all paths.

    ``Process.cancel`` throws :class:`~repro.sim.kernel.Cancelled` *at
    the current yield*; only ``finally``/``except`` blocks run.  A
    ``Resource.request()`` slot or a ``kernel.spawn``/``timer`` handle
    held across a yield without such a block therefore leaks when the
    process is cancelled -- the slot is never freed, or the spawned
    process runs on as an orphan (``any_of`` losers are deliberately not
    reaped by the kernel).  Sanctioned shape: acquire inside -- or
    immediately before, with no yield in the gap -- a ``try`` whose
    ``finally`` or ``except`` settles the name.
    """

    rule_id = "KRN002"
    include = ("src/repro",)

    def check(self, tree, path, lines):
        for func in iter_processes(tree):
            yield from self._check_process(func, path, lines)

    def _check_process(self, func, path, lines):
        statements = _own_statements(func)
        yield_lines = sorted(
            stmt.lineno for stmt in statements if _yields_in(stmt)
        )
        trys = [s for s in statements if isinstance(s, ast.Try)]
        try_released = [( t, _released_names(t)) for t in trys]
        for stmt in statements:
            if (
                not isinstance(stmt, ast.Assign)
                or len(stmt.targets) != 1
                or not isinstance(stmt.targets[0], ast.Name)
            ):
                continue
            call = _unwrap_acquisition(stmt.value)
            if call is None:
                continue
            name = stmt.targets[0].id
            if not any(y > stmt.lineno for y in yield_lines):
                continue  # never carried across a yield: no cancel window
            if self._sanctioned(stmt, name, try_released, yield_lines):
                continue
            kind = (
                "resource slot" if call.func.attr == "request"
                else f"`{call.func.attr}` handle"
            )
            yield self.finding(
                path, stmt,
                f"{kind} `{name}` is carried across a yield with no "
                "try/finally or try/except that settles it; cancellation "
                "at that yield leaks it",
                f"wrap the yields in `try: ... except Cancelled: "
                f"{name}.cancel(); raise` or release `{name}` in a "
                "finally block",
                lines,
            )

    def _sanctioned(self, stmt, name, try_released, yield_lines) -> bool:
        for try_stmt, released in try_released:
            if name not in released:
                continue
            inside = any(
                inner is stmt
                for body_stmt in try_stmt.body
                for inner in ast.walk(body_stmt)
            )
            if inside:
                return True
            if try_stmt.lineno > stmt.lineno and not any(
                stmt.lineno < y < try_stmt.lineno for y in yield_lines
            ):
                return True
        return False


# ---------------------------------------------------------------------------
# KRN003: process generator never iterated / non-waitable yields


@dataclass(frozen=True)
class _CallSite:
    path: str
    lineno: int
    col: int
    snippet: str
    callee: str
    via_yield: bool


class UniteratedProcessRule(Rule):
    """KRN003: calling a process without iterating it silently does nothing.

    ``self.refill_proc(bucket)`` as a statement builds a generator object
    and throws it away -- none of its body runs, no error is raised, the
    refill just never happens.  Inside a process the right forms are
    ``yield from proc(...)`` (inline) or ``kernel.spawn(proc(...))``
    (concurrent); ``yield proc(...)`` hands the kernel a raw generator
    and dies with ``KernelError`` only at runtime, as does yielding a
    non-waitable literal.  Resolution is whole-program: process names are
    collected across every checked file, call sites are matched in
    :meth:`finish`.
    """

    rule_id = "KRN003"
    include = ("src/repro",)

    def __init__(self) -> None:
        self._processes: set[str] = set()
        self._plain_defs: set[str] = set()
        self._candidates: list[_CallSite] = []

    def check(self, tree, path, lines):
        local_processes: set[str] = set()
        for func in iter_functions(tree):
            if is_kernel_process(func):
                self._processes.add(func.name)
                local_processes.add(func.name)
            else:
                self._plain_defs.add(func.name)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Expr)
                and isinstance(node.value, ast.Call)
            ):
                callee = _callee_name(node.value)
                if callee is not None and (
                    callee in self._processes
                    or callee in local_processes
                    or callee.endswith(_PROC_SUFFIX)
                ):
                    self._candidates.append(self._site(
                        path, node.value, lines, callee, via_yield=False,
                    ))
        for func in iter_processes(tree):
            for stmt in _own_statements(func):
                for node in _walk_exprs(stmt):
                    if not isinstance(node, ast.Yield) or node.value is None:
                        continue
                    value = node.value
                    if isinstance(value, ast.Call):
                        callee = _callee_name(value)
                        if callee is not None and (
                            callee.endswith(_PROC_SUFFIX)
                            or callee in self._processes
                        ):
                            self._candidates.append(self._site(
                                path, value, lines, callee, via_yield=True,
                            ))
                    elif isinstance(
                        value,
                        (ast.Constant, ast.List, ast.Tuple, ast.Dict, ast.Set),
                    ):
                        yield self.finding(
                            path, value,
                            "yield of a non-waitable literal inside a "
                            "kernel process (KernelError at runtime)",
                            "yield a waitable (Timeout, Event, Request, "
                            "any_of/all_of) or delegate with `yield from`",
                            lines,
                        )

    def _site(self, path, node, lines, callee, *, via_yield) -> _CallSite:
        line = node.lineno
        snippet = lines[line - 1].strip() if 0 < line <= len(lines) else ""
        return _CallSite(
            path=path, lineno=line, col=node.col_offset,
            snippet=snippet, callee=callee, via_yield=via_yield,
        )

    def finish(self):
        for site in self._candidates:
            is_process = site.callee in self._processes or (
                site.callee.endswith(_PROC_SUFFIX)
                and site.callee not in self._plain_defs
            )
            if not is_process:
                continue
            if site.via_yield:
                message = (
                    f"`yield {site.callee}(...)` hands the kernel a raw "
                    "generator, not a waitable (KernelError at runtime)"
                )
                hint = (
                    f"use `yield from {site.callee}(...)` to run it "
                    "inline, or `kernel.spawn(...)` to run it concurrently"
                )
            else:
                message = (
                    f"process generator `{site.callee}` called as a bare "
                    "statement: the generator is built and discarded, its "
                    "body never runs"
                )
                hint = (
                    f"use `yield from {site.callee}(...)` inside a process, "
                    f"or `kernel.spawn({site.callee}(...))` to run it "
                    "concurrently"
                )
            yield Finding(
                rule_id=self.rule_id, path=site.path, line=site.lineno,
                col=site.col, message=message, hint=hint,
                snippet=site.snippet,
            )


# ---------------------------------------------------------------------------
# KRN004: blocking host calls inside a process


_BLOCKING_TIME_ATTRS = {
    "sleep", "time", "monotonic", "perf_counter", "time_ns",
    "monotonic_ns", "perf_counter_ns", "process_time", "process_time_ns",
}
_BLOCKING_ROOTS = {"requests", "socket", "urllib", "subprocess", "shutil"}
_BLOCKING_OS_CHAINS = {"os.system", "os.popen", "os.remove", "os.unlink"}
_DATETIME_NOW = {"now", "utcnow", "today"}
_BLOCKING_BARE = {"open", "input"}


class BlockingCallInProcessRule(Rule):
    """KRN004: a kernel process never blocks on the host.

    DET001/SIM001 police wall-clock and real I/O per *file*; this rule
    polices per *process*, where the damage is worse: a ``time.sleep``
    inside a process does not advance virtual time but stalls the whole
    single-threaded kernel, and an ``open``/network call makes replayed
    latency load-dependent.  Processes get their time from ``Timeout``
    and their I/O from deferred replay plans -- nothing else.
    """

    rule_id = "KRN004"
    include = ("src/repro",)
    allow = (
        # The real-transport zone (DESIGN.md §14): the asyncio service is
        # wall-clock by design and hosts no kernel processes.
        # service/sim_transport.py is deliberately NOT listed -- it runs in
        # virtual time and stays under full KRN scrutiny.
        "src/repro/service/protocol.py",
        "src/repro/service/server.py",
        "src/repro/service/client.py",
    )

    def check(self, tree, path, lines):
        for func in iter_processes(tree):
            for stmt in _own_statements(func):
                for node in _walk_exprs(stmt):
                    if not isinstance(node, ast.Call):
                        continue
                    reason = self._blocking_reason(node)
                    if reason is not None:
                        yield self.finding(
                            path, node,
                            f"blocking host call `{reason}` inside kernel "
                            "process body",
                            "use `yield Timeout(...)` for time and a "
                            "deferred-I/O replay plan for data movement",
                            lines,
                        )

    def _blocking_reason(self, call: ast.Call) -> str | None:
        func = call.func
        if isinstance(func, ast.Name) and func.id in _BLOCKING_BARE:
            return f"{func.id}(...)"
        chain = _attr_chain(func)
        if chain is None:
            return None
        root, _, rest = chain.partition(".")
        leaf = chain.rsplit(".", 1)[-1]
        if root == "time" and rest in _BLOCKING_TIME_ATTRS:
            return chain
        if root in _BLOCKING_ROOTS:
            return chain
        if chain in _BLOCKING_OS_CHAINS:
            return chain
        if "datetime" in chain.split(".")[:-1] and leaf in _DATETIME_NOW:
            return chain
        return None


KERNEL_RULES: tuple[type[Rule], ...] = (
    StaleSharedWriteRule,
    LeakedHandleRule,
    UniteratedProcessRule,
    BlockingCallInProcessRule,
)
