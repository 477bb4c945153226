"""The replint rule set.

Each rule is an AST pass over one file (the driver parses once and hands
every rule the same tree).  Rules yield :class:`~repro.devtools.findings.
Finding` objects; a rule that needs whole-repo state (``MET001``) collects
during :meth:`Rule.check` and reports from :meth:`Rule.finish`.

The determinism rules encode the invariant the whole benchmark suite rests
on: virtual time comes from :class:`~repro.ports.clock.SimClock`, randomness
comes from :class:`~repro.ports.rng.RngStream`, and nothing in the simulation
observes real time, real I/O latency, or interpreter hash ordering.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Iterator

from repro.devtools.findings import Finding

SNAKE_CASE = re.compile(r"^[a-z][a-z0-9_]*$")

_WALL_CLOCK_ATTRS = {
    "time", "monotonic", "perf_counter", "time_ns", "monotonic_ns",
    "perf_counter_ns", "process_time", "process_time_ns",
}
_TIME_MODULE_NAMES = {"time", "_time"}
_DATETIME_NOW_ATTRS = {"now", "utcnow", "today"}
_GLOBAL_NP_RANDOM = {
    "seed", "rand", "randn", "randint", "random", "choice", "shuffle",
    "permutation", "uniform", "normal", "random_sample",
}
_BLOCKING_IMPORTS = {"requests", "socket", "urllib", "http", "subprocess"}
_ACCOUNTING_CALL_ATTRS = {"inc", "record_error"}


class Rule:
    """Base class: one lint rule with a stable id and a scope.

    Subclasses set :attr:`rule_id` and the ``include``/``allow`` path
    prefixes, and implement :meth:`check`.
    ``allow`` is the one way to exempt code from a rule: each entry is a
    documented exception, reviewed as a diff to this file.
    """

    rule_id: str = ""
    #: path prefixes the rule applies to (repo-relative, posix)
    include: tuple[str, ...] = ("src/repro", "benchmarks", "tests")
    #: path prefixes/files exempt from the rule -- documented exceptions
    allow: tuple[str, ...] = ()

    def applies(self, path: str) -> bool:
        """Is ``path`` under :attr:`include` and not under :attr:`allow`?

        Entries match as path prefixes on repo-relative posix paths: a
        directory entry covers everything under it, a file entry only
        that file.
        """
        return _matches_prefix(path, self.include) and not _matches_prefix(
            path, self.allow
        )

    def check(self, tree: ast.AST, path: str, lines: list[str]) -> Iterator[Finding]:
        """Yield findings for one file.  ``lines`` is the file's source."""
        raise NotImplementedError
        yield  # pragma: no cover

    def finish(self) -> Iterator[Finding]:
        """Yield cross-file findings after every file has been checked."""
        return iter(())

    # -- helpers -------------------------------------------------------------

    def finding(
        self, path: str, node: ast.AST, message: str, hint: str,
        lines: list[str],
    ) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        snippet = lines[line - 1].strip() if 0 < line <= len(lines) else ""
        return Finding(
            rule_id=self.rule_id, path=path, line=line, col=col,
            message=message, hint=hint, snippet=snippet,
        )


def _matches_prefix(path: str, prefixes: tuple[str, ...]) -> bool:
    return any(
        path == prefix or path.startswith(prefix.rstrip("/") + "/")
        for prefix in prefixes
    )


def _attr_chain(node: ast.AST) -> str | None:
    """``np.random.default_rng`` -> ``"np.random.default_rng"``; None if the
    expression is not a plain dotted name."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class NoWallClockRule(Rule):
    """DET001: real time must never leak into simulation code.

    Wall-clock reads (``time.time``/``time.monotonic``/``datetime.now``)
    make two runs of the same seed diverge; every timestamp must come from
    a :class:`~repro.ports.clock.SimClock` or an injected time source.  The
    only sanctioned homes of real time are the ``WallClock`` implementation
    itself, the documented ``core/page.py`` time-source shim, and the
    ``sim/hostclock.py`` host-clock API the kernel profiler measures
    host-CPU cost through (host readings never feed simulation decisions).
    """

    rule_id = "DET001"
    allow = (
        "src/repro/ports/clock.py",    # WallClock is the one wall-time impl
        "src/repro/core/page.py",      # documented set_time_source() shim
        "src/repro/sim/hostclock.py",  # sanctioned host-clock API (profiling)
        "tests/core/test_page.py",     # exercises the shim against real time
        # The real-transport zone (DESIGN.md §14): the asyncio service
        # runs on wall-clock time by design.
        # service/sim_transport.py is deliberately NOT listed -- it runs in
        # virtual time and stays under full determinism scrutiny.
        "src/repro/service/protocol.py",
        "src/repro/service/server.py",
        "src/repro/service/client.py",
    )

    def check(self, tree, path, lines):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            chain = _attr_chain(node)
            if chain is None:
                continue
            root, __, rest = chain.partition(".")
            if root in _TIME_MODULE_NAMES and rest in _WALL_CLOCK_ATTRS:
                yield self.finding(
                    path, node,
                    f"wall-clock read `{chain}` in simulation code",
                    "read time from a SimClock (clock.now()) or an injected "
                    "time source; see DESIGN.md 'Determinism invariants'",
                    lines,
                )
            elif (
                rest.rpartition(".")[2] in _DATETIME_NOW_ATTRS
                and ("datetime" in chain.split(".") or "date" in chain.split("."))
            ):
                yield self.finding(
                    path, node,
                    f"wall-clock read `{chain}` in simulation code",
                    "derive timestamps from the scenario's SimClock instead",
                    lines,
                )


class SeededRngRule(Rule):
    """DET002: all randomness flows through named, seeded streams.

    The stdlib ``random`` module and numpy's global/unseeded generators
    are process-global state: any new draw anywhere perturbs every
    consumer, and the seed is invisible to the scenario.  Only
    :class:`~repro.ports.rng.RngStream` may construct generators.
    """

    rule_id = "DET002"
    allow = ("src/repro/ports/rng.py",)

    def check(self, tree, path, lines):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield self.finding(
                            path, node,
                            "stdlib `random` module imported",
                            "draw from an RngStream (repro.ports.rng) derived "
                            "from the scenario seed",
                            lines,
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    yield self.finding(
                        path, node,
                        "stdlib `random` module imported",
                        "draw from an RngStream (repro.ports.rng) derived "
                        "from the scenario seed",
                        lines,
                    )
            elif isinstance(node, ast.Call):
                chain = _attr_chain(node.func)
                if chain is None:
                    continue
                parts = chain.split(".")
                if len(parts) >= 2 and parts[-2:] == ["random", "default_rng"]:
                    if not node.args and not node.keywords:
                        yield self.finding(
                            path, node,
                            "unseeded `default_rng()` (entropy from the OS)",
                            "seed it from the scenario's RngStream: "
                            "RngStream(seed, name).rng",
                            lines,
                        )
                elif (
                    len(parts) >= 3
                    and parts[-2] == "random"
                    and parts[-1] in _GLOBAL_NP_RANDOM
                ):
                    yield self.finding(
                        path, node,
                        f"numpy global-state RNG call `{chain}`",
                        "use a per-component RngStream generator instead of "
                        "numpy's module-level state",
                        lines,
                    )


def _is_set_expr(node: ast.AST) -> bool:
    """A set literal, set/frozenset() call, or set comprehension."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in {"set", "frozenset"}
    )


class SetOrderRule(Rule):
    """DET003: set iteration order must not reach output.

    CPython set ordering depends on insertion history and element hashes
    (memory addresses, for objects), so any list/loop built directly from
    a set encodes interpreter state into results.  The heuristic flags the
    three shapes where set order demonstrably flows onward: ``list(set)``
    conversion, ``for``-loops over a set expression that append, and list
    comprehensions over a set expression.  ``sorted(...)`` is the fix and
    never matches.
    """

    rule_id = "DET003"
    include = ("src/repro",)

    def check(self, tree, path, lines):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                if (
                    isinstance(node.func, ast.Name)
                    and node.func.id in {"list", "tuple"}
                    and len(node.args) == 1
                    and _is_set_expr(node.args[0])
                ):
                    yield self.finding(
                        path, node,
                        f"`{node.func.id}()` materializes a set in hash order",
                        "wrap in sorted(...) so the order is a function of "
                        "the data, not the interpreter",
                        lines,
                    )
            elif isinstance(node, ast.For) and _is_set_expr(node.iter):
                if any(
                    isinstance(inner, ast.Call)
                    and isinstance(inner.func, ast.Attribute)
                    and inner.func.attr in {"append", "extend"}
                    for stmt in node.body
                    for inner in ast.walk(stmt)
                ) or any(
                    isinstance(inner, (ast.Yield, ast.YieldFrom))
                    for stmt in node.body
                    for inner in ast.walk(stmt)
                ):
                    yield self.finding(
                        path, node,
                        "loop over a set feeds an ordered container",
                        "iterate `sorted(the_set)` so downstream order is "
                        "deterministic",
                        lines,
                    )
            elif isinstance(node, ast.ListComp) and any(
                _is_set_expr(gen.iter) for gen in node.generators
            ):
                yield self.finding(
                    path, node,
                    "list comprehension over a set inherits hash order",
                    "comprehend over sorted(the_set) instead",
                    lines,
                )


def _is_broad_handler(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    names = []
    if isinstance(handler.type, ast.Tuple):
        names = [_attr_chain(e) or "" for e in handler.type.elts]
    else:
        names = [_attr_chain(handler.type) or ""]
    return any(
        name.rpartition(".")[2] in {"Exception", "BaseException"}
        for name in names
    )


def _handler_accounts(handler: ast.ExceptHandler) -> bool:
    """True if the handler re-raises or visibly accounts the failure."""
    for stmt in handler.body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Raise):
                return True
            if isinstance(node, ast.AugAssign):          # errors += 1
                return True
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _ACCOUNTING_CALL_ATTRS
            ):
                return True
    return False


class AccountedExceptRule(Rule):
    """ERR001: broad excepts must re-raise or account the failure.

    Section 7's lesson is that error *breakdowns* are the most useful
    debugging metric; a bare ``except`` that swallows silently deletes
    exactly that signal.  A broad handler passes only if it re-raises,
    bumps a counter (``.inc()``/``+= 1``), or records the error
    (``record_error``/``observe``/``append`` into an error log).
    """

    rule_id = "ERR001"
    include = ("src/repro", "benchmarks")

    def check(self, tree, path, lines):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Try):
                continue
            for handler in node.handlers:
                if _is_broad_handler(handler) and not _handler_accounts(handler):
                    yield self.finding(
                        path, handler,
                        "broad except swallows the failure unaccounted",
                        "narrow the exception type, or increment an error "
                        "counter / metrics.record_error() before continuing",
                        lines,
                    )


class MetricNameRule(Rule):
    """MET001: metric names are snake_case and kind-stable repo-wide.

    A ``Counter`` and a ``Gauge`` sharing one name would alias in every
    exporter and roll-up; mixed-case names break the Prometheus export
    convention.  The rule collects every literal name passed to
    ``.counter("...")`` / ``.gauge("...")`` / ``.histogram("...")`` and
    reports (a) names violating ``snake_case`` and (b) names registered
    under two different kinds anywhere in the repo.
    """

    rule_id = "MET001"
    include = ("src/repro", "benchmarks")
    _KINDS = {"counter", "gauge", "histogram"}

    def __init__(self) -> None:
        # name -> kind -> first (path, node-line, snippet) seen
        self._seen: dict[str, dict[str, Finding]] = {}

    def check(self, tree, path, lines):
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self._KINDS
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                continue
            name = node.args[0].value
            kind = node.func.attr
            if not SNAKE_CASE.match(name):
                yield self.finding(
                    path, node,
                    f"metric name {name!r} is not snake_case",
                    "rename to ^[a-z][a-z0-9_]*$ so exports stay uniform",
                    lines,
                )
            placeholder = self.finding(
                path, node,
                f"metric {name!r} registered as {kind} here",
                "", lines,
            )
            self._seen.setdefault(name, {}).setdefault(kind, placeholder)

    def finish(self):
        for name, kinds in sorted(self._seen.items()):
            if len(kinds) <= 1:
                continue
            kind_list = ", ".join(sorted(kinds))
            for kind in sorted(kinds)[1:]:
                first = kinds[kind]
                yield Finding(
                    rule_id=self.rule_id, path=first.path, line=first.line,
                    col=first.col,
                    message=(
                        f"metric name {name!r} registered as multiple kinds "
                        f"({kind_list}) across the repo"
                    ),
                    hint="give each kind its own name; exporters key on "
                         "(name) alone",
                    snippet=first.snippet,
                )


class SimPurityRule(Rule):
    """SIM001: simulation code performs no real blocking I/O.

    A ``sleep`` or a real file/network round-trip re-couples virtual time
    to the host: latency becomes load-dependent and the event order can
    change between runs.  Real I/O is confined to the explicitly
    persistent components (scope journal, local page store) and the
    ``tools``/``devtools`` CLIs.
    """

    rule_id = "SIM001"
    include = ("src/repro",)
    allow = (
        "src/repro/tools",              # operator CLIs: files are the point
        "src/repro/devtools",           # the linter reads source files
        "src/repro/core/recovery.py",   # crash-safe scope journal
        "src/repro/core/pagestore/local.py",  # the real-SSD page store
    )

    def check(self, tree, path, lines):
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = (
                    [a.name for a in node.names]
                    if isinstance(node, ast.Import)
                    else [node.module or ""]
                )
                for name in names:
                    root = name.split(".")[0]
                    if root in _BLOCKING_IMPORTS:
                        yield self.finding(
                            path, node,
                            f"blocking-I/O module `{root}` imported in "
                            "simulation code",
                            "model the interaction through a DataSource / "
                            "Device with virtual latency instead",
                            lines,
                        )
            elif isinstance(node, ast.Call):
                chain = _attr_chain(node.func)
                if chain is None:
                    continue
                if chain == "open":
                    yield self.finding(
                        path, node,
                        "real file I/O (`open`) in simulation code",
                        "keep simulation state in memory, or move the "
                        "persistence into an allowlisted store module",
                        lines,
                    )
                elif chain.rpartition(".")[2] == "sleep" and (
                    chain.startswith("time.") or chain == "sleep"
                ):
                    yield self.finding(
                        path, node,
                        f"`{chain}` blocks real time inside the simulation",
                        "schedule a callback with Kernel.call_at at "
                        "clock.now() + delay instead",
                        lines,
                    )


class NoClockAdvanceRule(Rule):
    """SIM002: domain code never advances the virtual clock itself.

    ``clock.advance()`` / ``clock.advance_to()`` is the *driver's* verb:
    harnesses and the event kernel move time, and everything else
    experiences it.  A storage/presto/hdfs_cache component that advances
    the clock mid-operation silently serializes concurrent requests (the
    latency-summing bug the event kernel exists to remove) and makes its
    timing unreproducible under the kernel engine, where ``yield
    Timeout(...)`` is the only legitimate way to let time pass.
    """

    rule_id = "SIM002"
    include = (
        "src/repro/presto",
        "src/repro/storage",
        "src/repro/hdfs_cache",
    )
    allow = ()

    _ADVANCE_ATTRS = {"advance", "advance_to"}

    def check(self, tree, path, lines):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in self._ADVANCE_ATTRS
            ):
                yield self.finding(
                    path, node,
                    f"`.{func.attr}(...)` advances the virtual clock from "
                    "inside domain code",
                    "let the harness (or the event kernel via `yield "
                    "Timeout(...)`) move time; domain code only reads "
                    "clock.now()",
                    lines,
                )


class NoMutableDefaultRule(Rule):
    """API001: no mutable default arguments.

    A ``def f(x, acc=[])`` default is created once and shared across
    calls -- state leaks between scenarios, which is both a correctness
    bug and a determinism hazard (results depend on call history).
    """

    rule_id = "API001"
    _MUTABLE_CALLS = {"list", "dict", "set", "bytearray", "defaultdict", "deque"}

    def _is_mutable(self, default: ast.AST) -> bool:
        if isinstance(default, (ast.List, ast.Dict, ast.Set)):
            return True
        return (
            isinstance(default, ast.Call)
            and isinstance(default.func, ast.Name)
            and default.func.id in self._MUTABLE_CALLS
            and not default.args
            and not default.keywords
        )

    def check(self, tree, path, lines):
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    yield self.finding(
                        path, default,
                        f"mutable default argument in `{node.name}()`",
                        "default to None and construct inside the function",
                        lines,
                    )


class NoPrintRule(Rule):
    """LOG001: no ``print()`` outside the CLIs and the benchmark reporter.

    Stray prints corrupt machine-read reports and hide behind pytest
    capture; the sanctioned output paths are the ``tools``/``devtools``
    CLIs and ``benchmarks/harness.py``'s ``emit_report``.
    """

    rule_id = "LOG001"
    allow = (
        "src/repro/tools",
        "src/repro/devtools",
        "benchmarks/harness.py",        # emit_report: the one reporter
        "src/repro/service/server.py",  # CLI banner + drain summary
    )

    def check(self, tree, path, lines):
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                yield self.finding(
                    path, node,
                    "print() in library/test code",
                    "return the value, raise, or record a metric; reports "
                    "go through benchmarks.harness.emit_report",
                    lines,
                )


_SPAN_OPENERS = {"span", "start_span"}
_SPAN_CLOSERS = {"finish", "end_span", "end", "close"}


class SpanLifecycleRule(Rule):
    """TRC001: tracer spans are closed via ``with`` or ``try/finally``.

    A span left open corrupts every analysis downstream of it -- the
    attribution reconciliation, the critical path, and the sanitizer's
    span-leak check all assume the tree is closed when the operation
    returns.  A ``tracer.span(...)`` call is sanctioned only as a
    ``with``-statement context expression, or assigned to a name that some
    ``finally`` block in the same file demonstrably closes
    (``.finish()``/``.end_span()``/``.end()``/``.close()``).  Anything
    else -- a bare expression statement, a span passed straight into
    another call -- leaks on the first exception.
    """

    rule_id = "TRC001"
    include = ("src/repro",)
    allow = (
        "src/repro/obs/span.py",    # the lifecycle implementation itself
        "src/repro/obs/tracer.py",  # creates and finishes spans by design
    )

    @staticmethod
    def _is_opener(node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _SPAN_OPENERS
        )

    def check(self, tree, path, lines):
        sanctioned: set[int] = set()
        closed_names: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if self._is_opener(item.context_expr):
                        sanctioned.add(id(item.context_expr))
            elif isinstance(node, ast.Try):
                for stmt in node.finalbody:
                    for inner in ast.walk(stmt):
                        if (
                            isinstance(inner, ast.Call)
                            and isinstance(inner.func, ast.Attribute)
                            and inner.func.attr in _SPAN_CLOSERS
                            and isinstance(inner.func.value, ast.Name)
                        ):
                            closed_names.add(inner.func.value.id)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Assign)
                and self._is_opener(node.value)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id in closed_names
            ):
                sanctioned.add(id(node.value))
        for node in ast.walk(tree):
            if self._is_opener(node) and id(node) not in sanctioned:
                yield self.finding(
                    path, node,
                    "span opened without a guaranteed close",
                    "use `with tracer.span(...) as span:` or close the "
                    "assigned span in a finally block",
                    lines,
                )


_RING_MUTATORS = {
    "add_node", "remove_node", "mark_offline", "mark_online", "evict_expired",
}


class RingMutationRule(Rule):
    """CHN001: presto domain code never mutates the hash ring directly.

    Every membership change must flow through the cluster lifecycle API
    (:class:`repro.cluster.membership.ClusterMembership` /
    :class:`repro.cluster.lifecycle.ClusterLifecycle`) so the event is
    counted, timestamped on the virtual clock, measured for remapped
    keys, and propagated to the live executor pool.  A direct
    ``ring.add_node(...)`` from coordinator/scheduler code silently skips
    all of that -- the churn metrics under-report and warmup never fires.
    """

    rule_id = "CHN001"
    include = ("src/repro/presto",)
    allow = (
        "src/repro/presto/hashring.py",  # the ring implementation itself
    )

    def check(self, tree, path, lines):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in _RING_MUTATORS:
                yield self.finding(
                    path, node,
                    f"direct ring mutation `.{func.attr}(...)` in presto "
                    "domain code",
                    "route the membership change through ClusterMembership "
                    "/ ClusterLifecycle (repro.cluster) so metrics, events, "
                    "and warmup stay complete",
                    lines,
                )
