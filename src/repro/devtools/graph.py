"""Project import graph + architecture contracts (the ``ARC`` rule family).

The per-file rules in :mod:`repro.devtools.rules` cannot see layering: a
single ``import`` statement is only wrong relative to *where the whole
package sits in the dependency order*.  This module builds a project-wide
symbol table (module name -> file) and import graph (module -> import
sites, each classified as top-level, deferred-to-call-time, or
``TYPE_CHECKING``-only), then checks it against :data:`DEFAULT_CONTRACTS`
-- the layering rules of this codebase declared as data:

- ``repro.sim`` is the simulation substrate and imports no domain package;
- ``repro.obs`` sits below everything (tracing must be importable from
  anywhere without dragging in domain code);
- ``repro.devtools`` vets the system and therefore must not import it;
- ``repro.presto`` reaches ``repro.cluster`` only through the sanctioned
  runtime hook (``PrestoCluster.create`` deferring to
  ``repro.cluster.membership``).  This is the import-layer companion of
  the call-level CHN001 "no direct ring mutation" rule, not a
  replacement: a presto-internal ``self.ring.add_node(...)`` needs no
  forbidden import, so only CHN001 sees it;
- ``repro.errors`` is a leaf module of shared exception types.

Three rules report violations: ``ARC001`` (top-level forbidden import),
``ARC002`` (deferred forbidden import outside a sanctioned hook), and
``ARC003`` (module-level import cycle, found via Tarjan SCC).  Imports
under ``if TYPE_CHECKING:`` are type-only and exempt from all three.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator

from repro.devtools.findings import Finding
from repro.devtools.rules import Rule

_PROJECT_ROOT_PACKAGE = "repro"

_DOMAIN_PACKAGES = (
    "repro.analysis", "repro.cluster", "repro.core", "repro.hdfs_cache",
    "repro.presto", "repro.resilience", "repro.service", "repro.storage",
    "repro.tools", "repro.workload",
)


def module_name_for(path: str) -> str | None:
    """Repo-relative posix path -> dotted module name, or None.

    ``src/repro/presto/coordinator.py`` -> ``repro.presto.coordinator``;
    package ``__init__.py`` files name the package itself.  Paths outside
    ``src/`` (tests, benchmarks) are not project modules.
    """
    if not path.startswith("src/") or not path.endswith(".py"):
        return None
    parts = path[len("src/"):-len(".py")].split("/")
    if parts[-1] == "__init__":
        parts = parts[:-1]
    if not parts or parts[0] != _PROJECT_ROOT_PACKAGE:
        return None
    return ".".join(parts)


def dotted_in(module: str, prefix: str) -> bool:
    """Is ``module`` the package ``prefix`` or inside it (dotted prefix)?"""
    return module == prefix or module.startswith(prefix + ".")


@dataclass(frozen=True)
class ImportSite:
    """One import edge: where it points and how it is executed."""

    target: str
    lineno: int
    col: int
    #: inside a function/method body -- executed at call time, not import time
    deferred: bool
    #: under ``if TYPE_CHECKING:`` -- never executed at runtime
    type_checking: bool


class _ImportCollector(ast.NodeVisitor):
    """Walk one module's tree, classifying every import edge."""

    def __init__(self, module: str, is_package: bool) -> None:
        self.module = module
        self.is_package = is_package
        self.sites: list[ImportSite] = []
        self._depth = 0          # nesting inside function bodies
        self._type_checking = 0  # nesting inside `if TYPE_CHECKING:` bodies

    # -- classification context ---------------------------------------------

    def _is_type_checking_test(self, test: ast.expr) -> bool:
        if isinstance(test, ast.Name):
            return test.id == "TYPE_CHECKING"
        if isinstance(test, ast.Attribute):
            return test.attr == "TYPE_CHECKING"
        return False

    def visit_If(self, node: ast.If) -> None:
        if self._is_type_checking_test(node.test):
            self._type_checking += 1
            for stmt in node.body:
                self.visit(stmt)
            self._type_checking -= 1
            for stmt in node.orelse:
                self.visit(stmt)
            return
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._depth += 1
        self.generic_visit(node)
        self._depth -= 1

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._depth += 1
        self.generic_visit(node)
        self._depth -= 1

    # -- the edges ----------------------------------------------------------

    def _add(self, target: str, node: ast.AST) -> None:
        self.sites.append(
            ImportSite(
                target=target,
                lineno=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                deferred=self._depth > 0,
                type_checking=self._type_checking > 0,
            )
        )

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._add(alias.name, node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        base = node.module or ""
        if node.level:
            # resolve `from .x import y` against this module's package
            package_parts = self.module.split(".")
            if not self.is_package:
                package_parts = package_parts[:-1]
            drop = node.level - 1
            if drop:
                package_parts = package_parts[:-drop] if drop < len(package_parts) else []
            prefix = ".".join(package_parts)
            base = f"{prefix}.{base}" if base and prefix else (prefix or base)
        if base:
            self._add(base, node)
            for alias in node.names:
                if alias.name != "*":
                    self._add(f"{base}.{alias.name}", node)
        else:
            for alias in node.names:
                self._add(alias.name, node)


class ImportGraph:
    """Symbol table (module -> path) plus classified import edges."""

    def __init__(self) -> None:
        self.paths: dict[str, str] = {}
        self.sites: dict[str, list[ImportSite]] = {}

    def add_module(self, path: str, tree: ast.AST) -> str | None:
        module = module_name_for(path)
        if module is None:
            return None
        collector = _ImportCollector(module, is_package=path.endswith("__init__.py"))
        collector.visit(tree)
        self.paths[module] = path
        self.sites[module] = collector.sites
        return module

    def resolve(self, target: str) -> str | None:
        """Trim ``repro.presto.split.Split`` down to a known module name."""
        name = target
        while name:
            if name in self.paths:
                return name
            name, _, __ = name.rpartition(".")
        return None

    def runtime_edges(self) -> dict[str, set[str]]:
        """module -> imported modules, top-level at import time only."""
        edges: dict[str, set[str]] = {}
        for module, sites in self.sites.items():
            out: set[str] = set()
            for site in sites:
                if site.deferred or site.type_checking:
                    continue
                resolved = self.resolve(site.target)
                if resolved is not None and resolved != module:
                    out.add(resolved)
            edges[module] = out
        return edges

    def cycles(self) -> list[list[str]]:
        """Module-level import cycles: Tarjan SCCs of the runtime edges.

        Returns each cycle as a sorted module list; deterministic order.
        """
        edges = self.runtime_edges()
        index: dict[str, int] = {}
        low: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        sccs: list[list[str]] = []
        counter = [0]

        def strongconnect(node: str) -> None:
            # iterative Tarjan: (module, neighbor iterator) work stack
            work = [(node, iter(sorted(edges.get(node, ()))))]
            index[node] = low[node] = counter[0]
            counter[0] += 1
            stack.append(node)
            on_stack.add(node)
            while work:
                current, neighbors = work[-1]
                advanced = False
                for nxt in neighbors:
                    if nxt not in index:
                        index[nxt] = low[nxt] = counter[0]
                        counter[0] += 1
                        stack.append(nxt)
                        on_stack.add(nxt)
                        work.append((nxt, iter(sorted(edges.get(nxt, ())))))
                        advanced = True
                        break
                    if nxt in on_stack:
                        low[current] = min(low[current], index[nxt])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[current])
                if low[current] == index[current]:
                    scc = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        scc.append(member)
                        if member == current:
                            break
                    if len(scc) > 1 or current in edges.get(current, ()):
                        sccs.append(sorted(scc))

        for module in sorted(edges):
            if module not in index:
                strongconnect(module)
        return sorted(sccs)


@dataclass(frozen=True)
class Contract:
    """One layering rule, declared as data.

    ``scope`` names the packages the contract governs (dotted prefixes);
    any import from a scoped module to a ``forbid`` prefix violates it.
    ``exempt`` carves named adapter modules out of the scope -- the
    reviewed seams where a boundary is crossed *on purpose* (e.g. the
    simulated pagestore inside the otherwise sim-free cache core).
    ``runtime_hooks`` are ``(source_module, target_prefix)`` pairs naming
    the *deferred* imports the contract sanctions -- the documented
    runtime seams.  ``TYPE_CHECKING`` imports never count.
    """

    name: str
    description: str
    scope: tuple[str, ...]
    forbid: tuple[str, ...]
    exempt: tuple[str, ...] = ()
    runtime_hooks: tuple[tuple[str, str], ...] = ()

    def governs(self, module: str) -> bool:
        if any(dotted_in(module, prefix) for prefix in self.exempt):
            return False
        return any(dotted_in(module, prefix) for prefix in self.scope)

    def forbids(self, target: str) -> bool:
        return any(dotted_in(target, prefix) for prefix in self.forbid)

    def sanctions(self, module: str, target: str) -> bool:
        return any(
            module == source and dotted_in(target, prefix)
            for source, prefix in self.runtime_hooks
        )


DEFAULT_CONTRACTS: tuple[Contract, ...] = (
    Contract(
        name="sim-substrate-purity",
        description=(
            "repro.sim is the simulation substrate (clock, rng, kernel, "
            "sanitizer); it imports no domain package"
        ),
        scope=("repro.sim",),
        forbid=_DOMAIN_PACKAGES + ("repro.devtools",),
    ),
    Contract(
        name="obs-below-everything",
        description=(
            "repro.obs (tracing) must stay importable from any layer, so "
            "it imports neither domain packages nor the sim substrate at "
            "import time; the kernel instruments (profiler, telemetry "
            "sampler) reach down only through deferred sanctioned hooks"
        ),
        scope=("repro.obs",),
        forbid=_DOMAIN_PACKAGES + ("repro.devtools", "repro.sim"),
        runtime_hooks=(
            # the scheduler profiler classifies sim waitables and reads
            # the sanctioned host clock, both lazily at attach/step time
            ("repro.obs.profiler", "repro.sim"),
            # the telemetry sampler yields kernel Timeouts and buffers
            # points in analysis RingSeries, created on first use
            ("repro.obs.sampler", "repro.sim.kernel"),
            ("repro.obs.sampler", "repro.analysis.timeseries"),
        ),
    ),
    Contract(
        name="devtools-self-contained",
        description=(
            "the static analyzer vets the system, so it must not import "
            "it: repro.devtools depends only on itself and the stdlib"
        ),
        scope=("repro.devtools",),
        forbid=_DOMAIN_PACKAGES + (
            "repro.sim", "repro.obs", "repro.errors", "repro.ports",
        ),
    ),
    Contract(
        name="presto-cluster-hook",
        description=(
            "repro.presto never imports repro.cluster at import time; the "
            "one sanctioned runtime hook is PrestoCluster.create deferring "
            "to repro.cluster.membership"
        ),
        scope=("repro.presto",),
        forbid=("repro.cluster",),
        runtime_hooks=(
            ("repro.presto.coordinator", "repro.cluster.membership"),
        ),
    ),
    Contract(
        name="ports-leaf",
        description=(
            "repro.ports is the hexagonal port vocabulary (clock, rng) "
            "and a strict leaf: it imports nothing from repro, "
            "so every layer -- including repro.sim -- may depend on it"
        ),
        scope=("repro.ports",),
        forbid=("repro",),
    ),
    Contract(
        name="cache-core-transport-agnostic",
        description=(
            "the cache core (repro.core / CacheEngine) and the asyncio "
            "service never import the virtual-time substrate repro.sim; "
            "time, randomness, and scheduling arrive via repro.ports.  The "
            "two reviewed adapters that do bridge into the kernel are "
            "core.pagestore.simulated and service.sim_transport"
        ),
        scope=("repro.core", "repro.service"),
        forbid=("repro.sim",),
        exempt=(
            "repro.core.pagestore.simulated",
            "repro.service.sim_transport",
        ),
    ),
    Contract(
        name="errors-leaf",
        description=(
            "repro.errors is the shared exception vocabulary and a strict "
            "leaf: it imports nothing from repro"
        ),
        scope=("repro.errors",),
        forbid=("repro",),
    ),
)


class _GraphRule(Rule):
    """Shared mechanics: collect the graph in check(), report in finish()."""

    include = ("src/repro",)

    def __init__(self, contracts: tuple[Contract, ...] = DEFAULT_CONTRACTS) -> None:
        self.contracts = contracts
        self.graph = ImportGraph()
        self._lines: dict[str, list[str]] = {}

    def check(self, tree: ast.AST, path: str, lines: list[str]) -> Iterator[Finding]:
        if self.graph.add_module(path, tree) is not None:
            self._lines[path] = lines
        return iter(())

    def _finding_at(
        self, path: str, lineno: int, col: int, message: str, hint: str,
    ) -> Finding:
        lines = self._lines.get(path, [])
        snippet = lines[lineno - 1].strip() if 0 < lineno <= len(lines) else ""
        return Finding(
            rule_id=self.rule_id, path=path, line=lineno, col=col,
            message=message, hint=hint, snippet=snippet,
        )

    def _violations(self, *, deferred: bool) -> Iterator[tuple[Contract, str, ImportSite]]:
        """(contract, source module, site) for every forbidden import edge.

        One ``from x import A, B`` statement produces a site per name;
        violations are deduplicated per (module, line, contract).
        """
        seen: set[tuple[str, int, str]] = set()
        for module in sorted(self.graph.sites):
            for contract in self.contracts:
                if not contract.governs(module):
                    continue
                for site in self.graph.sites[module]:
                    if site.type_checking or site.deferred is not deferred:
                        continue
                    if not contract.forbids(site.target):
                        continue
                    if dotted_in(site.target, _PROJECT_ROOT_PACKAGE) and contract.governs(
                        site.target
                    ):
                        # intra-package imports are the package's own business
                        continue
                    if deferred and contract.sanctions(module, site.target):
                        continue
                    key = (module, site.lineno, contract.name)
                    if key in seen:
                        continue
                    seen.add(key)
                    yield contract, module, site


class ImportContractRule(_GraphRule):
    """ARC001: top-level imports respect the declared layering contracts.

    The dependency order of the packages is an invariant like any other:
    ``repro.sim`` staying domain-free is what lets the kernel be reused
    under every scenario, and ``repro.devtools`` staying repo-free is
    what lets the linter vet a broken tree.  A contract violation at
    import time couples layers for every user of the module.
    """

    rule_id = "ARC001"

    def finish(self) -> Iterator[Finding]:
        for contract, module, site in self._violations(deferred=False):
            yield self._finding_at(
                self.graph.paths[module], site.lineno, site.col,
                f"`{module}` imports `{site.target}` at import time; "
                f"contract `{contract.name}` forbids it",
                contract.description,
            )


class DeferredImportHookRule(_GraphRule):
    """ARC002: deferred imports across a forbidden boundary need a hook.

    A function-level import dodges the import-time cycle but still
    couples the layers at runtime.  Each contract names its sanctioned
    runtime hooks (e.g. ``PrestoCluster.create`` ->
    ``repro.cluster.membership``); anything else is a back door.
    """

    rule_id = "ARC002"

    def finish(self) -> Iterator[Finding]:
        for contract, module, site in self._violations(deferred=True):
            hooks = "; ".join(
                f"{source} -> {prefix}" for source, prefix in contract.runtime_hooks
            ) or "none declared"
            yield self._finding_at(
                self.graph.paths[module], site.lineno, site.col,
                f"`{module}` defers an import of `{site.target}` across "
                f"the `{contract.name}` boundary without a sanctioned hook",
                f"sanctioned hooks for this contract: {hooks}; add one to "
                "DEFAULT_CONTRACTS (reviewed) or route through the owning "
                "layer",
            )


class ImportCycleRule(_GraphRule):
    """ARC003: no module-level import cycles.

    Python tolerates package-level cycles resolved through deferred
    imports, but a *module-level* cycle makes import order significant:
    whichever module loads first sees a half-initialized partner.  The
    graph here contains none; this rule keeps it that way.
    """

    rule_id = "ARC003"

    def finish(self) -> Iterator[Finding]:
        for cycle in self.graph.cycles():
            anchor = cycle[0]
            members = set(cycle)
            site = next(
                (
                    s for s in self.graph.sites.get(anchor, ())
                    if not s.deferred and not s.type_checking
                    and self.graph.resolve(s.target) in members
                ),
                None,
            )
            lineno = site.lineno if site is not None else 1
            col = site.col if site is not None else 0
            chain = " -> ".join(cycle + [anchor])
            yield self._finding_at(
                self.graph.paths[anchor], lineno, col,
                f"module-level import cycle: {chain}",
                "break the cycle with a deferred import at the sanctioned "
                "seam or by moving the shared type down a layer",
            )
