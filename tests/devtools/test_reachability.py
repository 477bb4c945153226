"""Every module under ``src/repro`` is run by something other than its tests.

A module earns its place when a benchmark, a figure, an example, a console
script or a CI step reaches it.  The roots are the imports of
``benchmarks/``, ``perfbench/`` (its own tests excluded) and ``examples/``,
the ``[project.scripts]`` targets and every ``python -m repro...`` target in
CI.  From there the walk follows every import edge in
:class:`~repro.devtools.graph.ImportGraph` except ``TYPE_CHECKING`` ones
(a deferred import runs as soon as its function is called), plus the
parent packages Python imports first.  An import that only re-exports is
not a use: the imports in a package ``__init__`` are no edges of their
own, and ``from pkg import name`` reaches the module that defines
``name``.  A module nothing reaches is either deleted or listed in
:data:`UNREACHED_ON_PURPOSE` with the reason it stays.

The same holds one level down, for public names: every public top-level
function and class in ``src/repro`` and every public method or property of
any class in it.  A name is used when a ``Name``, an attribute, a keyword
argument or a string constant spells it outside the definition's own body,
in ``src/``, ``benchmarks/``, ``perfbench/`` (its tests excluded),
``examples/``, a console script or a CI ``python -m`` target.  String
constants count because callers patch by name (``wrap(cls, "get", ...)``);
docstrings, imports and ``__all__`` entries do not, for the reason above.
A method a base class outside ``repro`` defines is a framework callback
(``asyncio.Protocol.connection_made``), as is an ``ast.NodeVisitor``'s
``visit_<node type>``.  Names in :data:`UNREACHED_ON_PURPOSE` modules are
exempt; any other unused name is deleted or listed in
:data:`NAMES_KEPT_ON_PURPOSE` with the reason it stays.
"""

import ast
import builtins
import importlib
import re
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import Iterator

import pytest

from repro.devtools.graph import ImportGraph, module_name_for

ROOT = Path(__file__).resolve().parents[2]

#: Reviewed exceptions: paper mechanisms kept, with their tests, for a caller
#: that has not landed yet.
UNREACHED_ON_PURPOSE = {
    # restart recovery (§8: layout walk + scope journal); the page store's
    # crash-restart test is its first caller
    "repro.core.recovery",
    # version-qualified file ids and stale-version invalidation (§6.1.1)
    "repro.core.versioning",
    # the page-store contract (the errors each store raises and
    # ``nonblocking_reads``): a declaration nothing needs at runtime
    "repro.core.pagestore.base",
}


#: Reviewed exceptions at name level, each with the reason it stays.
NAMES_KEPT_ON_PURPOSE = {
    # -- test seams: safety checks, one seam per job --------------------------
    # the sanitizer's write-write conflict check (the repo-root conftest's
    # ``write_conflict_detector`` fixture)
    "repro.sim.sanitizer.WriteWriteConflictDetector",
    "repro.sim.sanitizer.WriteWriteConflictDetector.record_write",
    # fault seam: flips a stored page for the §8 corruption tests
    "repro.core.pagestore.simulated.SimulatedSsdPageStore.corrupt",
    # the sim side of tests/service/test_sim_vs_real.py (ROADMAP 6, 13(c))
    "repro.service.sim_transport.SimTransport",
    "repro.service.sim_transport.SimTransport.run_closed_loop",
    # the one way to fake the host clock under the profiler's tests
    "repro.sim.hostclock.installed_host_clock",
    # the synchronous DataSource over real sockets (README's service
    # walkthrough); ROADMAP 5 and 6(b) forward scopes and replay chaos
    # plans through it
    "repro.service.client.RemoteCacheDataSource",
}


@cache
def parsed(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def source_files() -> list[Path]:
    return sorted((ROOT / "src" / "repro").rglob("*.py"))


def root_files() -> list[Path]:
    """The files outside ``src/`` whose uses count: no test of the library."""
    return [
        path
        for directory in ("benchmarks", "perfbench", "examples")
        for path in sorted((ROOT / directory).rglob("*.py"))
        if "tests" not in path.relative_to(ROOT).parts[1:]
    ]


def build_graph() -> ImportGraph:
    graph = ImportGraph()
    for path in source_files():
        graph.add_module(path.relative_to(ROOT).as_posix(), parsed(path))
    return graph


def script_imports(path: Path) -> list[str]:
    """Absolute import targets of a file outside ``src/``."""
    targets: list[str] = []
    for node in ast.walk(parsed(path)):
        if isinstance(node, ast.Import):
            targets += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            targets.append(node.module)
            targets += [f"{node.module}.{alias.name}" for alias in node.names]
    return targets


def entry_points() -> list[str]:
    """The ``[project.scripts]`` functions and the CI ``python -m`` targets."""
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    scripts = re.search(r"\[project\.scripts\]\n(.*?)(?:\n\[|\Z)", pyproject, re.S)
    found = [
        f"{module}.{function}"
        for module, function in re.findall(r'=\s*"([\w.]+):(\w+)"', scripts.group(1))
    ]
    for workflow in sorted((ROOT / ".github" / "workflows").glob("*.yml")):
        found += re.findall(
            r"python3? -m (repro[\w.]*)", workflow.read_text(encoding="utf-8")
        )
    return found


def roots() -> list[str]:
    found: list[str] = []
    for path in root_files():
        found += script_imports(path)
    return found + entry_points()


def is_package(graph: ImportGraph, module: str) -> bool:
    return graph.paths[module].endswith("/__init__.py")


def defining_module(graph: ImportGraph, target: str) -> str | None:
    """The module ``target`` names, looking through package re-exports."""
    module = graph.resolve(target)
    while module is not None and is_package(graph, module):
        name = target[len(module) + 1:].partition(".")[0]
        source = next(
            (
                site.target for site in graph.sites[module]
                if not site.type_checking and site.target.rpartition(".")[2] == name
            ),
            None,
        )
        if source is None or source == target:
            break
        target = source
        module = graph.resolve(target)
    return module


def reachable(graph: ImportGraph, targets: list[str]) -> set[str]:
    seen: set[str] = set()
    todo = [module for target in targets if (module := defining_module(graph, target))]
    while todo:
        module = todo.pop()
        if module in seen:
            continue
        seen.add(module)
        parent = module.rpartition(".")[0]
        if parent in graph.paths:
            todo.append(parent)
        if is_package(graph, module):
            continue
        for site in graph.sites[module]:
            target = None if site.type_checking else defining_module(graph, site.target)
            if target is not None:
                todo.append(target)
    return seen


@dataclass(frozen=True)
class Definition:
    """A public function, class, method or property, and where its body is."""

    qualname: str
    path: str
    first: int
    last: int

    @property
    def name(self) -> str:
        return self.qualname.rpartition(".")[2]


def definitions(module: str, path: str, tree: ast.Module) -> Iterator[Definition]:
    """Top-level functions and classes, and the methods of every class."""

    def walk(body: list[ast.stmt], prefix: str, in_class: bool) -> Iterator[Definition]:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualname = f"{prefix}.{node.name}"
                checked = prefix == module or (
                    in_class and not isinstance(node, ast.ClassDef)
                )
                if checked and not node.name.startswith("_"):
                    yield Definition(qualname, path, node.lineno, node.end_lineno)
                yield from walk(node.body, qualname, isinstance(node, ast.ClassDef))
            elif isinstance(node, (ast.If, ast.Try)):
                yield from walk(node.body, prefix, in_class)

    yield from walk(tree.body, module, False)


def not_uses(tree: ast.Module) -> set[int]:
    """Ids of the string constants that are docstrings or ``__all__`` entries."""
    skipped: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                skipped.add(id(first.value))
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                skipped.update(id(n) for n in ast.walk(node.value))
    return skipped


def uses(tree: ast.Module) -> Iterator[tuple[str, int]]:
    """Every name the file spells, with its line.

    An import is no use of what it imports, but ``import x as y`` is a use
    of ``x``: the file spells ``y`` from then on.
    """
    skipped = not_uses(tree)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.asname:
                    yield alias.name.rpartition(".")[2], node.lineno
        elif isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg, node.lineno
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in skipped
        ):
            yield node.value, node.lineno


def imported_names(tree: ast.Module) -> dict[str, str]:
    """Local name -> the dotted name a module's top-level imports bind it to."""
    bound: dict[str, str] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    bound[alias.asname] = alias.name
                else:
                    head = alias.name.partition(".")[0]
                    bound[head] = head
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return bound


def dotted(node: ast.expr) -> str | None:
    if isinstance(node, ast.Subscript):
        return dotted(node.value)
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        head = dotted(node.value)
        return head and f"{head}.{node.attr}"
    return None


def external_class(name: str) -> type | None:
    """The class a dotted name outside ``repro`` names, if it imports."""
    module, _, attr = name.rpartition(".")
    try:
        found = getattr(importlib.import_module(module or "builtins"), attr)
    except (ImportError, AttributeError):
        return None
    return found if isinstance(found, type) else None


def is_framework_callback(cls: type, method: str) -> bool:
    if hasattr(cls, method):
        return True
    kind = method.removeprefix("visit_")
    return (
        issubclass(cls, ast.NodeVisitor)
        and kind != method
        and isinstance(getattr(ast, kind, None), type)
    )


def framework_callbacks(trees: dict[str, ast.Module]) -> set[tuple[str, int]]:
    """(module, line) of each method a base class outside ``repro`` defines."""
    classes: dict[str, list[tuple[str, ast.ClassDef]]] = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                classes.setdefault(node.name, []).append((module, node))

    def external_bases(module: str, node: ast.ClassDef, seen: set[int]) -> list[type]:
        if id(node) in seen:
            return []
        seen.add(id(node))
        bound = imported_names(trees[module])
        found: list[type] = []
        for base in node.bases:
            name = dotted(base)
            if name is None:
                continue
            head, _, rest = name.partition(".")
            full = bound.get(head, head if head in vars(builtins) else None)
            if full is None or full.startswith("repro.") or full == "repro":
                for parent_module, parent in classes.get(name.rpartition(".")[2], []):
                    found += external_bases(parent_module, parent, seen)
            else:
                cls = external_class(f"{full}.{rest}" if rest else full)
                if cls is not None:
                    found.append(cls)
        return found

    callbacks: set[tuple[str, int]] = set()
    for defined in classes.values():
        for module, node in defined:
            bases = external_bases(module, node, set())
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                    is_framework_callback(base, item.name) for base in bases
                ):
                    callbacks.add((module, item.lineno))
    return callbacks


def unused_names(
    sources: dict[str, ast.Module],
    users: dict[str, ast.Module],
    spelled: set[str] = frozenset(),
    kept: set[str] = frozenset(),
) -> set[str]:
    """Public names in ``sources`` (path -> tree) nothing in them or ``users`` uses.

    ``spelled`` holds names used from outside Python (console scripts, CI).
    A use inside an unused definition is no use, so the search repeats until
    nothing new turns up; uses inside a ``kept`` definition still count.
    """
    modules = {path: module_name_for(path) for path in sources}
    used_at: dict[str, list[tuple[str, int]]] = {}
    for path, tree in {**sources, **users}.items():
        for name, line in uses(tree):
            used_at.setdefault(name, []).append((path, line))
    callbacks = framework_callbacks({modules[path]: tree for path, tree in sources.items()})
    checked = [
        definition
        for path, tree in sources.items()
        if modules[path] not in UNREACHED_ON_PURPOSE
        for definition in definitions(modules[path], path, tree)
        if definition.name not in spelled
        and (modules[path], definition.first) not in callbacks
    ]

    def unused(dead: list[Definition]) -> list[Definition]:
        def counts(definition: Definition, path: str, line: int) -> bool:
            return not any(
                body.path == path and body.first <= line <= body.last
                for body in (definition, *dead)
            )

        return [
            definition for definition in checked
            if not any(
                counts(definition, path, line)
                for path, line in used_at.get(definition.name, ())
            )
        ]

    found: list[Definition] = []
    while True:
        dead = [definition for definition in found if definition.qualname not in kept]
        previous, found = found, unused(dead)
        if found == previous:
            return {definition.qualname for definition in found}


def check_names(unused: set[str], kept: set[str]) -> None:
    dead = sorted(unused - kept)
    assert not dead, (
        f"{len(dead)} public name(s) only tests use: {dead}; wire them in, "
        f"delete them or list them in NAMES_KEPT_ON_PURPOSE"
    )
    stale = sorted(kept - unused)
    assert not stale, f"used or gone, drop from NAMES_KEPT_ON_PURPOSE: {stale}"


def project_unused_names() -> set[str]:
    sources = {path.relative_to(ROOT).as_posix(): parsed(path) for path in source_files()}
    users = {path.relative_to(ROOT).as_posix(): parsed(path) for path in root_files()}
    spelled = {target.rpartition(".")[2] for target in entry_points()}
    return unused_names(sources, users, spelled, NAMES_KEPT_ON_PURPOSE)


class TestReachability:
    def test_every_public_name_is_used_or_listed(self):
        check_names(project_unused_names(), NAMES_KEPT_ON_PURPOSE)

    def test_every_module_is_reached_or_listed(self):
        graph = build_graph()
        unreached = set(graph.paths) - reachable(graph, roots())
        dead = sorted(unreached - UNREACHED_ON_PURPOSE)
        assert not dead, (
            f"{len(dead)} module(s) no benchmark, example, console script or "
            f"CI step imports: {dead}; wire them in or delete them"
        )
        stale = sorted(UNREACHED_ON_PURPOSE - unreached)
        assert not stale, f"reached or gone, drop from the allowlist: {stale}"

    def test_the_walk_follows_deferred_imports_and_parent_packages(self):
        graph = ImportGraph()
        sources = {
            "src/repro/__init__.py": "",
            "src/repro/a/__init__.py": "",
            "src/repro/a/b.py": "def f():\n    from repro.c import g\n",
            "src/repro/c.py": (
                "from typing import TYPE_CHECKING\n"
                "if TYPE_CHECKING:\n    from repro import d\n"
                "def g():\n    pass\n"
            ),
            "src/repro/d.py": "",
        }
        for path, text in sources.items():
            graph.add_module(path, ast.parse(text))
        assert reachable(graph, ["repro.a.b.f"]) == {
            "repro", "repro.a", "repro.a.b", "repro.c",
        }

    def test_a_re_export_is_not_a_use(self):
        graph = ImportGraph()
        sources = {
            "src/repro/__init__.py": "",
            "src/repro/main.py": "from repro.p import f\n",
            "src/repro/p/__init__.py": (
                "from repro.p.used import f\nfrom repro.p.unused import g\n"
            ),
            "src/repro/p/used.py": "def f():\n    pass\n",
            "src/repro/p/unused.py": "def g():\n    pass\n",
        }
        for path, text in sources.items():
            graph.add_module(path, ast.parse(text))
        expected = {"repro", "repro.p", "repro.p.used"}
        assert reachable(graph, ["repro.p.f"]) == expected
        assert reachable(graph, ["repro.main"]) == expected | {"repro.main"}


def unused_in(
    sources: dict[str, str], users: dict[str, str], kept: set[str] = frozenset()
) -> set[str]:
    def parse(files: dict[str, str]) -> dict[str, ast.Module]:
        return {path: ast.parse(text) for path, text in files.items()}

    return unused_names(parse(sources), parse(users), kept=kept)


class TestNameUse:
    def test_a_use_inside_an_unused_definition_is_no_use(self):
        sources = {
            "src/repro/m.py": (
                "def merged():\n    return merge()\n\n"
                "def merge():\n    return merge()\n"
            ),
        }
        assert unused_in(sources, {}) == {"repro.m.merged", "repro.m.merge"}
        kept = {"repro.m.merged"}
        assert unused_in(sources, {}, kept) == kept

    def test_a_docstring_mention_is_not_a_use(self):
        sources = {"src/repro/m.py": "def f():\n    pass\n"}
        users = {"benchmarks/b.py": '"""Calls f."""\n\ndef g():\n    """f"""\n'}
        assert unused_in(sources, users) == {"repro.m.f"}

    def test_an_all_entry_is_not_a_use(self):
        sources = {
            "src/repro/p/__init__.py": (
                "from repro.p.m import f\n__all__ = [\"f\"]\n__all__ += [\"f\"]\n"
            ),
            "src/repro/p/m.py": "def f():\n    pass\n",
        }
        assert unused_in(sources, {}) == {"repro.p.m.f"}

    def test_a_string_constant_outside_a_docstring_is_a_use(self):
        sources = {"src/repro/m.py": "class C:\n    def get(self):\n        pass\n"}
        users = {
            "perfbench/tracing.py": (
                "from repro.m import C\n\n"
                "def wrap(cls, name):\n    return getattr(cls, name)\n\n"
                "wrap(C, \"get\")\n"
            ),
        }
        assert unused_in(sources, users) == set()

    def test_framework_callbacks_count_as_used(self):
        sources = {
            "src/repro/m.py": (
                "import ast\nfrom asyncio import Protocol\n\n"
                "class P(Protocol):\n"
                "    def connection_made(self, transport):\n        pass\n"
                "    def helper(self):\n        pass\n\n"
                "class Q(P):\n"
                "    def data_received(self, data):\n        pass\n\n"
                "class V(ast.NodeVisitor):\n"
                "    def visit_If(self, node):\n        pass\n"
                "    def visit_Nothing(self, node):\n        pass\n"
            ),
        }
        users = {"examples/e.py": "from repro.m import Q, V\nQ()\nV()\n"}
        assert unused_in(sources, users) == {
            "repro.m.P.helper", "repro.m.V.visit_Nothing",
        }

    def test_a_stale_kept_entry_fails(self):
        sources = {"src/repro/m.py": "def f():\n    pass\n\ndef g():\n    pass\n"}
        users = {"examples/e.py": "from repro.m import f\nf()\n"}
        kept = {"repro.m.f", "repro.m.g"}
        unused = unused_in(sources, users, kept)
        assert unused == {"repro.m.g"}
        with pytest.raises(AssertionError, match=r"drop from NAMES_KEPT_ON_PURPOSE: \['repro.m.f'\]"):
            check_names(unused, kept)
        with pytest.raises(AssertionError, match="only tests use"):
            check_names(unused, set())
        check_names(unused, {"repro.m.g"})
