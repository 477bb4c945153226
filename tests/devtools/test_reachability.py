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
"""

import ast
import re
from pathlib import Path

from repro.devtools.graph import ImportGraph

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


def build_graph() -> ImportGraph:
    graph = ImportGraph()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        relative = path.relative_to(ROOT).as_posix()
        graph.add_module(relative, ast.parse(path.read_text(encoding="utf-8")))
    return graph


def script_imports(path: Path) -> list[str]:
    """Absolute import targets of a file outside ``src/``."""
    targets: list[str] = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            targets += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            targets.append(node.module)
            targets += [f"{node.module}.{alias.name}" for alias in node.names]
    return targets


def roots() -> list[str]:
    found: list[str] = []
    for directory in ("benchmarks", "perfbench", "examples"):
        for path in sorted((ROOT / directory).rglob("*.py")):
            if "tests" not in path.relative_to(ROOT).parts[1:]:
                found += script_imports(path)
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    scripts = re.search(r"\[project\.scripts\]\n(.*?)(?:\n\[|\Z)", pyproject, re.S)
    found += re.findall(r'=\s*"([\w.]+):', scripts.group(1))
    for workflow in sorted((ROOT / ".github" / "workflows").glob("*.yml")):
        found += re.findall(
            r"python3? -m (repro[\w.]*)", workflow.read_text(encoding="utf-8")
        )
    return found


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


class TestReachability:
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
