"""Every module under ``src/repro`` is run by something other than its tests.

A module earns its place when a benchmark, a figure, an example, a console
script or a CI step reaches it.  The roots are the imports of
``benchmarks/``, ``perfbench/`` (its own tests excluded) and ``examples/``,
the ``[project.scripts]`` targets and every ``python -m repro...`` target in
CI.  From there the walk follows every import edge in
:class:`~repro.devtools.graph.ImportGraph` except ``TYPE_CHECKING`` ones
(a deferred import runs as soon as its function is called), plus the
parent packages Python imports first.  A module nothing reaches is either
deleted or listed in :data:`UNREACHED_ON_PURPOSE` with the reason it stays.
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


def reachable(graph: ImportGraph, targets: list[str]) -> set[str]:
    seen: set[str] = set()
    todo = [module for module in map(graph.resolve, targets) if module]
    while todo:
        module = todo.pop()
        if module in seen:
            continue
        seen.add(module)
        parent = module.rpartition(".")[0]
        if parent in graph.paths:
            todo.append(parent)
        for site in graph.sites[module]:
            target = None if site.type_checking else graph.resolve(site.target)
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
