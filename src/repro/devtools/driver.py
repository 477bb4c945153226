"""The lint driver: collect files, parse once, run every applicable rule.

The driver owns the mechanics rules should not care about: walking the
target directories, skipping generated/cache directories, normalizing
paths to repo-relative posix form, parsing each file exactly once, and
collecting per-file plus cross-file (:meth:`Rule.finish`) findings into
one deterministic report.  Syntax errors are findings too (rule
``PARSE``), not crashes -- a file the linter cannot read is a file no rule
has vetted.

It also holds the rule registry, :func:`default_rules`.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable

from repro.devtools.findings import Finding, sort_findings
from repro.devtools.graph import (
    DeferredImportHookRule,
    ImportContractRule,
    ImportCycleRule,
)
from repro.devtools.kernelcheck import (
    BlockingCallInProcessRule,
    LeakedHandleRule,
    StaleSharedWriteRule,
    UniteratedProcessRule,
)
from repro.devtools.rules import (
    AccountedExceptRule,
    MetricNameRule,
    NoClockAdvanceRule,
    NoMutableDefaultRule,
    NoPrintRule,
    NoWallClockRule,
    RingMutationRule,
    Rule,
    SeededRngRule,
    SetOrderRule,
    SimPurityRule,
    SpanLifecycleRule,
)

_SKIP_DIRS = {
    "__pycache__", ".git", ".hypothesis", "repro.egg-info", ".pytest_cache",
    "replint_fixtures",  # seeded-bug corpus: linted only as explicit targets
}


def default_rules() -> list[Rule]:
    """Fresh instances of every rule (MET001, KRN003, and the ARC family
    carry cross-file state)."""
    return [
        NoWallClockRule(),
        SeededRngRule(),
        SetOrderRule(),
        AccountedExceptRule(),
        MetricNameRule(),
        SimPurityRule(),
        NoClockAdvanceRule(),
        NoMutableDefaultRule(),
        NoPrintRule(),
        SpanLifecycleRule(),
        RingMutationRule(),
        StaleSharedWriteRule(),
        LeakedHandleRule(),
        UniteratedProcessRule(),
        BlockingCallInProcessRule(),
        ImportContractRule(),
        DeferredImportHookRule(),
        ImportCycleRule(),
    ]


def collect_files(targets: Iterable[str | Path], root: Path) -> list[Path]:
    """Expand file/directory targets into a sorted list of ``.py`` files."""
    files: set[Path] = set()
    for target in targets:
        path = Path(target)
        if not path.is_absolute():
            path = root / path
        if path.is_dir():
            for candidate in path.rglob("*.py"):
                if not _SKIP_DIRS.intersection(candidate.parts):
                    files.add(candidate)
        elif path.suffix == ".py" and path.exists():
            files.add(path)
    return sorted(files)


def relative_posix(path: Path, root: Path) -> str:
    """Repo-relative posix path; falls back to absolute for outsiders."""
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.resolve().as_posix()


class LintDriver:
    """One lint run: rules over a set of targets, paths relative to ``root``
    (default: the working directory)."""

    def __init__(
        self,
        *,
        rules: list[Rule] | None = None,
        root: Path | None = None,
    ) -> None:
        self.rules = rules if rules is not None else default_rules()
        self.root = (root if root is not None else Path.cwd()).resolve()
        self.files_checked = 0

    def run(self, targets: Iterable[str | Path]) -> list[Finding]:
        """Lint ``targets``; returns every finding, deterministically ordered."""
        findings: list[Finding] = []
        self.files_checked = 0
        for file in collect_files(targets, self.root):
            rel = relative_posix(file, self.root)
            applicable = [r for r in self.rules if r.applies(rel)]
            if not applicable:
                continue
            source = file.read_text(encoding="utf-8")
            lines = source.splitlines()
            self.files_checked += 1
            try:
                tree = ast.parse(source, filename=rel)
            except SyntaxError as exc:
                findings.append(
                    Finding(
                        rule_id="PARSE",
                        path=rel,
                        line=exc.lineno or 1,
                        col=(exc.offset or 1) - 1,
                        message=f"file does not parse: {exc.msg}",
                        hint="replint vets nothing in a file it cannot parse",
                        snippet=(exc.text or "").strip(),
                    )
                )
                continue
            for rule in applicable:
                findings.extend(rule.check(tree, rel, lines))
        for rule in self.rules:
            findings.extend(
                f for f in rule.finish() if rule.applies(f.path)
            )
        return sort_findings(findings)
