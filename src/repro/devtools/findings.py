"""Lint findings: what a rule reports.

A finding pins a rule violation to ``file:line`` and carries a fix hint so
the CI failure message is actionable without opening the linter's source.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at one source location.

    Attributes:
        rule_id: stable identifier, e.g. ``DET001``.
        path: repo-relative posix path of the offending file.
        line: 1-based line number.
        col: 0-based column offset.
        message: what is wrong, in one sentence.
        hint: how to fix it (or how to allowlist it, for sanctioned
            exceptions).
        snippet: the stripped source line, shown in the text report.
    """

    rule_id: str
    path: str
    line: int
    col: int
    message: str
    hint: str = ""
    snippet: str = field(default="", compare=False)

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}"


def sort_findings(findings: list[Finding]) -> list[Finding]:
    """Deterministic report order: path, then line, then rule id."""
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule_id))
