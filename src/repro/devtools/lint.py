"""``replint`` CLI -- the determinism + architecture lint gate.

Usage::

    python -m repro.devtools.lint src tests benchmarks

Targets are files or directories, relative to the working directory (the
repo root).  Exit codes: 0 no findings, 1 findings, 2 no targets given.
CI runs exactly the command above; a single stray ``time.time()`` in
``src/repro/`` fails the job.  To exempt code from a rule, add a
documented entry to that rule's ``allow`` tuple in
:mod:`repro.devtools.rules`.
"""

from __future__ import annotations

import argparse
import sys

from repro.devtools.driver import LintDriver
from repro.devtools.findings import Finding, sort_findings


def render_text(findings: list[Finding], *, files_checked: int = 0) -> str:
    """``path:line:col RULE message`` per finding (clickable in editors and
    CI logs), then the offending source line and the fix hint; last, the
    summary line."""
    lines: list[str] = []
    for finding in sort_findings(findings):
        lines.append(f"{finding.location()} {finding.rule_id} {finding.message}")
        if finding.snippet:
            lines.append(f"    | {finding.snippet}")
        if finding.hint:
            lines.append(f"    = hint: {finding.hint}")
    lines.append(
        f"replint: {len(findings)} finding(s) in {files_checked} file(s)"
    )
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="replint",
        description="Determinism lint for the repro codebase.",
    )
    parser.add_argument(
        "targets", nargs="*", default=[],
        help="files or directories to lint (e.g. src tests benchmarks)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if not args.targets:
        print("replint: no targets given (try: src tests benchmarks)",
              file=sys.stderr)
        return 2
    driver = LintDriver()
    findings = driver.run(args.targets)
    print(render_text(findings, files_checked=driver.files_checked))
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
