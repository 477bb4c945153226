"""The analyzer acceptance gate: seeded bugs caught, clean tree clean.

Two halves, both exact:

1. The fixtures corpus under ``tests/devtools/replint_fixtures/`` plants
   one bug per KRN rule, marked with ``# replint-expect: <RULE>``
   comments; the analyzer must report *exactly* the marked set (no
   misses, no false positives -- the control fixture contributes zero).
   ARC fixtures are miniature repos built in ``tmp_path`` because a
   layering violation needs a whole (small) project around it.
2. The real ``src/repro`` tree must carry **zero** KRN/ARC findings.
   CI runs this module as its own job.
"""

from __future__ import annotations

import re
from pathlib import Path

import repro
from repro.devtools.driver import LintDriver
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

REPO_ROOT = Path(repro.__file__).resolve().parents[2]
FIXTURES = REPO_ROOT / "tests" / "devtools" / "replint_fixtures"
FIXTURES_REL = "tests/devtools/replint_fixtures"
KRN_IDS = ("KRN001", "KRN002", "KRN003", "KRN004")
ARC_IDS = ("ARC001", "ARC002", "ARC003")

_EXPECT_RE = re.compile(r"#\s*replint-expect:\s*([A-Z]{3}\d{3})")


def kernel_rules():
    return [
        StaleSharedWriteRule(),
        LeakedHandleRule(),
        UniteratedProcessRule(),
        BlockingCallInProcessRule(),
    ]


def fixture_scoped_kernel_rules():
    """The KRN rules with their scope narrowed to the fixtures corpus
    (which the default ``include`` does not cover)."""
    rules = kernel_rules()
    for rule in rules:
        rule.include = (FIXTURES_REL,)
    return rules


def graph_rules():
    return [ImportContractRule(), DeferredImportHookRule(), ImportCycleRule()]


def expected_markers(files):
    expected = set()
    for file in files:
        rel = file.relative_to(REPO_ROOT).as_posix()
        for lineno, line in enumerate(
            file.read_text(encoding="utf-8").splitlines(), start=1
        ):
            match = _EXPECT_RE.search(line)
            if match:
                expected.add((rel, lineno, match.group(1)))
    return expected


class TestKernelCorpus:
    def test_seeded_bugs_exact_match(self):
        """Every marked line found; nothing unmarked found."""
        files = sorted(FIXTURES.glob("*.py"))
        assert len(files) >= 6  # the corpus exists and was collected
        expected = expected_markers(files)
        assert {rule for _, __, rule in expected} == set(KRN_IDS)
        driver = LintDriver(rules=fixture_scoped_kernel_rules(), root=REPO_ROOT)
        found = {
            (f.path, f.line, f.rule_id) for f in driver.run(files)
        }
        assert found == expected

    def test_control_fixture_is_clean(self):
        driver = LintDriver(rules=fixture_scoped_kernel_rules(), root=REPO_ROOT)
        assert driver.run([FIXTURES / "clean_process.py"]) == []


def _write(root: Path, rel: str, text: str) -> None:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


class TestArcCorpus:
    def _run(self, root: Path):
        driver = LintDriver(rules=graph_rules(), root=root)
        return driver.run(["src"])

    def test_arc001_top_level_contract_violation(self, tmp_path):
        _write(tmp_path, "src/repro/sim/scheduler.py",
               "from repro.presto.split import Split\n")
        findings = self._run(tmp_path)
        assert [f.rule_id for f in findings] == ["ARC001"]
        assert findings[0].path == "src/repro/sim/scheduler.py"
        assert findings[0].line == 1
        assert "sim-substrate-purity" in findings[0].message

    def test_arc002_deferred_import_without_hook(self, tmp_path):
        _write(
            tmp_path, "src/repro/presto/scheduler.py",
            "def rebuild():\n"
            "    from repro.cluster.lifecycle import ClusterLifecycle\n"
            "    return ClusterLifecycle\n",
        )
        findings = self._run(tmp_path)
        assert [f.rule_id for f in findings] == ["ARC002"]
        assert findings[0].line == 2
        assert "presto-cluster-hook" in findings[0].message

    def test_arc002_sanctioned_hook_is_silent(self, tmp_path):
        _write(
            tmp_path, "src/repro/presto/coordinator.py",
            "def create():\n"
            "    from repro.cluster.membership import ClusterMembership\n"
            "    return ClusterMembership\n",
        )
        assert self._run(tmp_path) == []

    def test_arc001_type_checking_import_is_exempt(self, tmp_path):
        _write(
            tmp_path, "src/repro/presto/coordinator.py",
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from repro.cluster.membership import ClusterMembership\n",
        )
        assert self._run(tmp_path) == []

    def test_arc003_module_cycle(self, tmp_path):
        _write(tmp_path, "src/repro/core/alpha.py",
               "from repro.storage.beta import beta\n\nalpha = 1\n")
        _write(tmp_path, "src/repro/storage/beta.py",
               "from repro.core.alpha import alpha\n\nbeta = 2\n")
        findings = self._run(tmp_path)
        assert [f.rule_id for f in findings] == ["ARC003"]
        assert "repro.core.alpha" in findings[0].message
        assert "repro.storage.beta" in findings[0].message


class TestRealTreeIsCleanForNewRules:
    def test_src_repro_zero_krn_arc_findings(self):
        """Acceptance: zero KRN/ARC findings on post-fix src/repro."""
        driver = LintDriver(rules=kernel_rules() + graph_rules(), root=REPO_ROOT)
        findings = [
            f for f in driver.run(["src"])
            if f.rule_id in KRN_IDS + ARC_IDS
        ]
        assert findings == []
