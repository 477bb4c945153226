"""The lint gate, enforced from tier-1: the repo lints clean.

CI runs ``python -m repro.devtools.lint src tests benchmarks`` as its own
job, but running the same check from the test suite means a violation
fails *every* local ``pytest`` run too -- nobody needs to remember the
extra command.  Every finding the rules surfaced was fixed at the source.
"""

from pathlib import Path

import repro
from repro.devtools.driver import LintDriver

REPO_ROOT = Path(repro.__file__).resolve().parents[2]


class TestRepoLintsClean:
    def test_zero_findings(self):
        driver = LintDriver(root=REPO_ROOT)
        findings = driver.run(["src", "tests", "benchmarks"])
        assert findings == [], "\n".join(
            f"{f.location()} {f.rule_id} {f.message}" for f in findings
        )
        # sanity: the run actually looked at the codebase
        assert driver.files_checked > 150
