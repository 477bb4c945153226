"""Driver and CLI tests for replint.

These exercise the driver and the text CLI end to end over a synthetic
mini-repo in ``tmp_path``, including the acceptance property the CI gate
depends on: seeding a ``time.time()`` call into ``src/repro/core/`` turns
the exit code non-zero.
"""

import pytest

from repro.devtools.driver import LintDriver, collect_files, default_rules
from repro.devtools.findings import Finding
from repro.devtools.lint import main, render_text
from repro.devtools.rules import NoWallClockRule

CLEAN = "def f(clock):\n    return clock.now()\n"
DIRTY = "import time\n\n\ndef stamp():\n    return time.time()\n"


@pytest.fixture()
def mini_repo(tmp_path):
    core = tmp_path / "src" / "repro" / "core"
    core.mkdir(parents=True)
    (core / "clean.py").write_text(CLEAN)
    return tmp_path


def seed_wall_clock(repo):
    (repo / "src" / "repro" / "core" / "seeded.py").write_text(DIRTY)


class TestDriver:
    def test_clean_repo_no_findings(self, mini_repo):
        driver = LintDriver(root=mini_repo)
        assert driver.run(["src"]) == []
        assert driver.files_checked == 1

    def test_seeded_wall_clock_found(self, mini_repo):
        seed_wall_clock(mini_repo)
        findings = LintDriver(root=mini_repo).run(["src"])
        assert [f.rule_id for f in findings] == ["DET001"]
        assert findings[0].path == "src/repro/core/seeded.py"
        assert findings[0].line == 5

    def test_syntax_error_is_a_finding(self, mini_repo):
        bad = mini_repo / "src" / "repro" / "core" / "broken.py"
        bad.write_text("def f(:\n")
        findings = LintDriver(root=mini_repo).run(["src"])
        assert [f.rule_id for f in findings] == ["PARSE"]

    def test_pycache_skipped(self, mini_repo):
        cache = mini_repo / "src" / "repro" / "core" / "__pycache__"
        cache.mkdir()
        (cache / "junk.py").write_text(DIRTY)
        assert LintDriver(root=mini_repo).run(["src"]) == []

    def test_collect_accepts_single_file(self, mini_repo):
        seed_wall_clock(mini_repo)
        files = collect_files(["src/repro/core/seeded.py"], mini_repo)
        assert [f.name for f in files] == ["seeded.py"]

    def test_out_of_scope_paths_untouched(self, mini_repo):
        docs = mini_repo / "docs"
        docs.mkdir()
        (docs / "snippet.py").write_text(DIRTY)
        assert LintDriver(root=mini_repo).run(["docs"]) == []

    def test_registry_holds_every_rule(self):
        assert [rule.rule_id for rule in default_rules()] == [
            "DET001", "DET002", "DET003", "ERR001", "MET001", "SIM001",
            "SIM002", "API001", "LOG001", "TRC001", "CHN001",
            "KRN001", "KRN002", "KRN003", "KRN004",
            "ARC001", "ARC002", "ARC003",
        ]


class TestConfig:
    """A rule's ``allow`` tuple is the one way to exempt code."""

    def _wall_clock_rule(self, *allow):
        rule = NoWallClockRule()
        rule.allow = rule.allow + allow
        return rule

    def test_allowlist_extension_suppresses(self, mini_repo):
        seed_wall_clock(mini_repo)
        rule = self._wall_clock_rule("src/repro/core/seeded.py")
        assert LintDriver(rules=[rule], root=mini_repo).run(["src"]) == []

    def test_directory_allowlist_covers_children(self, mini_repo):
        seed_wall_clock(mini_repo)
        rule = self._wall_clock_rule("src/repro/core")
        assert LintDriver(rules=[rule], root=mini_repo).run(["src"]) == []

    def test_default_allowlists_are_scoped_exceptions(self):
        allow = {rule.rule_id: rule.allow for rule in default_rules()}
        assert "src/repro/core/page.py" in allow["DET001"]
        assert "src/repro/ports/rng.py" in allow["DET002"]
        # the real-transport zone is an explicit allowlist entry, not a
        # directory prefix (DESIGN.md §14)
        assert "src/repro/service/server.py" in allow["DET001"]
        assert "src/repro/service/client.py" in allow["DET001"]


class TestReporters:
    def test_text_format(self):
        finding = Finding(
            rule_id="DET001", path="src/repro/core/x.py", line=3, col=4,
            message="wall-clock read `time.time` in simulation code",
            hint="use SimClock", snippet="t = time.time()",
        )
        text = render_text([finding], files_checked=7)
        assert "src/repro/core/x.py:3:5 DET001" in text
        assert "    | t = time.time()" in text
        assert "hint: use SimClock" in text
        assert text.endswith("replint: 1 finding(s) in 7 file(s)")


class TestCli:
    @pytest.fixture(autouse=True)
    def _in_mini_repo(self, mini_repo, monkeypatch):
        monkeypatch.chdir(mini_repo)

    def test_clean_exit_zero(self, capsys):
        assert main(["src"]) == 0
        assert "replint: 0 finding(s) in 1 file(s)" in capsys.readouterr().out

    def test_seeded_wall_clock_fails_gate(self, mini_repo, capsys):
        """Acceptance: a time.time() seeded into src/repro/core/ must turn
        the lint gate red."""
        seed_wall_clock(mini_repo)
        assert main(["src"]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out and "seeded.py" in out

    def test_no_targets_usage_error(self, capsys):
        assert main([]) == 2
        assert "no targets" in capsys.readouterr().err

    def test_unparsable_file_fails_gate(self, mini_repo, capsys):
        """Acceptance smoke: a syntax error in a target exits non-zero."""
        bad = mini_repo / "src" / "repro" / "core" / "broken.py"
        bad.write_text("def f(:\n")
        assert main(["src"]) == 1
        out = capsys.readouterr().out
        assert "PARSE" in out and "broken.py" in out
