"""Driver, config, baseline, reporter, and CLI tests for replint.

These exercise the framework end to end over a synthetic mini-repo in
``tmp_path``, including the acceptance property the CI gate depends on:
seeding a ``time.time()`` call into ``src/repro/core/`` turns the exit
code non-zero.
"""

import json
import subprocess

import pytest

from repro.devtools.baseline import load_baseline, split_by_baseline, write_baseline
from repro.devtools.config import LintConfig
from repro.devtools.driver import LintDriver, collect_files
from repro.devtools.findings import Finding
from repro.devtools.lint import changed_python_files, main
from repro.devtools.reporters import render_json, render_sarif, render_text

CLEAN = "def f(clock):\n    return clock.now()\n"
DIRTY = "import time\n\n\ndef stamp():\n    return time.time()\n"


def sup(rule_ids):
    """An inline suppression comment, assembled so this test file's own
    source never contains one (the full-repo lint scans tests/ too)."""
    return "# replint" + f": disable={rule_ids}"


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


class TestConfig:
    def test_allowlist_extension_suppresses(self, mini_repo):
        seed_wall_clock(mini_repo)
        config = LintConfig(
            extra_allow={"DET001": ("src/repro/core/seeded.py",)}
        )
        assert LintDriver(config=config, root=mini_repo).run(["src"]) == []

    def test_directory_allowlist_covers_children(self, mini_repo):
        seed_wall_clock(mini_repo)
        config = LintConfig(extra_allow={"DET001": ("src/repro/core",)})
        assert LintDriver(config=config, root=mini_repo).run(["src"]) == []

    def test_disable_rule(self, mini_repo):
        seed_wall_clock(mini_repo)
        config = LintConfig(disabled=frozenset({"DET001"}))
        assert LintDriver(config=config, root=mini_repo).run(["src"]) == []

    def test_load_json_config(self, mini_repo):
        seed_wall_clock(mini_repo)
        cfg = mini_repo / "replint.json"
        cfg.write_text(json.dumps(
            {"DET001": {"allow": ["src/repro/core/seeded.py"]},
             "disable": ["LOG001"]}
        ))
        config = LintConfig.load(cfg)
        assert not config.rule_enabled(type("R", (), {"rule_id": "LOG001"})())
        assert LintDriver(config=config, root=mini_repo).run(["src"]) == []

    def test_default_allowlists_are_scoped_exceptions(self):
        config = LintConfig()
        rows = {row["rule"]: row for row in config.describe()}
        assert "src/repro/core/page.py" in rows["DET001"]["allow"]
        assert "src/repro/ports/rng.py" in rows["DET002"]["allow"]
        # the real-transport zone is an explicit allowlist entry, not a
        # per-line suppression (DESIGN.md §14)
        assert "src/repro/service/server.py" in rows["DET001"]["allow"]
        assert "src/repro/service/client.py" in rows["DET001"]["allow"]
        assert all(row["enabled"] for row in rows.values())


class TestBaseline:
    def test_roundtrip_suppresses_known_findings(self, mini_repo):
        seed_wall_clock(mini_repo)
        findings = LintDriver(root=mini_repo).run(["src"])
        baseline_path = mini_repo / "baseline.json"
        assert write_baseline(baseline_path, findings) == 1
        baselined = load_baseline(baseline_path)
        new, suppressed = split_by_baseline(findings, baselined)
        assert new == [] and len(suppressed) == 1

    def test_fingerprint_survives_line_shift(self, mini_repo):
        seed_wall_clock(mini_repo)
        before = LintDriver(root=mini_repo).run(["src"])
        seeded = mini_repo / "src" / "repro" / "core" / "seeded.py"
        seeded.write_text("# a new comment shifts every line\n" + DIRTY)
        after = LintDriver(root=mini_repo).run(["src"])
        assert before[0].line != after[0].line
        assert before[0].fingerprint() == after[0].fingerprint()

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "nope.json") == frozenset()

    def test_bad_baseline_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"version": 99}')
        with pytest.raises(ValueError):
            load_baseline(bad)


class TestReporters:
    def _finding(self):
        return Finding(
            rule_id="DET001", path="src/repro/core/x.py", line=3, col=4,
            message="wall-clock read `time.time` in simulation code",
            hint="use SimClock", snippet="t = time.time()",
        )

    def test_text_format(self):
        text = render_text([self._finding()], suppressed=2, files_checked=7)
        assert "src/repro/core/x.py:3:5 DET001" in text
        assert "hint: use SimClock" in text
        assert "1 finding(s) in 7 file(s) (2 baselined)" in text

    def test_json_format(self):
        payload = json.loads(
            render_json([self._finding()], suppressed=0, files_checked=7)
        )
        assert payload["summary"] == {
            "findings": 1, "suppressed": 0, "files_checked": 7,
        }
        assert payload["findings"][0]["rule"] == "DET001"
        assert payload["findings"][0]["fingerprint"]


class TestInlineSuppressions:
    def _dirty_with_suppression(self, repo, rule_ids="DET001"):
        (repo / "src" / "repro" / "core" / "seeded.py").write_text(
            "import time\n\n\ndef stamp():\n"
            f"    return time.time()  {sup(rule_ids)}\n"
        )

    def test_matching_suppression_silences_and_is_counted(self, mini_repo):
        self._dirty_with_suppression(mini_repo)
        driver = LintDriver(root=mini_repo)
        assert driver.run(["src"]) == []
        assert driver.inline_suppressed == 1

    def test_comma_list_suppresses_multiple_ids(self, mini_repo):
        self._dirty_with_suppression(mini_repo, "DET001,DET002")
        driver = LintDriver(root=mini_repo)
        # DET001 matched; the DET002 half is stale and must be reported
        findings = driver.run(["src"])
        assert [f.rule_id for f in findings] == ["SUP001"]
        assert "DET002" in findings[0].message
        assert driver.inline_suppressed == 1

    def test_unused_suppression_is_a_finding(self, mini_repo):
        clean = mini_repo / "src" / "repro" / "core" / "clean.py"
        clean.write_text(f"def f(clock):\n    return clock.now()  {sup('DET001')}\n")
        findings = LintDriver(root=mini_repo).run(["src"])
        assert [f.rule_id for f in findings] == ["SUP001"]
        assert findings[0].line == 2
        assert findings[0].snippet.startswith("return clock.now()")

    def test_parse_findings_cannot_be_suppressed(self, mini_repo):
        bad = mini_repo / "src" / "repro" / "core" / "broken.py"
        bad.write_text(f"def f(:  {sup('PARSE')}\n")
        findings = LintDriver(root=mini_repo).run(["src"])
        assert [f.rule_id for f in findings] == ["PARSE"]

    def test_respect_suppressions_false_reports_anyway(self, mini_repo):
        self._dirty_with_suppression(mini_repo)
        driver = LintDriver(root=mini_repo, respect_suppressions=False)
        findings = driver.run(["src"])
        # the real finding surfaces and no SUP001 noise is generated
        assert [f.rule_id for f in findings] == ["DET001"]
        assert driver.inline_suppressed == 0

    def test_suppressed_findings_count_into_cli_summary(self, mini_repo, capsys):
        self._dirty_with_suppression(mini_repo)
        assert main(["src", "--root", str(mini_repo)]) == 0
        assert "(1 baselined)" in capsys.readouterr().out


class TestConfigMergeSemantics:
    def test_include_override_replaces_the_rule_scope(self, mini_repo):
        seed_wall_clock(mini_repo)
        lib = mini_repo / "lib"
        lib.mkdir()
        (lib / "stamp.py").write_text(DIRTY)
        config = LintConfig(include_override={"DET001": ("lib",)})
        findings = [
            f for f in LintDriver(config=config, root=mini_repo).run(["src", "lib"])
            if f.rule_id == "DET001"
        ]
        # the override REPLACES src/repro: only lib/ is in scope now
        assert [f.path for f in findings] == ["lib/stamp.py"]

    def test_extra_allow_merges_over_rule_defaults(self, mini_repo):
        # the shipped DET001 allowlist (core/page.py shim) must survive an
        # extra_allow for an unrelated path
        config = LintConfig(
            extra_allow={"DET001": ("src/repro/core/seeded.py",)}
        )
        rule = next(r for r in LintDriver(root=mini_repo).rules
                    if r.rule_id == "DET001")
        assert not config.applies(rule, "src/repro/core/seeded.py")
        assert not config.applies(rule, "src/repro/core/page.py")
        assert config.applies(rule, "src/repro/core/other.py")

    def test_include_override_and_extra_allow_compose(self, mini_repo):
        lib = mini_repo / "lib"
        lib.mkdir()
        (lib / "stamp.py").write_text(DIRTY)
        (lib / "waived.py").write_text(DIRTY)
        config = LintConfig(
            include_override={"DET001": ("lib",)},
            extra_allow={"DET001": ("lib/waived.py",)},
        )
        findings = [
            f for f in LintDriver(config=config, root=mini_repo).run(["lib"])
            if f.rule_id == "DET001"
        ]
        assert [f.path for f in findings] == ["lib/stamp.py"]

    def test_json_config_include_key_loads_as_override(self, tmp_path):
        cfg = tmp_path / "replint.json"
        cfg.write_text(json.dumps(
            {"DET001": {"include": ["lib"], "allow": ["lib/waived.py"]}}
        ))
        config = LintConfig.load(cfg)
        assert config.include_override == {"DET001": ("lib",)}
        assert config.extra_allow == {"DET001": ("lib/waived.py",)}

    def test_baseline_still_matches_after_line_shift(self, mini_repo):
        """End-to-end fingerprint stability: a baseline written before an
        unrelated edit shifts every line still suppresses the finding."""
        seed_wall_clock(mini_repo)
        findings = LintDriver(root=mini_repo).run(["src"])
        baseline_path = mini_repo / "baseline.json"
        write_baseline(baseline_path, findings)
        seeded = mini_repo / "src" / "repro" / "core" / "seeded.py"
        seeded.write_text("# three new header lines\n# shift the file\n#\n"
                          + DIRTY)
        shifted = LintDriver(root=mini_repo).run(["src"])
        new, suppressed = split_by_baseline(shifted, load_baseline(baseline_path))
        assert new == []
        assert len(suppressed) == 1
        assert suppressed[0].line == findings[0].line + 3


class TestSarifReporter:
    def _finding(self):
        return Finding(
            rule_id="DET001", path="src/repro/core/x.py", line=3, col=4,
            message="wall-clock read `time.time` in simulation code",
            hint="use SimClock", snippet="t = time.time()",
        )

    def test_sarif_shape_and_fingerprint(self):
        payload = json.loads(
            render_sarif([self._finding()], suppressed=0, files_checked=7)
        )
        assert payload["version"] == "2.1.0"
        run = payload["runs"][0]
        rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert "DET001" in rule_ids and "PARSE" in rule_ids
        result = run["results"][0]
        assert result["ruleId"] == "DET001"
        assert result["level"] == "error"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "src/repro/core/x.py"
        assert location["region"]["startLine"] == 3
        assert location["region"]["startColumn"] == 5
        assert result["partialFingerprints"]["replintFingerprint/v1"] == \
            self._finding().fingerprint()

    def test_sup001_maps_to_warning_level(self):
        finding = Finding(
            rule_id="SUP001", path="src/repro/core/x.py", line=1, col=0,
            message="unused suppression: no DET001 finding on this line",
            hint="delete it", snippet="pass",
        )
        payload = json.loads(
            render_sarif([finding], suppressed=0, files_checked=1)
        )
        assert payload["runs"][0]["results"][0]["level"] == "warning"


class TestCli:
    def test_clean_exit_zero(self, mini_repo, capsys):
        assert main(["src", "--root", str(mini_repo)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_seeded_wall_clock_fails_gate(self, mini_repo, capsys):
        """Acceptance: a time.time() seeded into src/repro/core/ must turn
        the lint gate red."""
        seed_wall_clock(mini_repo)
        assert main(["src", "--root", str(mini_repo)]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out and "seeded.py" in out

    def test_baseline_flow(self, mini_repo, capsys):
        seed_wall_clock(mini_repo)
        baseline = str(mini_repo / "baseline.json")
        assert main(["src", "--root", str(mini_repo),
                     "--baseline", baseline, "--write-baseline"]) == 0
        assert main(["src", "--root", str(mini_repo),
                     "--baseline", baseline]) == 0
        assert "(1 baselined)" in capsys.readouterr().out

    def test_json_output(self, mini_repo, capsys):
        seed_wall_clock(mini_repo)
        assert main(["src", "--root", str(mini_repo),
                     "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["findings"] == 1

    def test_no_targets_usage_error(self, capsys):
        assert main([]) == 2
        assert "no targets" in capsys.readouterr().err

    def test_bad_config_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        assert main(["src", "--config", str(cfg)]) == 2
        assert "bad config" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("DET001", "DET002", "DET003", "ERR001",
                        "MET001", "SIM001", "SIM002", "API001", "LOG001",
                        "KRN001", "KRN002", "KRN003", "KRN004",
                        "ARC001", "ARC002", "ARC003"):
            assert rule_id in out

    def test_unparsable_file_fails_gate(self, mini_repo, capsys):
        """Acceptance smoke: a syntax error in a target exits non-zero."""
        bad = mini_repo / "src" / "repro" / "core" / "broken.py"
        bad.write_text("def f(:\n")
        assert main(["src", "--root", str(mini_repo)]) == 1
        out = capsys.readouterr().out
        assert "PARSE" in out and "broken.py" in out

    def test_sarif_format_and_output_file(self, mini_repo, capsys):
        seed_wall_clock(mini_repo)
        sarif_path = mini_repo / "replint.sarif"
        assert main(["src", "--root", str(mini_repo),
                     "--format", "sarif", "--output", str(sarif_path)]) == 1
        # the artifact is SARIF; stdout stays human-readable text
        payload = json.loads(sarif_path.read_text())
        assert payload["runs"][0]["results"][0]["ruleId"] == "DET001"
        assert "DET001" in capsys.readouterr().out


@pytest.fixture()
def git_repo(mini_repo):
    def git(*args):
        subprocess.run(
            ["git", "-c", "user.email=replint@test", "-c", "user.name=replint",
             *args],
            cwd=mini_repo, check=True, capture_output=True,
        )

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "seed")
    return mini_repo


class TestChangedOnly:
    def test_detects_modified_and_untracked_files(self, git_repo):
        (git_repo / "src" / "repro" / "core" / "clean.py").write_text(
            CLEAN + "\n# touched\n"
        )
        seed_wall_clock(git_repo)  # untracked
        assert changed_python_files(git_repo, "HEAD") == [
            "src/repro/core/clean.py",
            "src/repro/core/seeded.py",
        ]

    def test_changed_only_lints_just_the_diff(self, git_repo, capsys):
        seed_wall_clock(git_repo)
        assert main(["src", "--root", str(git_repo), "--changed-only"]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out
        assert "1 file(s)" in out  # clean.py (unchanged) was not scanned

    def test_no_changes_is_a_clean_exit(self, git_repo, capsys):
        assert main(["src", "--root", str(git_repo), "--changed-only"]) == 0
        assert "no changed python files" in capsys.readouterr().out

    def test_changes_outside_targets_are_ignored(self, git_repo, capsys):
        docs = git_repo / "docs"
        docs.mkdir()
        (docs / "snippet.py").write_text(DIRTY)
        assert main(["src", "--root", str(git_repo), "--changed-only"]) == 0
        assert "no changed python files" in capsys.readouterr().out

    def test_deleted_file_does_not_crash_the_run(self, git_repo, capsys):
        (git_repo / "src" / "repro" / "core" / "clean.py").unlink()
        assert main(["src", "--root", str(git_repo), "--changed-only"]) == 0

    def test_outside_a_git_repo_is_a_usage_error(self, mini_repo, capsys):
        assert main(["src", "--root", str(mini_repo), "--changed-only"]) == 2
        assert "git" in capsys.readouterr().err