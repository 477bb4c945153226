"""Per-rule unit tests: each rule fires on its target pattern and stays
quiet on the sanctioned alternative."""

import ast

import pytest

from repro.devtools.rules import (
    AccountedExceptRule,
    MetricNameRule,
    NoClockAdvanceRule,
    NoMutableDefaultRule,
    NoPrintRule,
    NoWallClockRule,
    RingMutationRule,
    SeededRngRule,
    SetOrderRule,
    SimPurityRule,
    SpanLifecycleRule,
)

PATH = "src/repro/core/example.py"


def run_rule(rule, code, path=PATH):
    lines = code.splitlines()
    findings = list(rule.check(ast.parse(code), path, lines))
    findings.extend(rule.finish())
    return findings


class TestDET001WallClock:
    @pytest.mark.parametrize("snippet", [
        "import time\nx = time.time()",
        "import time\nx = time.monotonic()",
        "import time\nx = time.perf_counter()",
        "from datetime import datetime\nx = datetime.now()",
        "import datetime\nx = datetime.datetime.utcnow()",
    ])
    def test_flags_wall_clock_reads(self, snippet):
        findings = run_rule(NoWallClockRule(), snippet)
        assert len(findings) == 1
        assert findings[0].rule_id == "DET001"
        assert "wall-clock" in findings[0].message

    def test_sim_clock_usage_clean(self):
        code = "def f(clock):\n    return clock.now() + 5.0\n"
        assert run_rule(NoWallClockRule(), code) == []

    def test_finding_carries_location_and_hint(self):
        code = "import time\n\n\nstamp = time.time()\n"
        (finding,) = run_rule(NoWallClockRule(), code)
        assert finding.line == 4
        assert finding.location().startswith(f"{PATH}:4:")
        assert "SimClock" in finding.hint
        assert finding.snippet == "stamp = time.time()"


class TestDET002SeededRng:
    def test_flags_random_import(self):
        assert run_rule(SeededRngRule(), "import random")[0].rule_id == "DET002"
        assert run_rule(SeededRngRule(), "from random import choice")

    def test_flags_unseeded_default_rng(self):
        code = "import numpy as np\nrng = np.random.default_rng()"
        (finding,) = run_rule(SeededRngRule(), code)
        assert "unseeded" in finding.message

    def test_flags_numpy_global_state(self):
        code = "import numpy as np\nnp.random.shuffle(x)"
        (finding,) = run_rule(SeededRngRule(), code)
        assert "global-state" in finding.message

    def test_seeded_default_rng_clean(self):
        code = "import numpy as np\nrng = np.random.default_rng([seed, 4])"
        assert run_rule(SeededRngRule(), code) == []


class TestDET003SetOrder:
    def test_flags_list_of_set(self):
        (finding,) = run_rule(SetOrderRule(), "out = list(set(xs))")
        assert finding.rule_id == "DET003"

    def test_flags_append_loop_over_set(self):
        code = "for x in set(xs):\n    out.append(x)\n"
        assert run_rule(SetOrderRule(), code)

    def test_flags_listcomp_over_set(self):
        assert run_rule(SetOrderRule(), "out = [x for x in set(xs)]")

    def test_sorted_is_clean(self):
        assert run_rule(SetOrderRule(), "out = sorted(set(xs))") == []
        assert run_rule(SetOrderRule(), "out = [x for x in sorted(set(xs))]") == []

    def test_membership_and_aggregation_clean(self):
        code = "seen = set(xs)\nif y in seen:\n    n = len(seen) + sum(seen)\n"
        assert run_rule(SetOrderRule(), code) == []


class TestERR001AccountedExcept:
    def test_flags_silent_broad_except(self):
        code = "try:\n    f()\nexcept Exception:\n    pass\n"
        (finding,) = run_rule(AccountedExceptRule(), code)
        assert finding.rule_id == "ERR001"

    def test_flags_bare_except(self):
        code = "try:\n    f()\nexcept:\n    result = None\n"
        assert run_rule(AccountedExceptRule(), code)

    def test_reraise_is_clean(self):
        code = "try:\n    f()\nexcept Exception:\n    raise\n"
        assert run_rule(AccountedExceptRule(), code) == []

    def test_counter_increment_is_clean(self):
        code = (
            "try:\n    f()\nexcept Exception:\n"
            "    metrics.counter('errors').inc()\n"
        )
        assert run_rule(AccountedExceptRule(), code) == []

    def test_augassign_accounting_is_clean(self):
        code = "try:\n    f()\nexcept Exception:\n    errors += 1\n"
        assert run_rule(AccountedExceptRule(), code) == []

    def test_record_error_is_clean(self):
        code = (
            "try:\n    f()\nexcept Exception as exc:\n"
            "    metrics.record_error('get', exc)\n"
        )
        assert run_rule(AccountedExceptRule(), code) == []

    def test_narrow_except_not_in_scope(self):
        code = "try:\n    f()\nexcept ValueError:\n    pass\n"
        assert run_rule(AccountedExceptRule(), code) == []


class TestMET001MetricNames:
    def test_flags_non_snake_case(self):
        (finding,) = run_rule(MetricNameRule(), "m.counter('BadName').inc()")
        assert "snake_case" in finding.message

    def test_flags_kind_conflict_across_files(self):
        rule = MetricNameRule()
        list(rule.check(ast.parse("m.counter('hits').inc()"),
                        "src/repro/a.py", ["m.counter('hits').inc()"]))
        list(rule.check(ast.parse("m.gauge('hits').set(1)"),
                        "src/repro/b.py", ["m.gauge('hits').set(1)"]))
        findings = list(rule.finish())
        assert len(findings) == 1
        assert "multiple kinds" in findings[0].message

    def test_consistent_reuse_is_clean(self):
        rule = MetricNameRule()
        for path in ("src/repro/a.py", "src/repro/b.py"):
            code = "m.counter('get_hits').inc()"
            assert list(rule.check(ast.parse(code), path, [code])) == []
        assert list(rule.finish()) == []

    def test_dynamic_names_skipped(self):
        assert run_rule(MetricNameRule(), "m.counter(name).inc()") == []


class TestSIM001SimPurity:
    @pytest.mark.parametrize("snippet,needle", [
        ("import requests", "requests"),
        ("import socket", "socket"),
        ("from urllib.request import urlopen", "urllib"),
        ("import time\ntime.sleep(1)", "sleep"),
        ("from time import sleep\nsleep(0.5)", "sleep"),
        ("handle = open('x.bin')", "open"),
    ])
    def test_flags_blocking_calls(self, snippet, needle):
        findings = run_rule(SimPurityRule(), snippet)
        assert findings, snippet
        assert any(needle in f.message for f in findings)

    def test_method_named_open_clean(self):
        code = "handle = store.open('x.bin')"
        assert run_rule(SimPurityRule(), code) == []


class TestSIM002NoClockAdvance:
    DOMAIN_PATH = "src/repro/storage/device.py"

    @pytest.mark.parametrize("snippet", [
        "self.clock.advance(1.0)",
        "clock.advance_to(deadline)",
        "setup.clock.advance(0.5)",
    ])
    def test_flags_clock_advance_in_domain_code(self, snippet):
        findings = run_rule(NoClockAdvanceRule(), snippet, path=self.DOMAIN_PATH)
        assert len(findings) == 1
        assert findings[0].rule_id == "SIM002"
        assert "advances the virtual clock" in findings[0].message
        assert "Timeout" in findings[0].hint

    def test_reading_now_is_clean(self):
        code = "start = clock.now()\nwait = clock.now() - start\n"
        assert run_rule(NoClockAdvanceRule(), code, path=self.DOMAIN_PATH) == []

    def test_scope_covers_the_three_domain_packages(self):
        rule = NoClockAdvanceRule()
        assert rule.include == (
            "src/repro/presto", "src/repro/storage", "src/repro/hdfs_cache"
        )
        # harnesses and the sim package itself stay free to drive time
        for prefix in ("benchmarks", "tests", "src/repro/sim"):
            assert not any(inc.startswith(prefix) for inc in rule.include)


class TestAPI001MutableDefaults:
    def test_flags_literal_defaults(self):
        code = "def f(a=[], b={}, c=set()):\n    return a, b, c\n"
        findings = run_rule(NoMutableDefaultRule(), code)
        assert len(findings) == 3

    def test_flags_kwonly_defaults(self):
        code = "def f(*, acc=list()):\n    return acc\n"
        assert run_rule(NoMutableDefaultRule(), code)

    def test_none_default_clean(self):
        code = "def f(a=None, b=(), c='x', n=0):\n    return a, b, c, n\n"
        assert run_rule(NoMutableDefaultRule(), code) == []


class TestLOG001NoPrint:
    def test_flags_print(self):
        (finding,) = run_rule(NoPrintRule(), "print('debug')")
        assert finding.rule_id == "LOG001"

    def test_docstring_examples_clean(self):
        code = '"""Docs.\n\n>>> print(table.render())\n"""\nx = 1\n'
        assert run_rule(NoPrintRule(), code) == []

class TestTRC001SpanLifecycle:
    def test_with_statement_clean(self):
        code = (
            "def f(tracer):\n"
            "    with tracer.span('read', actor='w0') as span:\n"
            "        span.charge('remote', 0.1)\n"
        )
        assert run_rule(SpanLifecycleRule(), code) == []

    def test_try_finally_clean(self):
        code = (
            "def f(tracer):\n"
            "    span = tracer.span('read')\n"
            "    try:\n"
            "        work()\n"
            "    finally:\n"
            "        span.finish()\n"
        )
        assert run_rule(SpanLifecycleRule(), code) == []

    def test_end_span_alias_clean(self):
        code = (
            "def f(tracer):\n"
            "    span = tracer.span('read')\n"
            "    try:\n"
            "        work()\n"
            "    finally:\n"
            "        span.end_span()\n"
        )
        assert run_rule(SpanLifecycleRule(), code) == []

    def test_flags_bare_assignment(self):
        code = (
            "def f(tracer):\n"
            "    span = tracer.span('read')\n"
            "    work()\n"
            "    span.finish()\n"   # not inside a finally: leaks on raise
        )
        (finding,) = run_rule(SpanLifecycleRule(), code)
        assert finding.rule_id == "TRC001"
        assert "guaranteed close" in finding.message

    def test_flags_bare_expression(self):
        code = "def f(tracer):\n    tracer.span('read')\n"
        assert run_rule(SpanLifecycleRule(), code)

    def test_flags_span_passed_inline(self):
        code = "def f(tracer):\n    consume(tracer.span('read'))\n"
        assert run_rule(SpanLifecycleRule(), code)

    def test_flags_start_span_opener(self):
        code = "def f(tracer):\n    tracer.start_span('read')\n"
        assert run_rule(SpanLifecycleRule(), code)

    def test_unrelated_methods_clean(self):
        code = "def f(x):\n    return x.spanner() + x.wingspan\n"
        assert run_rule(SpanLifecycleRule(), code) == []


class TestCHN001RingMutation:
    def test_flags_every_ring_mutator(self):
        code = (
            "def rebalance(ring, now):\n"
            "    ring.add_node('w9')\n"
            "    ring.remove_node('w0')\n"
            "    ring.mark_offline('w1', now)\n"
            "    ring.mark_online('w1')\n"
            "    ring.evict_expired(now)\n"
        )
        findings = run_rule(
            RingMutationRule(), code, path="src/repro/presto/scheduler.py"
        )
        assert [f.rule_id for f in findings] == ["CHN001"] * 5
        assert "direct ring mutation" in findings[0].message
        assert "ClusterMembership" in findings[0].hint

    def test_lookups_clean(self):
        code = (
            "def place(ring, key):\n"
            "    return ring.candidates(key, 2) or [ring.primary(key)]\n"
        )
        assert run_rule(
            RingMutationRule(), code, path="src/repro/presto/scheduler.py"
        ) == []

    def test_scope_excludes_cluster_and_ring_itself(self):
        """The rule covers presto domain code only: the ring implementation
        and the sanctioned repro.cluster write path stay out of scope."""
        rule = RingMutationRule()
        assert rule.applies("src/repro/presto/coordinator.py")
        assert not rule.applies("src/repro/presto/hashring.py")
        assert not rule.applies("src/repro/cluster/membership.py")
        assert not rule.applies("tests/presto/test_hashring.py")


class TestDET001HostClockAllowlist:
    """The sanctioned host-clock API is the only new home of host time."""

    @pytest.mark.parametrize("snippet", [
        "import time\nx = time.process_time()",
        "import time\nx = time.process_time_ns()",
        "import time\nx = time.perf_counter_ns()",
    ])
    def test_cpu_clock_reads_flagged_like_wall_reads(self, snippet):
        findings = run_rule(NoWallClockRule(), snippet)
        assert len(findings) == 1
        assert findings[0].rule_id == "DET001"

    def test_hostclock_module_is_allowlisted(self):
        rule = NoWallClockRule()
        assert not rule.applies("src/repro/sim/hostclock.py")

    @pytest.mark.parametrize("path", [
        "src/repro/sim/kernel.py",
        "src/repro/obs/profiler.py",
        "benchmarks/test_kernel_perf.py",
        "src/repro/sim/hostclock_helpers.py",  # prefix match is exact-file
    ])
    def test_everywhere_else_still_in_scope(self, path):
        rule = NoWallClockRule()
        assert rule.applies(path)
        code = "import time\nx = time.perf_counter()"
        assert len(run_rule(rule, code, path=path)) == 1
