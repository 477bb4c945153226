"""``replint``: repo-specific static analysis that gates CI.

Every number this reproduction reports (hit ratios, blocked-process
counts, chaos-soak recovery curves) is only meaningful because the
simulation is bit-for-bit deterministic.  That property is enforced by
convention -- :class:`~repro.ports.clock.SimClock`,
:class:`~repro.ports.rng.RngStream`, the injectable page time source -- and
conventions rot.  This package is the tooling that keeps them honest:

- :mod:`repro.devtools.rules` -- the pattern rule set (``DET*``
  determinism, ``ERR*`` error accounting, ``MET*`` metric hygiene,
  ``SIM*`` simulation purity, ``API*``/``LOG*`` general hygiene), and the
  :class:`Rule` base whose ``include``/``allow`` path prefixes scope each
  rule (an ``allow`` entry is a *documented exception*, and the only one),
- :mod:`repro.devtools.kernelcheck` -- flow-aware concurrency rules
  over kernel process generators (``KRN001``-``KRN004``: stale shared
  writes across yield points, leaked resource/process handles,
  processes that never run, blocking host calls in the kernel),
- :mod:`repro.devtools.graph` -- the project import graph plus
  architecture contracts declared as data (``ARC001``-``ARC003``:
  forbidden layer imports, unsanctioned deferred imports, module
  cycles),
- :mod:`repro.devtools.driver` -- the rule registry and a single-parse
  AST driver that runs every applicable rule over every file,
- :mod:`repro.devtools.lint` -- the text CLI:
  ``python -m repro.devtools.lint src tests benchmarks``.

The analyzer is gated by its own corpus: seeded bugs under
``tests/devtools/replint_fixtures/`` must be found exactly, and the
real tree must stay clean (``tests/devtools/test_corpus.py``).

The runtime half of the suite -- the determinism sanitizer that replays a
scenario twice and diffs the event-sequence hash -- lives in
:mod:`repro.sim.sanitizer`; CI runs both.
"""

from repro.devtools.driver import LintDriver, default_rules
from repro.devtools.findings import Finding
from repro.devtools.rules import Rule

__all__ = ["Finding", "LintDriver", "Rule", "default_rules"]
