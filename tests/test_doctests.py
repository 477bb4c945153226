"""Run the library's docstring examples as tests."""

import doctest
import importlib

import pytest

MODULE_NAMES = [
    "repro.ports.clock",
    "repro.ports.rng",
    "repro.sim.kernel",
    "repro.core.indexed_set",
    "repro.core.admission.rate_limiter",
    "repro.core.admission.shadow",
    "repro.analysis.report",
]


@pytest.mark.parametrize("module_name", MODULE_NAMES)
def test_doctests(module_name):
    module = importlib.import_module(module_name)
    result = doctest.testmod(module)
    assert result.attempted > 0, f"{module_name} has no doctests"
    assert result.failed == 0
