"""Run the library's docstring examples as tests.

Every ``src/repro`` module whose source holds a ``>>>`` prompt is
collected, so a new example runs without being listed here.
"""

import doctest
import importlib
from pathlib import Path

import pytest

from repro.devtools.graph import module_name_for

ROOT = Path(__file__).resolve().parents[1]

MODULE_NAMES = sorted(
    module_name_for(path.relative_to(ROOT).as_posix())
    for path in (ROOT / "src" / "repro").rglob("*.py")
    if ">>>" in path.read_text(encoding="utf-8")
)


@pytest.mark.parametrize("module_name", MODULE_NAMES)
def test_doctests(module_name):
    module = importlib.import_module(module_name)
    result = doctest.testmod(module)
    assert result.attempted > 0, f"{module_name} has no doctests"
    assert result.failed == 0
