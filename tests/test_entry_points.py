"""Every ``[project.scripts]`` entry point must import and be callable.

A broken console script only surfaces when someone runs it; this smoke
test catches it at test time.  The table is parsed with a regex rather
than ``tomllib`` so it also runs on interpreters without it.
"""

import importlib
import re
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def load_script_entries() -> dict[str, tuple[str, str]]:
    text = PYPROJECT.read_text(encoding="utf-8")
    match = re.search(r"\[project\.scripts\]\n(.*?)(?:\n\[|\Z)", text, re.S)
    assert match, "pyproject.toml has no [project.scripts] table"
    entries: dict[str, tuple[str, str]] = {}
    for line in match.group(1).splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, target = (part.strip() for part in line.partition("="))
        module, _, attr = target.strip('"').partition(":")
        entries[name] = (module, attr)
    return entries


class TestEntryPoints:
    def test_the_expected_scripts_are_declared(self):
        entries = load_script_entries()
        for script in (
            "repro-trace",
            "repro-cachesim",
            "repro-report",
            "repro-perf-viz",
            "repro-cache-server",
            "replint",
        ):
            assert script in entries, f"{script} missing from [project.scripts]"

    def test_every_script_imports_and_resolves_to_a_callable(self):
        for name, (module_name, attr) in load_script_entries().items():
            module = importlib.import_module(module_name)
            target = getattr(module, attr, None)
            assert callable(target), f"{name} -> {module_name}:{attr} is not callable"

    def test_service_scripts_point_at_main(self):
        entries = load_script_entries()
        assert entries["repro-cache-server"] == ("repro.service.server", "main")
