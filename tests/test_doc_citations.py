"""DESIGN.md and README.md cite only paths and modules that exist.

Every ``src/``, ``tests/`` or ``benchmarks/`` path in the two documents
must name a file or folder, and every dotted ``repro.*`` name must import:
a module, then attributes of it (``repro.core.engine.CacheEngine.get``).
Fenced ``text`` blocks are sample output and are not checked.
"""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("DESIGN.md", "README.md")
PATH = re.compile(r"(?<![\w./-])((?:src|tests|benchmarks)/[\w./-]*\w)")
DOTTED = re.compile(r"(?<![\w./-])(repro(?:\.\w+)+)")


def cited_lines(text: str):
    """``(line number, line)`` of a document, outside ``text`` fences."""
    fence = None
    for number, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if stripped.startswith("```"):
            fence = stripped[3:] if fence is None else None
        elif fence != "text":
            yield number, line


def imports(dotted: str) -> bool:
    parts = dotted.split(".")
    for end in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:end]))
        except ModuleNotFoundError:
            continue
        for attribute in parts[end:]:
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


@pytest.mark.parametrize("doc", DOCS)
def test_cited_paths_exist(doc):
    missing = [
        f"{doc}:{number} {path}"
        for number, line in cited_lines((ROOT / doc).read_text(encoding="utf-8"))
        for path in PATH.findall(line)
        if not (ROOT / path).exists()
    ]
    assert not missing, missing


@pytest.mark.parametrize("doc", DOCS)
def test_cited_modules_exist(doc):
    missing = [
        f"{doc}:{number} {name}"
        for number, line in cited_lines((ROOT / doc).read_text(encoding="utf-8"))
        for name in DOTTED.findall(line)
        if not imports(name)
    ]
    assert not missing, missing


def test_sample_output_is_not_checked():
    text = (
        "```text\nsrc/repro/made_up.py:1:1 KRN003\n```\n"
        "```python\nimport repro.made_up\n```\n"
    )
    assert [line for __, line in cited_lines(text)] == ["import repro.made_up"]
    assert not imports("repro.made_up")
    assert imports("repro.core.engine.CacheEngine.get")
