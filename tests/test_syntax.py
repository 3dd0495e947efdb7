"""Every Python file of the package, its tests, its benchmark and its
tools parses as the oldest Python pyproject.toml accepts, so newer syntax
cannot slip in while the tests run on a newer interpreter."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(path for folder in ("src", "tests", "perfbench", "tools")
                 for path in (ROOT / folder).rglob("*.py"))


def oldest_python() -> tuple:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', text).groups()
    return int(major), int(minor)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_at_the_oldest_python(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
              feature_version=oldest_python())
