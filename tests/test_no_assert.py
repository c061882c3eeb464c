"""Contract checks in the package raise; none is an ``assert``, which
``python -O`` strips."""

import ast
from pathlib import Path

import sparse_outbranch

PACKAGE = Path(sparse_outbranch.__file__).parent


def asserts(source: str, filename: str) -> list[str]:
    return [f"{filename}:{node.lineno}: assert" for node in ast.walk(ast.parse(source, filename))
            if isinstance(node, ast.Assert)]


def test_detector_flags_assert():
    source = ("def f(x):\n    if x < 0:\n        raise ValueError(x)\n"
              "    assert x, 'nonzero'\n    return x\n")
    assert asserts(source, "x.py") == ["x.py:4: assert"]


def test_package_has_no_assert():
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    found = []
    for path in files:
        found += asserts(path.read_text(encoding="utf-8"), path.name)
    assert found == []
