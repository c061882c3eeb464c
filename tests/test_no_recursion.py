"""Nothing in the package may depend on the interpreter's recursion limit:
no function calls itself by name and no generator delegates with
``yield from``."""

import ast
from pathlib import Path

import sparse_outbranch

PACKAGE = Path(sparse_outbranch.__file__).parent


def _self_calls(fn: ast.AST) -> list[int]:
    lines = []
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Name) and f.id == fn.name:
            lines.append(node.lineno)
        elif (isinstance(f, ast.Attribute) and f.attr == fn.name
              and isinstance(f.value, ast.Name) and f.value.id in ("self", "cls")):
            lines.append(node.lineno)
    return lines


def offenders(source: str, filename: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += [f"{filename}:{line}: {node.name} calls itself"
                      for line in _self_calls(node)]
        elif isinstance(node, ast.YieldFrom):
            found.append(f"{filename}:{node.lineno}: yield from")
    return found


def test_detector_flags_recursion():
    source = ("def f(n):\n    return f(n - 1)\n"
              "class A:\n    def g(self):\n        self.g()\n"
              "def h():\n    yield from h2()\n"
              "def ok(x):\n    return x.ok()\n")
    assert offenders(source, "x.py") == ["x.py:2: f calls itself",
                                         "x.py:5: g calls itself",
                                         "x.py:7: yield from"]


def test_package_has_no_recursion():
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    found = []
    for path in files:
        found += offenders(path.read_text(encoding="utf-8"), path.name)
    assert found == []
