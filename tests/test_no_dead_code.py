"""Every module-level function and class of the package, and every public
method, is referenced somewhere else in the package. Names the benchmark
tracer wraps and documented entry points are exempt. Re-exports in
``__init__`` and other imports do not count as references."""

import ast
import importlib.util
from pathlib import Path

import sparse_outbranch

PACKAGE = Path(sparse_outbranch.__file__).parent
TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# documented API that the pipelines themselves do not call: a reduction
# trace renders to text and replays against the original instance
DOCUMENTED = {"serialize", "replay_trace"}


def _traced_names() -> set[str]:
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {fn for fns in tracer.LAYERS.values() for fn in fns}


def definitions(tree: ast.Module, filename: str) -> list[tuple[str, str]]:
    """(name, where) for module-level functions and classes and for the
    public methods of module-level classes."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.name, f"{filename}:{node.lineno}"))
        if isinstance(node, ast.ClassDef):
            found += [(f.name, f"{filename}:{f.lineno}") for f in node.body
                      if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")]
    return found


def references(tree: ast.Module) -> set[str]:
    """Names read as a bare name or as an attribute."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
    return refs


def unreferenced(sources: dict[str, str], exempt: set[str]) -> list[str]:
    trees = {name: ast.parse(text, name) for name, text in sources.items()}
    refs = set().union(*(references(t) for t in trees.values()))
    return [f"{where}: {name}" for filename, tree in sorted(trees.items())
            for name, where in definitions(tree, filename)
            if name not in refs and name not in exempt]


def test_detector_flags_unreferenced_names():
    sources = {
        "a.py": ("def used():\n    pass\n"
                 "def dead():\n    pass\n"
                 "class Box:\n"
                 "    def get(self):\n        return used()\n"
                 "    def gone(self):\n        pass\n"
                 "    def _private(self):\n        pass\n"
                 "def traced():\n    pass\n"),
        "b.py": "from .a import Box, dead\nBox().get()\n",
    }
    assert unreferenced(sources, {"traced"}) == ["a.py:3: dead", "a.py:8: gone"]


def test_package_has_no_dead_code():
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    sources = {p.name: p.read_text(encoding="utf-8") for p in files}
    assert unreferenced(sources, _traced_names() | DOCUMENTED) == []
