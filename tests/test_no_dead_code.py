"""Every module-level function and class of the package, and every public
method, is referenced somewhere else in the package. Names the benchmark
tracer wraps and documented entry points are exempt. Re-exports in
``__init__`` and other imports do not count as references. A method counts
as referenced only where an attribute of its name is called or passed as
an argument, so an unrelated attribute that shares its name does not keep
it; a property counts on any attribute read."""

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


def definitions(tree: ast.Module, filename: str) -> list[tuple[str, str, bool]]:
    """(name, where, method) for module-level functions and classes and
    for the public methods of module-level classes; ``method`` is false
    for a property, which is read rather than called."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.name, f"{filename}:{node.lineno}", False))
        if isinstance(node, ast.ClassDef):
            found += [(f.name, f"{filename}:{f.lineno}",
                       not any(isinstance(d, ast.Name) and d.id == "property"
                               for d in f.decorator_list))
                      for f in node.body
                      if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")]
    return found


def references(tree: ast.Module) -> tuple[set[str], set[str]]:
    """Names read as a bare name or as an attribute, and the attribute
    names that are called or passed as an argument."""
    read, called = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.Call):
            called.update(a.attr for a in [node.func, *node.args,
                                           *(kw.value for kw in node.keywords)]
                          if isinstance(a, ast.Attribute))
    return read, called


def unreferenced(sources: dict[str, str], exempt: set[str]) -> list[str]:
    trees = {name: ast.parse(text, name) for name, text in sources.items()}
    refs = [references(t) for t in trees.values()]
    read = set().union(*(r for r, _ in refs))
    called = set().union(*(c for _, c in refs))
    return [f"{where}: {name}" for filename, tree in sorted(trees.items())
            for name, where, method in definitions(tree, filename)
            if name not in (called if method else read) and name not in exempt]


def test_detector_flags_unreferenced_names():
    sources = {
        "a.py": ("def used():\n    pass\n"
                 "def dead():\n    pass\n"
                 "class Box:\n"
                 "    def get(self):\n        return used()\n"
                 "    def gone(self):\n        pass\n"
                 "    def _private(self):\n        pass\n"
                 "def traced():\n    pass\n"
                 "class Tree:\n"
                 "    def internal(self):\n        pass\n"
                 "    def passed(self):\n        pass\n"
                 "    @property\n    def size(self):\n        return 0\n"),
        # Grower's attribute shares the name of Tree.internal, never called
        "b.py": ("from .a import Box, Tree, dead\nBox().get()\n"
                 "class Grower:\n"
                 "    def __init__(self, tree):\n"
                 "        self.internal = {tree.size}\n"
                 "        sorted([tree], key=Tree.passed)\n"
                 "Grower(Tree()).internal.clear()\n"),
    }
    assert unreferenced(sources, {"traced"}) == [
        "a.py:3: dead", "a.py:8: gone", "a.py:15: internal"]


def test_package_has_no_dead_code():
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    sources = {p.name: p.read_text(encoding="utf-8") for p in files}
    assert unreferenced(sources, _traced_names() | DOCUMENTED) == []
