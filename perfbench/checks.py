"""Output checks that do not trust the program under test.

Each check parses the files and reports the CLI wrote and returns a list
of problems (empty when the output is right). Digests cover what must stay
byte-identical from one version of the program to the next: exit codes,
JSON reports with their timing fields stripped, and output files.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import deque

EXIT_OK, EXIT_ERROR, EXIT_YES, EXIT_NO = 0, 1, 10, 20

# Report keys that legitimately differ between runs or versions.
_VOLATILE_KEYS = ("timing", "stats", "output_file")


class Graph:
    """Just enough of an instance file: header fields and the arc set."""

    def __init__(self, text: str):
        self.kind = None
        self.arcs: set[tuple[int, int]] = set()
        for line in text.splitlines():
            parts = line.split()
            if not parts or parts[0] == "c":
                continue
            if parts[0] == "p":
                self.kind = parts[1]
                self.n, m, self.root, self.k = (int(x) for x in parts[2:6])
            elif parts[0] == "a":
                self.arcs.add((int(parts[1]), int(parts[2])))
        if self.kind is None or len(self.arcs) != m:
            raise ValueError("malformed instance file")

    def reachable_count(self) -> int:
        out: dict[int, list[int]] = {}
        for u, v in self.arcs:
            out.setdefault(u, []).append(v)
        seen = {self.root}
        queue = deque([self.root])
        while queue:
            for w in out.get(queue.popleft(), ()):
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return len(seen)


def read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def stable_report(path: str) -> dict:
    report = json.loads(read(path))
    return {k: v for k, v in report.items() if k not in _VOLATILE_KEYS}


def digest(parts: list) -> str:
    blob = json.dumps(parts, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def check_reduced(source: Graph, reduced_path: str) -> list[str]:
    """A .reduced core is root-connected, keeps k, and is no larger."""
    if not os.path.exists(reduced_path):
        return [f"{reduced_path} missing"]
    core = Graph(read(reduced_path))
    problems = []
    if core.reachable_count() != core.n:
        problems.append("reduced core is not root-connected")
    if core.k != source.k:
        problems.append(f"reduced core changed k from {source.k} to {core.k}")
    if core.n > source.n or len(core.arcs) > len(source.arcs):
        problems.append("reduced core is larger than its input")
    return problems


def check_kernel(source: Graph, exit_code: int, report_path: str,
                 kernel_path: str) -> list[str]:
    """An iob-twins kernel: never YES, cover at most 2k-1, and exactly the
    induced subgraph that its vertex_map names."""
    if exit_code == EXIT_YES:
        return ["iob-twins no-instance answered YES"]
    report = json.loads(read(report_path))
    if exit_code != EXIT_OK:
        return []
    problems = []
    cover = report["kernel"]["cover_size"]
    if cover > max(2 * source.k - 1, 1):
        problems.append(f"cover size {cover} exceeds 2k-1 = {2 * source.k - 1}")
    kernel = Graph(read(kernel_path))
    vmap = {int(old): new for old, new in report["vertex_map"].items()}
    kept = sorted(new for new in vmap.values() if new is not None)
    if kept != list(range(kernel.n)) or vmap.get(source.root) != kernel.root:
        problems.append("vertex_map is not a bijection onto the kernel")
    induced = {(vmap[u], vmap[v]) for u, v in source.arcs
               if vmap.get(u) is not None and vmap.get(v) is not None}
    if induced != kernel.arcs or kernel.k != source.k:
        problems.append("kernel is not the induced subgraph named by vertex_map")
    return problems


def check_solve(core_path: str, exit_code: int, stdout: str, report_path: str) -> list[str]:
    """The witness is an out-branching of the core whose leaf count is the
    printed value, and the exit code matches exactness and k."""
    core = Graph(read(core_path))
    report = json.loads(read(report_path))
    value, exact = report["best_value"], report["exact"]
    lines = stdout.splitlines()
    head = [ln for ln in lines if ln.startswith("leaf optimum")]
    if not head or int(head[0].rsplit(":", 1)[1]) != value:
        return ["printed optimum differs from the report"]
    expected = (EXIT_YES if value >= core.k else EXIT_NO) if exact else EXIT_OK
    problems = [] if exit_code == expected else [f"exit {exit_code}, expected {expected}"]
    wit = [ln for ln in lines if ln.startswith("witness:")]
    parent: dict[int, int] = {}
    for tok in wit[0].split()[1:] if wit else ():
        p, v = (int(x) for x in tok.split("->"))
        parent[v] = p
    if set(parent) != set(range(core.n)) - {core.root}:
        return problems + ["witness does not cover every non-root vertex once"]
    if not all(arc in core.arcs for arc in ((p, v) for v, p in parent.items())):
        return problems + ["witness uses an arc outside the core"]
    for v in parent:
        u, steps = v, 0
        while u != core.root and steps <= core.n:
            u, steps = parent[u], steps + 1
        if u != core.root:
            return problems + ["witness has a cycle"]
    leaves = core.n - len(set(parent.values()))
    if leaves != value:
        problems.append(f"witness has {leaves} leaves, printed {value}")
    return problems
