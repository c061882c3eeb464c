"""Instance file format.

Line-oriented text, 0-based vertex ids:

    c free-form comment
    p <lob|iob> <n> <m> <root> <k>
    a <u> <v>

Exactly one p-line, then m a-lines. For iob instances any arcs entering
the root are dropped at parse time (with a warning), matching the
prescribed-root convention; for lob they are a hard error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .digraph import RootedDigraph


class ParseError(ValueError):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


@dataclass
class InstanceFile:
    kind: str  # "lob" | "iob"
    graph: RootedDigraph
    k: int
    comments: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


def parse_instance(text: str) -> InstanceFile:
    kind = None
    n = m = root = k = 0
    arcs: list[tuple[int, int]] = []
    comments: list[str] = []
    warnings: list[str] = []
    seen_p = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        tag = parts[0]
        if tag == "c":
            comments.append(line[2:] if len(line) > 2 else "")
            continue
        if tag == "p":
            if seen_p:
                raise ParseError(lineno, "duplicate p line")
            if len(parts) != 6:
                raise ParseError(lineno, "expected: p <lob|iob> <n> <m> <root> <k>")
            kind = parts[1]
            if kind not in ("lob", "iob"):
                raise ParseError(lineno, f"unknown problem kind {kind!r}")
            try:
                n, m, root, k = (int(x) for x in parts[2:])
            except ValueError:
                raise ParseError(lineno, "non-integer field in p line") from None
            if n <= 0 or m < 0 or not 0 <= root < n or k < 0:
                raise ParseError(lineno, "p line fields out of range")
            seen_p = True
            continue
        if tag == "a":
            if not seen_p:
                raise ParseError(lineno, "a line before p line")
            if len(parts) != 3:
                raise ParseError(lineno, "expected: a <u> <v>")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError(lineno, "non-integer arc endpoint") from None
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(lineno, f"arc ({u},{v}) out of range for n={n}")
            if u == v:
                raise ParseError(lineno, f"self-loop at {u}")
            if v == root:
                if kind == "iob":
                    warnings.append(f"line {lineno}: dropped in-arc ({u},{v}) of the root")
                    continue
                raise ParseError(lineno, f"arc ({u},{v}) enters the root of a lob instance")
            arcs.append((u, v))
            continue
        raise ParseError(lineno, f"unknown line tag {tag!r}")
    if not seen_p:
        raise ParseError(0, "missing p line")
    declared_dropped = m - len(arcs) - len(warnings)
    if declared_dropped != 0:
        raise ParseError(0, f"p line declares {m} arcs, found {len(arcs) + len(warnings)}")
    if len(set(arcs)) != len(arcs):
        dupes = sorted({a for a in arcs if arcs.count(a) > 1})
        raise ParseError(0, f"duplicate arcs {dupes[:3]}")
    graph = RootedDigraph(n, root, arcs)
    return InstanceFile(kind, graph, k, comments, warnings)


def serialize_instance(kind: str, graph: RootedDigraph, k: int,
                       comments: Iterable[str] = ()) -> str:
    if kind not in ("lob", "iob"):
        raise ValueError(f"unknown problem kind {kind!r}")
    lines = [f"c {c}".rstrip() for c in comments]
    lines.append(f"p {kind} {graph.n} {graph.m} {graph.root} {k}")
    lines.extend(f"a {u} {v}" for u, v in graph.arcs())
    return "\n".join(lines) + "\n"


def load_instance(path: str) -> InstanceFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())


def save_instance(path: str, kind: str, graph: RootedDigraph, k: int,
                  comments: Iterable[str] = ()) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_instance(kind, graph, k, comments))
