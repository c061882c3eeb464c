"""Instance file format.

Line-oriented text, 0-based vertex ids:

    c free-form comment
    p <lob|iob> <n> <m> <root> <k>
    a <u> <v>

Exactly one p-line, and m a-lines after it. Blank lines and comment lines
may stand anywhere. Arc endpoints lie in 0..n-1, and self-loops and
repeated arcs are errors. For iob instances any arcs entering the root are
dropped at parse time (with one warning each), matching the
prescribed-root convention; for lob they are a hard error.

Files of the common shape (comment lines, the p line, then exactly the m
a-lines, with no line break but ``\n``) are read in bulk: one ``split()``
of the a-lines, counts that check their shape, and ``int`` mapped over the
two endpoint columns. Range, self-loop, repeat and root-arc checks then run
once, in the ``RootedDigraph`` constructor. Any other text, and any fault,
is read again by the line-by-line scan, the only code that raises
``ParseError``, so messages, line numbers and warnings do not depend on
which path read a file.
"""

from __future__ import annotations

from collections import Counter
from itertools import islice
from typing import Iterable, NamedTuple, Optional

from .digraph import RootedDigraph
from .outcomes import value_type


class ParseError(ValueError):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


@value_type
class InstanceFile(NamedTuple("InstanceFile", [("kind", str), ("graph", RootedDigraph),
                                               ("k", int), ("comments", list),
                                               ("warnings", list)])):
    __slots__ = ()

    def __new__(cls, kind: str, graph: RootedDigraph, k: int,
                comments: Optional[list[str]] = None, warnings: Optional[list[str]] = None):
        # kind is "lob" or "iob"; each file gets its own lists
        return super().__new__(cls, kind, graph, k, [] if comments is None else comments,
                               [] if warnings is None else warnings)


# The line boundaries of ``str.splitlines`` other than "\n". In a text
# without them, "\n" splits the same lines as the scan reads.
_OTHER_BREAKS = "\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"


def parse_instance(text: str) -> InstanceFile:
    """The instance in `text`; raises ParseError for the first fault."""
    try:
        return _read_bulk(text)
    except ValueError:  # another shape, or a fault: the scan says which
        return _scan(text)


def _read_bulk(text: str) -> InstanceFile:
    """The instance in `text` when it has the common shape: blank and
    comment lines, the p line, then exactly m lines ``a u v``, with "\\n"
    as the only line break. Raises ValueError for any other text and for
    any fault, including an arc into the root (the constructor refuses it,
    and an iob file needs the scan's warnings for it).

    Why the counts prove the shape: the counts of "\\n" and "\\na" show m
    lines after the p line, each starting with "a". No endpoint that starts
    with "a" converts to int, so every line starts at a token position
    divisible by 3. m such starts among 3m tokens leave each line exactly
    three tokens, and the m tokens at those starts are the m tokens equal
    to "a"."""
    if any(b in text for b in _OTHER_BREAKS):
        raise ValueError("line break other than \\n")
    comments: list[str] = []
    start = 0
    while True:
        end = text.find("\n", start)
        if end < 0:
            raise ValueError("no a line")
        line = text[start:end].strip()
        start = end + 1
        if not line:
            continue
        if line.split(None, 1)[0] != "c":
            break
        comments.append(line[2:] if len(line) > 2 else "")
    tag, kind, *fields = line.split()
    if tag != "p" or kind not in ("lob", "iob") or len(fields) != 4:
        raise ValueError("no p line after the comments")
    n, m, root, k = map(int, fields)
    if n <= 0 or m < 0 or not 0 <= root < n or k < 0:
        raise ValueError("p line fields out of range")
    body = text[start:]
    if not (body.startswith("a")
            and body.count("\na") == m - 1 == body.count("\n") - body.endswith("\n")):
        raise ValueError("not m lines after the p line, each starting with a")
    tokens = body.split()
    if len(tokens) != 3 * m or tokens.count("a") != m:
        raise ValueError("not m lines a <u> <v>")
    arcs = list(zip(map(int, islice(tokens, 1, None, 3)),
                    map(int, islice(tokens, 2, None, 3))))
    del body, tokens  # freed before the constructor builds its lists
    return InstanceFile(kind, RootedDigraph(n, root, arcs), k, comments)


def _scan(text: str) -> InstanceFile:
    """The instance in `text`, read line by line; raises ParseError for the
    first fault, with its line number (0 for faults of the whole file)."""
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
        dupes = sorted(a for a, count in Counter(arcs).items() if count > 1)
        raise ParseError(0, f"duplicate arcs {dupes[:3]}")
    graph = RootedDigraph(n, root, arcs)
    return InstanceFile(kind, graph, k, comments, warnings)


def _breaks_line(text: str) -> bool:
    return "\n" in text or any(b in text for b in _OTHER_BREAKS)


def serialize_instance(kind: str, graph: RootedDigraph, k: int,
                       comments: Iterable[str] = ()) -> str:
    """The file text. A comment holding a line break, which would read
    back as a line of its own, raises ValueError."""
    if kind not in ("lob", "iob"):
        raise ValueError(f"unknown problem kind {kind!r}")
    comments = list(comments)
    if _breaks_line("".join(comments)):  # one check: kernelize-iob writes a comment per vertex
        raise ValueError(f"comment {next(filter(_breaks_line, comments))!r} holds a line break")
    lines = [f"c {c}".rstrip() for c in comments]
    lines.append(f"p {kind} {graph.n} {graph.m} {graph.root} {k}")
    lines.extend(f"a {u} {v}" for u, v in graph.arcs())
    return "\n".join(lines) + "\n"


def load_instance(path: str) -> InstanceFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())


def save_instance(path: str, kind: str, graph: RootedDigraph, k: int,
                  comments: Iterable[str] = ()) -> None:
    text = serialize_instance(kind, graph, k, comments)  # a refusal leaves `path` as it was
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
