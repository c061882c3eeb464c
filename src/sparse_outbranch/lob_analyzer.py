"""Structure analysis of reduced leaf-out-branching instances.

Builds the contracted graph (lonely cut-edges collapsed into bags of size
at most two), identifies special and isolated vertices, decomposes the
remainder into weak bipaths, classifies parallel hard bipaths into masters
and slaves, and turns the three lower bounds on maxleaf that their counts
imply (``LobCertificate``) into an acceptance certificate for the
instance's leaf target k.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .digraph import RootedDigraph, cut_structure, split_lonely_branching
from .lob_reducer import LobInstance, find_rule
from .outcomes import value_type


class StructureError(RuntimeError):
    """A structural lemma failed on supposedly reduced input; this signals
    a bug in the rule engine, not bad user data."""


@value_type
class Bag(NamedTuple("Bag", [("members", tuple), ("tail", int), ("head", int)])):
    __slots__ = ()

    def __new__(cls, members: tuple[int, ...], tail: int, head: int):
        if not 1 <= len(members) <= 2:
            raise ValueError("bag must hold one or two vertices")
        return super().__new__(cls, members, tail, head)


@value_type
class ContractedGraph(NamedTuple):
    graph: RootedDigraph       # the contracted digraph
    bag_of: list[Bag]          # contracted vertex -> bag of original vertices
    origin: list[int]          # original vertex -> contracted vertex
    original: RootedDigraph


def build_contracted(d: RootedDigraph, check: bool = True) -> ContractedGraph:
    """Contract every lonely cut-edge of a fully reduced graph. With
    ``check`` the reduction fixpoint is verified first."""
    if check:
        app = find_rule(LobInstance(d, 0))
        if app is not None:
            raise ValueError(f"graph is not reduced: rule {app.rule_id} applies")
    _, cut_e = cut_structure(d)
    lonely, _ = split_lonely_branching(cut_e)
    touched: set[int] = set()
    for u, v in lonely:
        if u in touched or v in touched:
            raise StructureError("lonely cut-edges do not form a matching")
        touched.update((u, v))
    # a lonely pair is (tail, head); the pairs are disjoint, so each group's
    # smallest member orders it
    groups = sorted([*lonely, *((v,) for v in range(d.n) if v not in touched)], key=min)
    origin = [0] * d.n
    for idx, grp in enumerate(groups):
        for w in grp:
            origin[w] = idx
    bags = [Bag(grp, grp[0], grp[-1]) for grp in groups]
    arcs = {(origin[a], origin[b]) for a, b in d.arcs() if origin[a] != origin[b]}
    g = RootedDigraph(len(groups), origin[d.root], arcs)
    return ContractedGraph(g, bags, origin, d)


def special_vertices(dc: ContractedGraph) -> set[int]:
    """Contracted vertices of in-degree at least 3 or with an incoming arc
    whose reverse is absent."""
    g = dc.graph
    out: set[int] = set()
    for v in range(g.n):
        if len(g.in_adj[v]) >= 3:
            out.add(v)
            continue
        for u in g.in_adj[v]:
            if not g.has_arc(v, u):
                out.add(v)
                break
    return out


def isolated_vertices(dc: ContractedGraph, special: set[int]) -> set[int]:
    """Non-special size-2 bags whose tail sends no original arc into any
    of the ``special`` bags."""
    iso: set[int] = set()
    d = dc.original
    for v in range(dc.graph.n):
        bag = dc.bag_of[v]
        if v in special or len(bag.members) != 2:
            continue
        if all(dc.origin[w] not in special for w in d.out_adj[bag.tail]):
            iso.add(v)
    return iso


@value_type
class WeakBipath(NamedTuple):
    vertices: tuple[int, ...]  # u1..up in contracted-graph ids, p >= 3, u1 < up

    @property
    def extremities(self) -> tuple[int, int]:
        return self.vertices[0], self.vertices[-1]

    @property
    def internals(self) -> tuple[int, ...]:
        return self.vertices[1:-1]


@value_type
class BipathDecomposition(NamedTuple):
    seed_set: frozenset[int]
    paths: list[WeakBipath]


def decompose_bipaths(dc: ContractedGraph, seed: set[int]) -> BipathDecomposition:
    """Partition the contracted graph outside ``seed`` into the internal
    vertices of weak bipaths whose extremities lie in the seed set. The
    seed must contain the root and every special vertex; all of them fail
    the weak-bipath test, so the first vertex that fails it names those the
    seed misses (ValueError). On reduced input the decomposition lemma
    guarantees the partition exists, so any other violation raises
    StructureError."""
    g = dc.graph
    side: dict[int, list[int]] = {}  # the two chain neighbours
    for v in range(g.n):
        if v in seed:
            continue
        ins = g.in_adj[v]
        if len(ins) != 2 or any(not g.has_arc(v, u) for u in ins):
            missing = ({g.root} | special_vertices(dc)) - seed
            if missing:
                raise ValueError(f"seed set misses root/special vertices: {sorted(missing)}")
            raise StructureError(
                f"vertex {v} outside the seed is not weak-bipath internal")
        side[v] = ins

    visited: set[int] = set()

    def walk(prev: int, nxt: int) -> list[int]:
        """The chain from ``nxt``, which leaves ``prev``, to its first seed vertex."""
        out = [nxt]
        while nxt not in seed:
            if nxt in visited:
                raise StructureError("bidirectional cycle outside the seed set")
            visited.add(nxt)
            a, b = side[nxt]
            prev, nxt = nxt, (a if b == prev else b)
            out.append(nxt)
        return out

    paths: list[WeakBipath] = []
    for v in sorted(side):
        if v in visited:
            continue
        visited.add(v)
        left, right = walk(v, side[v][0]), walk(v, side[v][1])
        if left[-1] == right[-1]:
            raise StructureError(f"weak bipath with coinciding extremities at {left[-1]}")
        if left[-1] > right[-1]:  # each path runs from its smaller extremity
            left, right = right, left
        paths.append(WeakBipath((*reversed(left), v, *right)))
    paths.sort()
    return BipathDecomposition(frozenset(seed), paths)


def outside_neighborhood(dc: ContractedGraph, path: WeakBipath) -> frozenset[int]:
    """Out-neighbors (in the contracted graph) of the path's internal
    vertices, excluding the internals themselves."""
    g = dc.graph
    internals = set(path.internals)
    out: set[int] = set()
    for w in internals:
        out.update(g.out_adj[w])
    return frozenset(out - internals)


def classify_masters_slaves(dec: BipathDecomposition, outside: list[frozenset[int]]
                            ) -> tuple[list[WeakBipath], list[WeakBipath]]:
    """Group maximal hard bipaths by extremity pair and outside
    neighborhood, ``outside[i]`` for ``dec.paths[i]``; the two smallest
    paths of each group are masters, the rest slaves."""
    groups: dict[tuple[frozenset[int], frozenset[int]], list[WeakBipath]] = {}
    for p, o in zip(dec.paths, outside):
        groups.setdefault((frozenset(p.extremities), o), []).append(p)
    masters: list[WeakBipath] = []
    slaves: list[WeakBipath] = []
    for key in sorted(groups, key=lambda k: (sorted(k[0]), sorted(k[1]))):
        members = sorted(groups[key])
        masters.extend(members[:2])
        slaves.extend(members[2:])
    return masters, slaves


@value_type
class LobCertificate(NamedTuple):
    """The counts behind the lower bounds maxleaf >= |special| / 60,
    maxleaf >= |isolated| / 180 and maxleaf >= #slaves."""

    k: int
    special_count: int
    isolated_count: int
    slave_count: int

    def _counted(self) -> tuple[tuple[int, int], ...]:
        """(count, how many of it guarantee one leaf) for each bound."""
        return ((self.special_count, 60), (self.isolated_count, 180),
                (self.slave_count, 1))

    @property
    def implied_bounds(self) -> tuple[int, ...]:
        """The lower bound ceil(count / factor) on maxleaf of each count."""
        return tuple(-(-c // f) for c, f in self._counted())

    @property
    def implied_lower_bound(self) -> int:
        return max(self.implied_bounds)

    @property
    def accepted(self) -> bool:
        """Some count reaches its factor times k."""
        return any(c >= f * self.k for c, f in self._counted())

    @property
    def decision(self) -> str:
        return "yes" if self.accepted else "undecided"

    def to_dict(self) -> dict:
        return {**self._asdict(), "implied_lower_bound": self.implied_lower_bound,
                "decision": self.decision}


def size_report(dc: ContractedGraph, dec: BipathDecomposition, sp: set[int],
                iso: set[int], outside: list[frozenset[int]]) -> dict:
    """Diagnostics over the hard-bipath structure: easy/hard counts, the
    per-path outside-neighborhood histogram (equivalently the bipath-minor
    degree distribution), and the 10|O|+6 length check per path. ``sp``,
    ``iso`` and ``outside`` are as ``analyze`` builds them, and ``dec`` is
    over the easy seed, so the hard vertices of a path are its internals."""
    g = dc.graph
    easy = len(dec.seed_set)
    histogram = Counter(map(len, outside))
    a_hist = Counter(Counter(u for o in outside for u in o).values())
    return {
        "n_original": dc.original.n,
        "n_contracted": g.n,
        "easy_count": easy,
        "hard_count": g.n - easy,
        "special_count": len(sp),
        "isolated_count": len(iso),
        "outside_size_histogram": {str(k): v for k, v in sorted(histogram.items())},
        "bipath_minor_b_degrees": sorted(map(len, outside)),
        "bipath_minor_a_degree_histogram": {
            str(k): v for k, v in sorted(a_hist.items())},
        "all_length_bounds_ok": all(len(p.internals) <= 10 * len(o) + 6
                                    for p, o in zip(dec.paths, outside)),
    }


@value_type
class LobAnalysis(NamedTuple):
    contracted: ContractedGraph
    special: set[int]
    isolated: set[int]
    decomposition: BipathDecomposition
    masters: list[WeakBipath]
    slaves: list[WeakBipath]
    cert: LobCertificate
    report: dict


def analyze(inst: LobInstance, check: bool = True) -> LobAnalysis:
    """Full analysis pipeline over a reduced instance."""
    dc = build_contracted(inst.graph, check=check)
    sp = special_vertices(dc)
    iso = isolated_vertices(dc, sp)
    dec = decompose_bipaths(dc, {dc.graph.root} | sp | iso)
    outside = [outside_neighborhood(dc, p) for p in dec.paths]
    masters, slaves = classify_masters_slaves(dec, outside)
    cert = LobCertificate(inst.k, len(sp), len(iso), len(slaves))
    report = size_report(dc, dec, sp, iso, outside)
    report["certificate"] = cert.to_dict()
    return LobAnalysis(dc, sp, iso, dec, masters, slaves, cert, report)
