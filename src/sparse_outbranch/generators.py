"""Seeded instance generators.

Families are chosen to exercise specific machinery: bipath chains drive
the bipath contraction rule, seeded grid triangulations (planar by
construction) feed the minor-closed kernel bounds, bounded-degeneracy
twin families feed the crown rule, and plain random digraphs feed the
oracle sweeps. Every generator is a pure function of its parameters and
an explicit random seed.
"""

from __future__ import annotations

import math
import random
from typing import Optional

from .digraph import RootedDigraph, is_connected


def _spanning_overlay(rng: random.Random, n: int, arcs: set[tuple[int, int]],
                      undirected_adj: Optional[list[set[int]]] = None) -> None:
    """Add arcs of a random spanning out-tree from vertex 0 so every vertex
    is reachable. When an undirected adjacency is given the tree arcs are
    chosen inside it (keeps planarity: no new undirected edges appear)."""
    if undirected_adj is None:
        order = list(range(1, n))
        rng.shuffle(order)
        attached = [0]
        for v in order:
            p = rng.choice(attached)
            arcs.add((p, v))
            attached.append(v)
        return
    # randomized BFS tree over the given undirected graph
    seen = [False] * n
    seen[0] = True
    frontier = [0]
    while frontier:
        u = frontier.pop(rng.randrange(len(frontier)))
        nbrs = sorted(undirected_adj[u])
        rng.shuffle(nbrs)
        for w in nbrs:
            if not seen[w]:
                seen[w] = True
                arcs.add((u, w))
                frontier.append(w)
    if not all(seen):
        raise ValueError("underlying graph is disconnected")


def _orient(rng: random.Random, arcs: set[tuple[int, int]], u: int, v: int,
            both_prob: float) -> None:
    """Add the edge uv both ways with probability ``both_prob``, else one
    way, each with probability 1/2; no arc enters the root 0."""
    both = rng.random() < both_prob
    forward = both or rng.random() < 0.5
    if forward and v != 0:
        arcs.add((u, v))
    if (both or not forward) and u != 0:
        arcs.add((v, u))


def gen_bipath_chain(length: int) -> RootedDigraph:
    """Root feeding both ends of a bidirectional chain of ``length``
    vertices; the proper-bipath contraction fires repeatedly on it."""
    if length < 2:
        raise ValueError("chain needs at least two vertices")
    n = length + 1
    arcs = {(0, 1), (0, length)}
    for v in range(1, length):
        arcs.add((v, v + 1))
        arcs.add((v + 1, v))
    return RootedDigraph(n, 0, arcs)


def _grid_triangulation(rng: random.Random, n: int) -> list[set[int]]:
    """Planar undirected graph: row-major grid of ``n`` points with every
    side edge plus one random diagonal per cell. Planar by construction."""
    side = math.isqrt(n - 1) + 1  # ceil(sqrt(n))
    adj: list[set[int]] = [set() for _ in range(n)]

    def link(a: int, b: int) -> None:
        if a < n and b < n:
            adj[a].add(b)
            adj[b].add(a)

    for i in range(n):
        link(i, i + side)
        if i % side + 1 < side:
            link(i, i + 1)
            if rng.random() < 0.5:
                link(i, i + side + 1)
            else:
                link(i + 1, i + side)
    return adj


def gen_planar(n: int, seed: int, both_prob: float = 0.25,
               keep_prob: float = 1.0) -> RootedDigraph:
    """Random planar digraph: each edge of a seeded grid triangulation is
    dropped with probability 1-keep_prob, else oriented one way or both
    ways (never into the root); a spanning out-tree inside the
    triangulation guarantees connectivity, so the underlying graph stays
    a subgraph of the triangulation. Edges are visited in sorted order,
    so the output does not depend on set iteration order."""
    rng = random.Random(seed)
    adj = _grid_triangulation(rng, n)
    arcs: set[tuple[int, int]] = set()
    for u in range(n):
        for v in sorted(adj[u]):
            if u >= v or rng.random() > keep_prob:
                continue
            _orient(rng, arcs, u, v, both_prob)
    _spanning_overlay(rng, n, arcs, adj)
    return RootedDigraph(n, 0, arcs)


def gen_degenerate(n: int, d: int, seed: int, both_prob: float = 0.3) -> RootedDigraph:
    """d-degenerate by construction: vertex v attaches to at most d random
    earlier vertices, one of which becomes its tree parent."""
    rng = random.Random(seed)
    arcs: set[tuple[int, int]] = set()
    for v in range(1, n):
        pool = list(range(v))
        rng.shuffle(pool)
        picks = pool[:min(d, v)]
        arcs.add((picks[0], v))
        for w in picks[1:]:
            _orient(rng, arcs, w, v, both_prob)
    return RootedDigraph(n, 0, arcs)


def gen_iob_twins(k: int, d: int, seed: int, twin_factor: int = 12) -> RootedDigraph:
    """No-instance family for the internal-out-branching kernel: a core
    path bounds the achievable internal count below k while twin_factor*k
    twin vertices share neighborhoods drawn from a small pool of core
    subsets of size <= d. Degeneracy stays <= d."""
    rng = random.Random(seed)
    core_len = max(1, (k - 2) // 2)  # max internal <= 2*|core U| + 1 < k
    n_core = core_len + 1            # path r = c0 -> c1 -> ... -> c_core_len
    arcs = {(i, i + 1) for i in range(core_len)}
    pool: list[tuple[int, ...]] = []
    for _ in range(max(3, k // 2)):
        size = rng.randint(1, d)
        subset = tuple(sorted(rng.sample(range(n_core), min(size, n_core))))
        pool.append(subset)
    nxt = n_core
    for _ in range(twin_factor * k):
        subset = pool[rng.randrange(len(pool))]
        w = nxt
        nxt += 1
        arcs.add((subset[0], w))
        for x in subset[1:]:
            r = rng.random()
            if r < 0.4:
                arcs.add((x, w))
            elif x != 0:
                arcs.add((w, x))
            else:
                arcs.add((x, w))
    return RootedDigraph(nxt, 0, arcs)


def gen_random(n: int, m: int, seed: int, bidi_prob: float = 0.0) -> RootedDigraph:
    """Random connected digraph with roughly m arcs (a spanning overlay may
    add a few); bidi_prob controls anti-parallel companions."""
    rng = random.Random(seed)
    arcs: set[tuple[int, int]] = set()
    attempts = 0
    while len(arcs) < m and attempts < 20 * m + 100:
        attempts += 1
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v or v == 0:
            continue
        arcs.add((u, v))
        if rng.random() < bidi_prob and u != 0:
            arcs.add((v, u))
    _spanning_overlay(rng, n, arcs)
    return RootedDigraph(n, 0, arcs)


# The least and greatest value of every parameter a family reads; NaN is in none.
RANGES = {"n": (1, math.inf), "k": (0, math.inf), "d": (1, math.inf), "m": (0, math.inf),
          "twin_factor": (1, math.inf), "both_prob": (0, 1), "keep_prob": (0, 1)}
# A family's own range of a parameter: a bipath chain is the root and at least two more.
FAMILY_RANGES = {("bipath-chain", "n"): (3, math.inf)}

# Each family's signature is the one statement of what it reads, and of the defaults.
FAMILIES = {
    "path": lambda n=20: RootedDigraph(n, 0, [(i, i + 1) for i in range(n - 1)]),
    "star": lambda n=20: RootedDigraph(n, 0, [(0, v) for v in range(1, n)]),
    "bipath-chain": lambda n=20: gen_bipath_chain(n - 1),
    "planar": lambda seed, n=20, both_prob=0.25, keep_prob=1.0:
        gen_planar(n, seed, both_prob, keep_prob),
    "degenerate": lambda seed, n=20, d=3, both_prob=0.3: gen_degenerate(n, d, seed, both_prob),
    "iob-twins": lambda k, seed, d=3, twin_factor=12: gen_iob_twins(k, d, seed, twin_factor),
    "random": lambda seed, n=20, m=None: gen_random(n, 2 * n if m is None else m, seed),
}


def family_reads(family: str) -> dict:
    """Each parameter that ``family`` reads, with its default (None for k
    and seed, which have none). Raises ValueError for an unknown family."""
    import inspect  # here, so that only gen and bench load it
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from {sorted(FAMILIES)}")
    return {name: None if param.default is param.empty else param.default
            for name, param in inspect.signature(FAMILIES[family]).parameters.items()}


def generate(family: str, n: Optional[int], k: int, seed: int, **params) -> RootedDigraph:
    """The graph of ``family``; ``n=None`` or an absent keyword leaves the
    family's default, and every family takes k, the instance's parameter,
    and seed. Raises ValueError, naming the family and the parameter, for
    an unknown family, a parameter it does not read or a value outside its
    range (FAMILY_RANGES, else RANGES)."""
    reads = family_reads(family)
    given = {"k": k, **params, **({} if n is None else {"n": n})}
    for name, value in given.items():
        if name not in reads and name != "k":
            raise ValueError(f"family {family!r} does not read {name}")
        low, high = FAMILY_RANGES.get((family, name), RANGES[name])
        if not low <= value <= high:
            bound = f"at least {low}" if high == math.inf else f"between {low} and {high}"
            raise ValueError(f"family {family!r}: {name} must be {bound}, got {value}")
    given["seed"] = seed
    g = FAMILIES[family](**{name: given[name] for name in reads if name in given})
    if not is_connected(g):
        raise RuntimeError(f"family {family!r} generated a disconnected graph")
    return g
