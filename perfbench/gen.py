"""Seeded, stdlib-only instance generators owned by the benchmark.

The benchmark never imports ``sparse_outbranch.generators``: a change to
the package's generators (for example swapping its Delaunay triangulation)
must not silently change the benchmark's inputs. Every generator is a pure
function of its parameters and an explicit seed, and returns a list of arcs
on vertices 0..n-1 rooted at 0.
"""

from __future__ import annotations

import math
import random

Arcs = list[tuple[int, int]]


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


def _spanning_overlay(rng: random.Random, n: int, arcs: set[tuple[int, int]],
                      adj: list[set[int]]) -> None:
    """Add the arcs of a randomized BFS out-tree from vertex 0 inside
    ``adj``, so every vertex is reachable and no new undirected edge
    appears (planarity is kept)."""
    seen = [False] * n
    seen[0] = True
    frontier = [0]
    while frontier:
        u = frontier.pop(rng.randrange(len(frontier)))
        nbrs = sorted(adj[u])
        rng.shuffle(nbrs)
        for w in nbrs:
            if not seen[w]:
                seen[w] = True
                arcs.add((u, w))
                frontier.append(w)
    if not all(seen):
        raise ValueError("underlying graph is disconnected")


def planar(n: int, seed: int, both_prob: float, keep_prob: float) -> Arcs:
    """Random planar digraph: each triangulation edge is dropped with
    probability 1 - keep_prob, else oriented one way or both ways (never
    into the root); a spanning out-tree keeps it root-connected."""
    rng = random.Random(seed)
    adj = _grid_triangulation(rng, n)
    arcs: set[tuple[int, int]] = set()
    for u in range(n):
        for v in sorted(adj[u]):
            if u >= v or rng.random() > keep_prob:
                continue
            if rng.random() < both_prob:
                if v != 0:
                    arcs.add((u, v))
                if u != 0:
                    arcs.add((v, u))
            elif rng.random() < 0.5:
                if v != 0:
                    arcs.add((u, v))
            elif u != 0:
                arcs.add((v, u))
    _spanning_overlay(rng, n, arcs, adj)
    return sorted(arcs)


def bipath_chain(length: int) -> Arcs:
    """Root feeding both ends of a bidirectional chain of ``length``
    vertices; the proper-bipath contraction fires along all of it."""
    if length < 2:
        raise ValueError("chain needs at least two vertices")
    arcs = {(0, 1), (0, length)}
    for v in range(1, length):
        arcs.add((v, v + 1))
        arcs.add((v + 1, v))
    return sorted(arcs)


def iob_twins(k: int, d: int, seed: int, twin_factor: int = 12) -> tuple[int, Arcs]:
    """No-instance family for the internal-out-branching kernel: a core
    path keeps the internal count below k while ``twin_factor * k`` twins
    share neighbourhoods drawn from a small pool of core subsets of size at
    most d. Returns (n, arcs)."""
    rng = random.Random(seed)
    core_len = max(1, (k - 2) // 2)
    n_core = core_len + 1
    arcs = {(i, i + 1) for i in range(core_len)}
    pool: list[tuple[int, ...]] = []
    for _ in range(max(3, k // 2)):
        size = rng.randint(1, d)
        pool.append(tuple(sorted(rng.sample(range(n_core), min(size, n_core)))))
    nxt = n_core
    for _ in range(twin_factor * k):
        subset = pool[rng.randrange(len(pool))]
        w = nxt
        nxt += 1
        arcs.add((subset[0], w))
        for x in subset[1:]:
            if rng.random() < 0.4 or x == 0:
                arcs.add((x, w))
            else:
                arcs.add((w, x))
    return nxt, sorted(arcs)


def instance_text(kind: str, n: int, arcs: Arcs, k: int, comment: str) -> str:
    """The package's line-oriented instance format."""
    lines = [f"c {comment}", f"p {kind} {n} {len(arcs)} 0 {k}"]
    lines.extend(f"a {u} {v}" for u, v in arcs)
    return "\n".join(lines) + "\n"
