import contextlib
import inspect
import random
import sys

import pytest
from hypothesis import strategies as st

from sparse_outbranch.digraph import (OutBranching, RootedDigraph, UnreachableError, is_connected,
                                      underlying_adjacency)


@st.composite
def small_digraphs(draw, max_n=6, connected=True):
    """Random small rooted digraphs (root 0, no arcs into the root)."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    arcs = set()
    if connected and n > 1:
        for v in range(1, n):
            p = draw(st.integers(min_value=0, max_value=v - 1))
            arcs.add((p, v))
    extra = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=2 * n))
    for u, v in extra:
        if u != v and v != 0:
            arcs.add((u, v))
    return RootedDigraph(n, 0, arcs)


def random_connected(rng: random.Random, n: int, density: float = 0.3,
                     bidi: float = 0.0) -> RootedDigraph:
    """Spanning-overlay random connected digraph for plain random sweeps."""
    arcs = set()
    for v in range(1, n):
        p = rng.randrange(0, v)
        arcs.add((p, v))
        if bidi and p != 0 and rng.random() < bidi:
            arcs.add((v, p))
    for _ in range(int(density * n * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and v != 0:
            arcs.add((u, v))
            if bidi and u != 0 and rng.random() < bidi:
                arcs.add((v, u))
    d = RootedDigraph(n, 0, arcs)
    assert is_connected(d)
    return d


def bfs_out_branching_checked(d: RootedDigraph) -> OutBranching:
    """The breadth-first branching that built a parent map and handed it to
    the checked ``OutBranching`` constructor, kept as the reference for
    ``digraph.bfs_parents`` and the unchecked tree of
    ``digraph.bfs_out_branching``."""
    parent = {}
    seen = [False] * d.n
    seen[d.root] = True
    found = [d.root]
    for u in found:
        for w in d.out_adj[u]:
            if not seen[w]:
                seen[w] = True
                parent[w] = u
                found.append(w)
    if len(parent) != d.n - 1:
        raise UnreachableError("graph is not connected from the root")
    return OutBranching(d.n, d.root, parent)


def euler_bound_holds(d: RootedDigraph) -> bool:
    """Euler's bound m <= 3n - 6 (n >= 3) on the underlying simple
    undirected graph: a necessary condition for planarity."""
    edges = sum(len(nbrs) for nbrs in underlying_adjacency(d)) // 2
    return d.n < 3 or edges <= 3 * d.n - 6


@pytest.fixture
def rng():
    return random.Random(20240731)


@contextlib.contextmanager
def stack_headroom(frames: int = 100):
    """Allow only ``frames`` Python frames above the caller, so code that
    recurses once per step of a large input fails fast whatever the speed
    of the host."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)
