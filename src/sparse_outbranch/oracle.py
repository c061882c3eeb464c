"""Ground-truth solvers for small rooted digraphs.

Enumerates every spanning out-branching (arc extension with a
bridging-arc feasibility test, so dead subtrees are never entered and each
branching is produced exactly once), plus an independent parent-vector
brute force used to cross-check the enumeration, and a branch-and-bound
solver for kernelized instances that are too big to enumerate.
Enumeration and the INTERNAL-mode branch and bound share one iterative
arc-branching search. The LEAF-mode branch and bound branches on vertex
states (leaf, internal, undecided) instead, with dominator forcing after
each leaf decision, a packing bound at each node, and a greedy incumbent
only where that bound leaves room for one (``_max_leaf_search``).
Both searches run on explicit stacks, so their depth is not limited by the
interpreter's recursion limit, and both leave the incumbent, node count,
deadline and stop to one loop, ``solve_branch_and_bound``.
"""

from __future__ import annotations

import heapq
import itertools
import time
from enum import Enum
from typing import Callable, Iterator, NamedTuple, Optional

from .digraph import (
    OutBranching,
    RootedDigraph,
    bfs_out_branching,
    immediate_dominators,
    is_connected,
)
from .outcomes import value_type


class BudgetExceeded(Exception):
    """Raised when an exact computation would exceed its budget."""


# enumeration is exponential; larger graphs go to branch and bound
ENUMERATION_MAX_N = 12


class SolveMode(Enum):
    LEAF = "leaf"
    INTERNAL = "internal"


@value_type
class SolveResult(NamedTuple):
    best_value: int
    witness: Optional[OutBranching]
    exact: bool
    nodes: int = 0  # search nodes visited; 0 when the seed tree decided


def _tree_value(t: OutBranching, mode: SolveMode) -> int:
    return t.leaf_count() if mode is SolveMode.LEAF else t.internal_count()


class _Grower:
    """Shared state for the arc-extension search: a partial arborescence
    (parent map + attached flags), a set of banned arc indices, and the
    feasibility test that prunes branches which can no longer span."""

    def __init__(self, d: RootedDigraph):
        self.d = d
        self.arcs = d.arcs()
        # out-arcs of each vertex as (head, arc id), in out_adj order
        self.out_arcs: list[list[tuple[int, int]]] = [[] for _ in range(d.n)]
        for i, (u, w) in enumerate(self.arcs):
            self.out_arcs[u].append((w, i))
        self.banned = [False] * len(self.arcs)
        self.attached = [False] * d.n
        self.attached[d.root] = True
        self.parent: dict[int, int] = {}
        self.child_count = [0] * d.n
        self.internal = 0

    def unattached(self) -> int:
        return self.d.n - 1 - len(self.parent)

    def feasible(self) -> bool:
        todo = self.unattached()
        if todo == 0:
            return True
        seen = self.attached.copy()
        stack = [v for v in range(self.d.n) if seen[v]]
        out_arcs = self.out_arcs
        banned = self.banned
        while stack:
            u = stack.pop()
            for w, i in out_arcs[u]:
                if not seen[w] and not banned[i]:
                    seen[w] = True
                    todo -= 1
                    if todo == 0:
                        return True
                    stack.append(w)
        return False

    def pivot(self) -> Optional[int]:
        attached = self.attached
        for i, (u, v) in enumerate(self.arcs):
            if not self.banned[i] and attached[u] and not attached[v]:
                return i
        return None

    def attach(self, u: int, v: int) -> None:
        self.attached[v] = True
        self.parent[v] = u
        self.child_count[u] += 1
        if self.child_count[u] == 1:
            self.internal += 1

    def detach(self, u: int, v: int) -> None:
        self.child_count[u] -= 1
        if self.child_count[u] == 0:
            self.internal -= 1
        del self.parent[v]
        self.attached[v] = False


def _search(st: _Grower, prune: Callable[[], bool]) -> Iterator[None]:
    """Depth-first arc branching over ``st``, without recursion. At each
    node, unless ``prune()`` is true or the partial branching can no
    longer span, either yield (it spans; ``st.parent`` is the branching)
    or branch on the first pivot arc: attach it, then ban it. The stack
    holds one (arc id, banned) frame per open decision."""
    stack: list[tuple[int, bool]] = []
    while True:
        if not prune() and st.feasible():
            if st.unattached() == 0:
                yield
            else:
                i = st.pivot()
                if i is not None:
                    st.attach(*st.arcs[i])
                    stack.append((i, False))
                    continue
        while stack and stack[-1][1]:
            st.banned[stack.pop()[0]] = False
        if not stack:
            return
        i = stack[-1][0]
        st.detach(*st.arcs[i])
        st.banned[i] = True
        stack[-1] = (i, True)


def enumerate_out_branchings(d: RootedDigraph) -> Iterator[OutBranching]:
    """Yield every spanning out-branching of ``d`` rooted at its root,
    each exactly once. Raises BudgetExceeded when ``d`` has more than
    ENUMERATION_MAX_N vertices."""
    if not is_connected(d):
        raise ValueError("enumeration requires a connected digraph")
    if d.n > ENUMERATION_MAX_N:
        raise BudgetExceeded(f"n={d.n} exceeds enumeration cap {ENUMERATION_MAX_N}")
    st = _Grower(d)
    for _ in _search(st, lambda: False):
        yield OutBranching(d.n, d.root, st.parent)


def brute_force_out_branchings(d: RootedDigraph) -> Iterator[OutBranching]:
    """Independent oracle: try every way of picking one in-arc per non-root
    vertex and keep the choices that ``OutBranching`` accepts, the acyclic
    ones. Exponential; for cross-checks only."""
    nonroots = [v for v in range(d.n) if v != d.root]
    for combo in itertools.product(*(d.in_adj[v] for v in nonroots)):
        try:
            t = OutBranching(d.n, d.root, dict(zip(nonroots, combo)))
        except ValueError:  # the choice closes a cycle
            continue
        yield t


def _leafy_branching(n: int, root: int,
                     out_adj: list[list[int]]) -> dict[int, int]:
    """Greedy out-branching with many leaves: starting from the root,
    repeatedly expand the tree vertex with the most out-neighbours not yet
    in the tree, making all of them its children. Gains only fall as the
    tree grows, so a popped gain is rechecked and pushed back when stale.
    Requires every vertex to be reachable through ``out_adj``; returns the
    parent map."""
    parent: dict[int, int] = {}
    in_tree = [False] * n
    in_tree[root] = True
    heap = [(-len(out_adj[root]), root)]
    while heap:
        claimed, u = heapq.heappop(heap)
        new = [w for w in out_adj[u] if not in_tree[w]]
        if not new:
            continue
        if len(new) < -claimed:
            heapq.heappush(heap, (-len(new), u))
            continue
        for w in new:
            in_tree[w] = True
            parent[w] = u
            heapq.heappush(heap, (-len(out_adj[w]), w))
    return parent


_UNDECIDED, _LEAF, _INTERNAL = 0, 1, 2


def _packing_bound(root: int, internal: list[int], out_adj: list[list[int]],
                   masked_in: list[list[int]]) -> int:
    """Most leaves of a spanning out-branching of D' (in-lists
    ``masked_in``) in which every vertex of ``internal`` is internal. Each
    non-root vertex that no vertex of ``internal`` feeds takes its parent
    from its own in-neighbours, so p such vertices with pairwise disjoint
    in-neighbourhoods, packed greedily from the smallest, force p more
    internal vertices: the bound is n - |internal| - p."""
    n = len(masked_in)
    fed = [False] * n
    for u in internal:
        for w in out_adj[u]:
            fed[w] = True
    needs = sorted((ins for w, ins in enumerate(masked_in)
                    if w != root and not fed[w]), key=len)
    taken = [False] * n
    packed = 0
    for ins in needs:
        if not any(taken[u] for u in ins):
            for u in ins:
                taken[u] = True
            packed += 1
    return n - len(internal) - packed


def _max_leaf_search(d: RootedDigraph, best: int, tick: Callable[[], None]
                     ) -> Iterator[tuple[int, dict[int, int]]]:
    """LEAF-mode branch and bound over vertex states (leaf, internal,
    undecided), on an explicit stack with a trail of state changes. Ticks
    per node; yields (leaf count, parent map) for each branching past best.

    For n >= 2, maxleaf(D) is the largest L, root excluded, for which
    D - out(L) still reaches every vertex from the root. Sinks join L once,
    at the root; they mask no arc. Each node holds D' = D - out(L) as
    masked adjacency lists: the root reads the graph's own lists, a leaf
    branch copies its parent's lists with out(v) masked, and an internal
    branch reuses the lists saved on its stack frame, since only leaf
    states mask arcs. At each node:

    - after a leaf decision, one dominator pass (``immediate_dominators``);
      if D' misses a vertex the node is infeasible. Deleting arcs only adds
      dominance, so every cut vertex of D' is internal in every descendant:
      it and the root are forced internal;
    - every non-root vertex needs an internal parent, so the node is pruned
      when its packing bound (``_packing_bound``) is at most best;
    - after a leaf decision, and only where that bound exceeds best, a
      greedy leafy out-branching of D' raises the incumbent. Where the
      bound is at most best the greedy cannot win: a tree that keeps every
      internal vertex internal is within the bound, and one that makes an
      internal-branch vertex u a leaf (take the first such u on the
      stack) lies in u's leaf branch, which was searched to the end before
      u's internal branch opened;
    - otherwise branch on the undecided vertex of largest out-degree: leaf
      first, then internal. The internal branch leaves D' as it was, so it
      skips the dominator pass and the greedy.
    """
    n, root, out_adj, in_adj = d.n, d.root, d.out_adj, d.in_adj
    if n == 1:
        return  # the seed, a lone leaf, is optimal
    state = [_UNDECIDED if outs else _LEAF for outs in out_adj]
    state[root] = _INTERNAL
    by_degree = sorted(range(n), key=lambda u: -len(out_adj[u]))
    masked_out, masked_in = out_adj, in_adj
    trail: list[int] = []
    # one frame per open decision: (trail length before it, vertex, in the
    # internal branch, the masked lists of the node that branched)
    stack: list[tuple[int, int, bool, list[list[int]], list[list[int]]]] = []
    arcs_changed = True

    def decide(v: int, s: int) -> None:
        state[v] = s
        trail.append(v)

    while True:
        tick()
        alive = True
        if arcs_changed:
            order, idom = immediate_dominators(n, root, masked_out, masked_in)
            alive = len(order) == n
            if alive:
                for a in set(idom[1:]):  # the cut vertices, and the root
                    if state[order[a]] == _UNDECIDED:
                        decide(order[a], _INTERNAL)
        if alive:
            internal = [u for u in range(n) if state[u] == _INTERNAL]
            bound = _packing_bound(root, internal, out_adj, masked_in)
            if arcs_changed and bound > best:
                parent = _leafy_branching(n, root, masked_out)
                value = n - len(set(parent.values()))
                if value > best:
                    best = value
                    yield best, parent
            alive = bound > best
        if alive:
            # the bound exceeds best, so some vertex is still undecided
            v = next(u for u in by_degree if state[u] == _UNDECIDED)
            stack.append((len(trail), v, False, masked_out, masked_in))
            decide(v, _LEAF)
            masked_out, masked_in = masked_out.copy(), masked_in.copy()
            masked_out[v] = []
            for w in out_adj[v]:
                masked_in[w] = [u for u in masked_in[w] if u != v]
            arcs_changed = True
            continue
        while stack and stack[-1][2]:
            stack.pop()
        if not stack:
            return
        undo_to, v, _, masked_out, masked_in = stack[-1]
        while len(trail) > undo_to:
            state[trail.pop()] = _UNDECIDED
        stack[-1] = (undo_to, v, True, masked_out, masked_in)
        decide(v, _INTERNAL)
        arcs_changed = False


def solve_branch_and_bound(d: RootedDigraph, k: Optional[int],
                           mode: SolveMode,
                           timeout: float = 60.0) -> SolveResult:
    """Exact optimum by branch and bound from a breadth-first seed tree.

    LEAF mode branches on vertex states (``_max_leaf_search``), INTERNAL
    mode on arcs (``_search``), pruning where even every unattached vertex
    turning internal could not beat the incumbent. Both yield each better
    branching and call ``tick()`` per node, so this loop alone stops them:
    at a value >= ``k`` when k is given (a decision witness, exact=False),
    at a node that starts after ``timeout`` seconds (the incumbent,
    exact=False), or when they run out (the optimum, exact=True).
    """
    deadline = time.monotonic() + timeout
    witness = bfs_out_branching(d)  # raises unless the root spans
    best = _tree_value(witness, mode)
    if k is not None and best >= k:
        return SolveResult(best, witness, exact=False)
    nodes = 0

    def tick() -> None:
        nonlocal nodes
        nodes += 1
        if time.monotonic() > deadline:
            raise BudgetExceeded("branch and bound timeout")

    if mode is SolveMode.LEAF:
        found = _max_leaf_search(d, best, tick)
    else:
        st = _Grower(d)

        def prune() -> bool:  # a spanning node passes only by beating best
            tick()
            return st.internal + st.unattached() <= best
        found = ((st.internal, st.parent) for _ in _search(st, prune))
    try:
        for best, parent in found:
            witness = OutBranching(d.n, d.root, parent)  # before ``parent`` changes
            if k is not None and best >= k:
                return SolveResult(best, witness, False, nodes)
    except BudgetExceeded:
        return SolveResult(best, witness, False, nodes)
    return SolveResult(best, witness, True, nodes)
