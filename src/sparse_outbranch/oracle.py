"""Ground-truth solvers for small rooted digraphs.

Enumerates every spanning out-branching (arc extension with a
bridging-arc feasibility test, so dead subtrees are never entered and each
branching is produced exactly once), plus an independent parent-vector
brute force used to cross-check the enumeration, and a branch-and-bound
solver for kernelized instances that are too big to enumerate. Enumeration
and branch and bound share one iterative search, so their depth is not
limited by the interpreter's recursion limit.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, Optional

from .digraph import (
    OutBranching,
    RootedDigraph,
    bfs_out_branching,
    is_connected,
)


class BudgetExceeded(Exception):
    """Raised when an exact computation would exceed its budget."""


# enumeration is exponential; larger graphs go to branch and bound
ENUMERATION_MAX_N = 12


class SolveMode(Enum):
    LEAF = "leaf"
    INTERNAL = "internal"


@dataclass
class SolveResult:
    best_value: int
    witness: Optional[OutBranching]
    exact: bool


def _tree_value(t: OutBranching, mode: SolveMode) -> int:
    return t.leaf_count() if mode is SolveMode.LEAF else t.internal_count()


class _Grower:
    """Shared state for the arc-extension search: a partial arborescence
    (parent map + attached flags), a set of banned arc indices, and the
    feasibility test that prunes branches which can no longer span."""

    def __init__(self, d: RootedDigraph):
        self.d = d
        self.arcs = d.arcs()
        self.arc_index = {a: i for i, a in enumerate(self.arcs)}
        self.banned = [False] * len(self.arcs)
        self.attached = [False] * d.n
        self.attached[d.root] = True
        self.parent: dict[int, int] = {}
        self.child_count = [0] * d.n
        self.internal = 0

    def unattached(self) -> int:
        return self.d.n - 1 - len(self.parent)

    def feasible(self) -> bool:
        seen = self.attached.copy()
        stack = [v for v in range(self.d.n) if seen[v]]
        todo = self.unattached()
        if todo == 0:
            return True
        out_adj = self.d.out_adj
        banned = self.banned
        index = self.arc_index
        while stack:
            u = stack.pop()
            for w in out_adj[u]:
                if not seen[w] and not banned[index[(u, w)]]:
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

    def value_bound(self, mode: SolveMode) -> int:
        # optimistic: every unattached vertex counts toward the objective,
        # attached leaves may still flip to internal (and vice versa never)
        if mode is SolveMode.INTERNAL:
            return self.internal + self.unattached()
        attached_now = len(self.parent) + 1
        return (attached_now - self.internal) + self.unattached()


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
    vertex and keep the acyclic ones. Exponential; for cross-checks only."""
    nonroots = [v for v in range(d.n) if v != d.root]
    for v in nonroots:
        if not d.in_adj[v]:
            return
    for combo in itertools.product(*(d.in_adj[v] for v in nonroots)):
        parent = dict(zip(nonroots, combo))
        ok = True
        for v in nonroots:
            steps = 0
            u = v
            while u != d.root:
                u = parent[u]
                steps += 1
                if steps >= d.n:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            yield OutBranching(d.n, d.root, parent)


def solve_branch_and_bound(d: RootedDigraph, k: Optional[int],
                           mode: SolveMode,
                           timeout: float = 60.0) -> SolveResult:
    """Exact optimum by branch and bound over partial out-branchings.

    The optimistic bound counts every unattached vertex as a leaf (LEAF
    mode) or as internal (INTERNAL mode). When ``k`` is given the search
    exits as soon as a branching of value >= k is found (the result is then
    a decision witness, not a proven optimum, so exact=False). A search
    still running after ``timeout`` seconds returns its incumbent with
    exact=False.
    """
    if not is_connected(d):
        raise ValueError("branch and bound requires a connected digraph")
    deadline = time.monotonic() + timeout

    seed = bfs_out_branching(d)
    best = _tree_value(seed, mode)
    witness: Optional[OutBranching] = seed
    if k is not None and best >= k:
        return SolveResult(best, witness, exact=False)

    st = _Grower(d)

    def prune() -> bool:
        if time.monotonic() > deadline:
            raise BudgetExceeded("branch and bound timeout")
        return st.value_bound(mode) <= best

    try:
        for _ in _search(st, prune):
            t = OutBranching(d.n, d.root, st.parent)
            val = _tree_value(t, mode)
            if val > best:
                best, witness = val, t
                if k is not None and best >= k:
                    return SolveResult(best, witness, exact=False)
    except BudgetExceeded:
        return SolveResult(best, witness, exact=False)
    return SolveResult(best, witness, exact=True)
