"""Rooted digraphs and their connectivity/surgery primitives.

A rooted digraph is a simple directed graph (no loops, no duplicate arcs;
anti-parallel pairs allowed) with a designated root of in-degree 0.
Connectivity is always taken in the rooted sense: a graph is connected when
every vertex is reachable from the root, a cut-vertex (cut-edge) is a
vertex (arc) whose removal breaks that property. Both come from the
graph's dominator tree.

A ``RootedDigraph`` holds sorted out-lists and in-lists, and ``arcs()``
reads the out-lists in tail order, which is the sorted arc order. Its
constructor checks every arc and, when one fails, reports the first
faulty arc in input order.

A ``RootedDigraph`` is immutable after construction; every surgery returns
a new graph together with an old-id -> new-id mapping so that reduction
traces can be replayed against original vertex names. Immutability is what
lets a graph cache its dominator tree.

A ``LabelledDigraph`` is the mutable counterpart the leaf reducer works on:
one adjacency on the labels of the graph it was copied from, edited in
place. Contraction keeps the smaller label, which is the order-preserving
renumbering ``contract_arc`` makes, so the current id of a label is its
rank among the surviving labels. It carries a dominator tree across its
edits only as far as its callers vouch for (see ``delete`` and
``contract``).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from copy import copy
from typing import Iterable, Optional

Arc = tuple[int, int]


class RootedDigraph:
    """Simple digraph on vertices 0..n-1 with a root of in-degree 0.

    The sorted ``out_adj`` and ``in_adj`` are the only record of the arcs.
    The constructor finds a repeated arc in one step, as a set of the input
    smaller than the input, and checks range, self-loop and the root as it
    appends each arc. On any fault it rescans the input arc by arc, so it
    raises for the first faulty arc in input order."""

    __slots__ = ("n", "root", "out_adj", "in_adj", "_dom")

    def __init__(self, n: int, root: int, arcs: Iterable[Arc]):
        if n <= 0:
            raise ValueError("vertex count must be positive")
        if not 0 <= root < n:
            raise ValueError(f"root {root} out of range 0..{n - 1}")
        if not isinstance(arcs, (list, set)):
            arcs = list(arcs)
        out_adj: list[list[int]] = [[] for _ in range(n)]
        in_adj: list[list[int]] = [[] for _ in range(n)]
        try:
            fault = len(set(arcs)) != len(arcs)  # some arc repeats
            for u, v in arcs:
                if not (0 <= u < n and 0 <= v < n) or u == v or v == root:
                    fault = True
                    break
                out_adj[u].append(v)
                in_adj[v].append(u)
        except (TypeError, ValueError):  # such as unhashable pairs
            fault = True
        if fault:  # rescan, arc by arc, to report the first fault
            out_adj, in_adj = _checked_lists(n, root, arcs)
        for adj in out_adj:
            adj.sort()
        for adj in in_adj:
            adj.sort()
        self.n = n
        self.root = root
        self.out_adj = out_adj
        self.in_adj = in_adj
        self._dom: Optional[Dominators] = None

    @property
    def m(self) -> int:
        return sum(map(len, self.out_adj))

    def arcs(self) -> list[Arc]:
        """Every arc, in sorted order: the out-lists read in tail order."""
        return [(u, v) for u, adj in enumerate(self.out_adj) for v in adj]

    def has_arc(self, u: int, v: int) -> bool:
        if not 0 <= u < self.n:  # a negative u must not index from the end
            return False
        adj = self.out_adj[u]
        i = bisect_left(adj, v)
        return i < len(adj) and adj[i] == v

    def with_arcs_removed(self, removed: Iterable[Arc]) -> "RootedDigraph":
        dead = set(removed)
        return RootedDigraph(self.n, self.root,
                             [a for a in self.arcs() if a not in dead])

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, RootedDigraph)
                and self.n == other.n
                and self.root == other.root
                and self.out_adj == other.out_adj)

    def __hash__(self) -> int:
        return hash((self.n, self.root, tuple(map(tuple, self.out_adj))))

    def __repr__(self) -> str:
        return f"RootedDigraph(n={self.n}, root={self.root}, m={self.m})"


def _checked_lists(n: int, root: int, arcs: Iterable[Arc]
                   ) -> tuple[list[list[int]], list[list[int]]]:
    """The out-lists and in-lists of `arcs`, checked one arc at a
    time in input order: raises for the first arc that is out of range, a
    self-loop, a repeat of an earlier arc or an arc into the root."""
    arcset: set[Arc] = set()
    out_adj: list[list[int]] = [[] for _ in range(n)]
    in_adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in arcs:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"arc ({u},{v}) out of range")
        if u == v:
            raise ValueError(f"self-loop at {u}")
        if (u, v) in arcset:
            raise ValueError(f"duplicate arc ({u},{v})")
        if v == root:
            raise ValueError(f"arc ({u},{v}) enters the root")
        arcset.add((u, v))
        out_adj[u].append(v)
        in_adj[v].append(u)
    return out_adj, in_adj


class OutBranching:
    """Spanning tree of a rooted digraph with all arcs oriented away from
    the root, stored as a parent map over non-root vertices.

    A vertex is a leaf when it has out-degree 0 in the tree, internal
    otherwise. Every non-root vertex has one parent, so one walk down
    ``children`` from the root meets all n vertices iff none is on a cycle.
    """

    __slots__ = ("n", "root", "parent", "children")

    def __init__(self, n: int, root: int, parent: dict[int, int]):
        if set(parent) != set(range(n)) - {root}:
            raise ValueError("parent map must cover exactly the non-root vertices")
        children: list[list[int]] = [[] for _ in range(n)]
        for v, p in parent.items():
            if not 0 <= p < n:
                raise ValueError(f"parent {p} of {v} out of range")
            children[p].append(v)
        found = [root]
        for u in found:  # also visits what is appended meanwhile
            found.extend(children[u])
        if len(found) != n:
            raise ValueError("parent map contains a cycle")
        self.n = n
        self.root = root
        self.parent = dict(parent)
        self.children = children

    @classmethod
    def trusted(cls, root: int, parent: list[int]) -> OutBranching:
        """The tree of a parent list, -1 at the root, that the caller
        vouches is a spanning out-branching: the constructor's checks do
        not run. Children come in ascending order."""
        tree = cls.__new__(cls)
        children: list[list[int]] = [[] for _ in parent]
        for v, p in enumerate(parent):
            if p >= 0:
                children[p].append(v)
        tree.n = len(parent)
        tree.root = root
        tree.parent = {v: p for v, p in enumerate(parent) if p >= 0}
        tree.children = children
        return tree

    def leaf_count(self) -> int:
        return sum(1 for v in range(self.n) if not self.children[v])

    def internal_count(self) -> int:
        return self.n - self.leaf_count()

    def is_valid_for(self, d: RootedDigraph) -> bool:
        return (self.n == d.n and self.root == d.root
                and all(d.has_arc(p, v) for v, p in self.parent.items()))


def _check_vertex(d: RootedDigraph, v: int) -> None:
    if not 0 <= v < d.n:
        raise ValueError(f"vertex {v} out of range")


def reachable(d: RootedDigraph, start: int,
              removed_vertices: Iterable[int] = ()) -> set[int]:
    """Vertices reachable from ``start`` by directed paths that avoid the
    removed vertices. ``start`` itself is always included. Raises
    ValueError for an id that is not a vertex of ``d``."""
    _check_vertex(d, start)
    dead_v = set(removed_vertices)
    if start in dead_v:
        raise ValueError("start vertex is removed")
    seen = [False] * d.n
    seen[start] = True
    for v in dead_v:
        _check_vertex(d, v)
        seen[v] = True  # mark removed so the search never enters them
    found = [start]
    for u in found:  # also visits what is appended meanwhile
        for w in d.out_adj[u]:
            if not seen[w]:
                seen[w] = True
                found.append(w)
    return set(found)


def is_connected(d: RootedDigraph) -> bool:
    """True when every vertex is reachable from the root."""
    return len(reachable(d, d.root)) == d.n


def immediate_dominators(n: int, root: int, out_adj: list[list[int]],
                         in_adj: list[list[int]]) -> tuple[list[int], list[int]]:
    """(order, idom): the vertices the root reaches in DFS preorder, and
    the immediate dominator of each as an index into ``order`` (0 for the
    root itself). Every idom[i] < i. Takes adjacency lists rather than a
    graph, so a caller can pass a view with some arcs masked out without
    building a RootedDigraph."""
    # Semidominators by Lengauer-Tarjan's link-eval with iterative path
    # compression, then immediate dominators by nearest common ancestor
    # (SEMI-NCA). Work is in DFS preorder numbers.
    num = [-1] * n
    num[root] = 0
    order = [root]
    parent = [0]
    stack = [(0, iter(out_adj[root]))]
    while stack:
        i, it = stack[-1]
        for w in it:
            if num[w] < 0:
                num[w] = len(order)
                parent.append(i)
                stack.append((len(order), iter(out_adj[w])))
                order.append(w)
                break
        else:
            stack.pop()
    count = len(order)
    semi = list(range(count))
    label = list(range(count))
    anc = [-1] * count
    path: list[int] = []
    for i in range(count - 1, 0, -1):
        s = i
        for u in in_adj[order[i]]:
            j = num[u]
            if j > i:
                # u is already linked: eval(j), compressing its path
                v = j
                while anc[anc[v]] >= 0:
                    path.append(v)
                    v = anc[v]
                while path:
                    v = path.pop()
                    a = anc[v]
                    if semi[label[a]] < semi[label[v]]:
                        label[v] = label[a]
                    anc[v] = anc[a]
                j = semi[label[j]]
            if 0 <= j < s:
                s = j
        semi[i] = s
        anc[i] = parent[i]
    idom = [0] * count
    for i in range(1, count):
        a = parent[i]
        while a > semi[i]:
            a = idom[a]
        idom[i] = a
    return order, idom


class Dominators:
    """Dominator tree of a rooted digraph, with the cut structure it yields.

    Built on ``immediate_dominators``: each reached vertex owns the interval
    of dominator-tree preorder numbers of its subtree, so ``dominates`` is
    an O(1) test. ``reached`` counts the vertices the root reaches; the cut
    sets cover that part of the graph. ``cut_vertices`` is kept up to date
    by ``merge``; ``cut_edges`` is derived on each call from the in-lists of
    a graph the tree is valid for. A caller that needs only the reach and
    the cut vertices reads them from ``immediate_dominators`` directly.
    """

    __slots__ = ("reached", "cut_vertices", "_root", "_pre", "_size", "_kids")

    def __init__(self, n: int, root: int, out_adj: list[list[int]],
                 in_adj: list[list[int]]):
        order, idom = immediate_dominators(n, root, out_adj, in_adj)
        count = len(order)
        # idom[i] < i, so sizes and child counts accumulate bottom-up and
        # preorder slots can be handed out top-down without walking the tree
        size = [1] * count
        kids = [0] * count
        for i in range(count - 1, 0, -1):
            size[idom[i]] += size[i]
            kids[idom[i]] += 1
        pre = [0] * count
        free = [1] * count
        for i in range(1, count):
            p = idom[i]
            pre[i] = free[p]
            free[p] += size[i]
            free[i] = pre[i] + 1
        self.reached = count
        self._root = root
        self._pre = [-1] * n
        self._size = [0] * n
        self._kids = [0] * n
        for i, v in enumerate(order):
            self._pre[v] = pre[i]
            self._size[v] = size[i]
            self._kids[v] = kids[i]
        # a non-root vertex is a cut-vertex when it is some vertex's
        # immediate dominator
        self.cut_vertices = {order[i] for i in range(1, count) if kids[i]}

    def cut_edges(self, in_adj: list[list[int]]) -> frozenset[Arc]:
        """The cut-edges of the graph whose in-lists are ``in_adj``, which
        this tree must be valid for: (u, v) is a cut-edge when u is the only
        in-neighbor of v that v does not dominate."""
        cut_e = []
        for v, p in enumerate(self._pre):
            if p > 0:  # reached, and not the root
                alive = [u for u in in_adj[v] if not self.dominates(v, u)]
                if len(alive) == 1:
                    cut_e.append((alive[0], v))
        return frozenset(cut_e)

    def reaches(self, v: int) -> bool:
        """True when v is reachable from the root."""
        return self._pre[v] >= 0

    def dominates(self, a: int, b: int) -> bool:
        """True when every path from the root to b passes through a. Every
        vertex dominates itself; a vertex the root does not reach is
        dominated by all."""
        pa, pb = self._pre[a], self._pre[b]
        return pb < 0 or pa <= pb < pa + self._size[a]

    def merge(self, a: int, b: int) -> None:
        """Update the tree in place for contracting the arc (a, b) into one
        vertex labelled min(a, b), when that contraction merges two tree
        nodes: one endpoint is the other's immediate dominator, or both are
        leaves under one immediate dominator. The merged vertex takes the
        upper node's place and inherits the lower node's children. Whether a
        contraction is of this kind is the caller's to prove; the leaf case
        is checked."""
        pre, size, kids = self._pre, self._size, self._kids
        keep, gone = min(a, b), max(a, b)
        if self.dominates(b, a):
            a, b = b, a
        if self.dominates(a, b):
            kids[a] += kids[b] - 1
            upper = a
        else:
            # two leaves: their parent is the deepest vertex above both
            above = [max((v for v in self.cut_vertices | {self._root}
                          if pre[v] < pre[x] < pre[v] + size[v]),
                         key=pre.__getitem__) for x in (a, b)]
            if kids[a] or kids[b] or above[0] != above[1]:
                raise ValueError(f"contracting ({a},{b}) does not merge two tree nodes")
            kids[above[0]] -= 1  # it keeps the merged leaf, so stays a cut-vertex
            upper = keep
        pre[keep], size[keep], kids[keep] = pre[upper], size[upper], kids[upper]
        pre[gone], size[gone], kids[gone] = -1, 0, 0
        if self._root == gone:
            self._root = keep
        self.cut_vertices.discard(gone)
        if kids[keep] and keep != self._root:
            self.cut_vertices.add(keep)
        else:
            self.cut_vertices.discard(keep)
        self.reached -= 1


def dominators(d: RootedDigraph) -> Dominators:
    """The dominator tree of ``d``, computed on first use and cached on the
    graph (which a ``LabelledDigraph`` then carries across its edits)."""
    dom = d._dom
    if dom is None:
        dom = d._dom = Dominators(d.n, d.root, d.out_adj, d.in_adj)
    return dom


def cut_structure(d: RootedDigraph) -> tuple[set[int], frozenset[Arc]]:
    """Cut-vertices and cut-edges of a connected rooted digraph, read off
    its dominator tree; the cut-edges are derived anew on each call."""
    dom = dominators(d)
    if dom.reached != d.n:
        raise ValueError("cut structure requires a connected digraph")
    return dom.cut_vertices, dom.cut_edges(d.in_adj)


class LabelledDigraph(RootedDigraph):
    """A copy of a rooted digraph that is edited in place on the labels of
    the original. ``n`` is the size of the label space and ``labels`` lists
    the surviving labels in order; a label's current id, the id its vertex
    has in the graph that immutable surgery would have built, is its rank
    there. Removed labels keep empty adjacency lists."""

    __slots__ = ("labels",)

    def __init__(self, d: RootedDigraph):
        self.n = d.n
        self.root = d.root
        self.out_adj = [list(adj) for adj in d.out_adj]
        self.in_adj = [list(adj) for adj in d.in_adj]
        self._dom = None
        self.labels = list(range(d.n))

    def rank(self, v: int) -> int:
        """The current id of label v."""
        return bisect_left(self.labels, v)

    def delete(self, arc: Arc) -> None:
        """Delete ``arc`` and keep the dominator tree: the caller vouches
        that, for every vertex set C, the root reaches the same vertices
        while avoiding C before and after, as for the deletions of rules 4
        and 6. Raises ValueError, and changes nothing, for an absent arc."""
        u, v = arc
        if not self.has_arc(u, v):
            raise ValueError(f"arc ({u},{v}) not in graph")
        self.out_adj[u].remove(v)
        self.in_adj[v].remove(u)

    def contract(self, arc: Arc, merge_tree: bool) -> int:
        """Identify the endpoints of ``arc`` into the smaller label, dropping
        loops and parallel arcs, and return that label. With ``merge_tree``
        the dominator tree is updated by ``Dominators.merge``; otherwise it
        is recomputed on next use. Raises ValueError, and changes nothing,
        for an absent arc."""
        self.delete(arc)
        a, b = arc
        keep, gone = min(a, b), max(a, b)
        for w in self.out_adj[gone]:
            self.in_adj[w].remove(gone)
            self._add(keep, w)
        for w in self.in_adj[gone]:
            self.out_adj[w].remove(gone)
            self._add(w, keep)
        self.out_adj[gone] = []
        self.in_adj[gone] = []
        del self.labels[self.rank(gone)]
        if self.root == gone:
            self.root = keep
        if self._dom is not None:
            if merge_tree:
                self._dom.merge(a, b)
            else:
                self._dom = None
        return keep

    def _add(self, u: int, v: int) -> None:
        if u != v and not self.has_arc(u, v):
            insort(self.out_adj[u], v)
            insort(self.in_adj[v], u)

    def snapshot(self) -> RootedDigraph:
        """The graph on current ids, with the dominator tree it carries."""
        rank = {v: i for i, v in enumerate(self.labels)}
        d = RootedDigraph(len(self.labels), rank[self.root],
                          [(rank[u], rank[v]) for u, v in self.arcs()])
        if self._dom is not None:
            dom = d._dom = copy(self._dom)
            dom._root = rank[dom._root]
            dom._pre, dom._size, dom._kids = (
                [a[v] for v in self.labels] for a in (dom._pre, dom._size, dom._kids))
            dom.cut_vertices = {rank[v] for v in dom.cut_vertices}
        return d


def heads_by_tail(arcs: Iterable[Arc]) -> dict[int, list[int]]:
    """The heads of ``arcs``, grouped by their tails."""
    heads: dict[int, list[int]] = {}
    for u, v in arcs:
        heads.setdefault(u, []).append(v)
    return heads


def split_lonely_branching(cut_e: set[Arc]) -> tuple[set[Arc], set[Arc]]:
    """Partition cut-edges into lonely (tail emits no other cut-edge) and
    branching (tail shared with another cut-edge)."""
    heads = heads_by_tail(cut_e)
    lonely = {a for a in cut_e if len(heads[a[0]]) == 1}
    return lonely, cut_e - lonely


def contract_arc(d: RootedDigraph, arc: Arc) -> tuple[RootedDigraph, list[int]]:
    """Identify the endpoints of ``arc`` into one vertex, dropping loops and
    parallel arcs. Returns the new graph and the old->new id mapping (both
    endpoints map to the merged id). If the root is an endpoint the merged
    vertex becomes the root; the in-degree-0 invariant must survive, which
    is the caller's responsibility to arrange."""
    u, v = arc
    if not d.has_arc(u, v):
        raise ValueError(f"arc ({u},{v}) not in graph")
    keep = min(u, v)
    gone = max(u, v)
    mapping = [x - (1 if x > gone else 0) for x in range(d.n)]
    mapping[gone] = mapping[keep]
    new_arcs = set()
    for a, b in d.arcs():
        na, nb = mapping[a], mapping[b]
        if na != nb:
            new_arcs.add((na, nb))
    new_root = mapping[d.root]
    g = RootedDigraph(d.n - 1, new_root, new_arcs)
    return g, mapping


def remove_vertices(d: RootedDigraph, drop: Iterable[int]) -> tuple[RootedDigraph, list[Optional[int]]]:
    """Induced subgraph on the complement of ``drop``, with old->new mapping
    (None for removed vertices). Raises ValueError for an id that is not
    a vertex of ``d``."""
    dead = set(drop)
    for v in dead:
        _check_vertex(d, v)
    if d.root in dead:
        raise ValueError("cannot remove the root")
    mapping: list[Optional[int]] = [None] * d.n
    nxt = 0
    for x in range(d.n):
        if x not in dead:
            mapping[x] = nxt
            nxt += 1
    # the mapping keeps vertex order, so the induced arcs come out sorted
    new_arcs = [(mapping[a], mapping[b]) for a, adj in enumerate(d.out_adj)
                if a not in dead for b in adj if b not in dead]
    g = RootedDigraph(d.n - len(dead), mapping[d.root], new_arcs)
    return g, mapping


def underlying_adjacency(d: RootedDigraph) -> list[set[int]]:
    """Adjacency sets of the underlying simple undirected graph."""
    adj: list[set[int]] = [set() for _ in range(d.n)]
    for u, v in d.arcs():
        adj[u].add(v)
        adj[v].add(u)
    return adj


class UnreachableError(ValueError):
    """The root does not reach every vertex."""


def bfs_parents(d: RootedDigraph) -> tuple[list[int], list[int]]:
    """Breadth-first spanning out-branching on plain lists: the parent of
    each vertex (-1 at the root) and its child count. Raises
    ``UnreachableError`` unless the root reaches every vertex. -1 also
    marks a vertex not yet found; the root is its own parent until the end."""
    out_adj = d.out_adj
    parent = [-1] * d.n
    n_children = [0] * d.n
    parent[d.root] = d.root
    found = [d.root]
    for u in found:  # also visits what is appended meanwhile
        kids = 0
        for w in out_adj[u]:
            if parent[w] < 0:
                parent[w] = u
                found.append(w)
                kids += 1
        n_children[u] = kids
    if len(found) != d.n:
        raise UnreachableError("graph is not connected from the root")
    parent[d.root] = -1
    return parent, n_children


def bfs_out_branching(d: RootedDigraph) -> OutBranching:
    """Breadth-first spanning out-branching (``bfs_parents``); raises
    ``UnreachableError`` unless the root reaches every vertex. The tree is
    valid by construction, so it skips the constructor's checks."""
    return OutBranching.trusted(d.root, bfs_parents(d)[0])
