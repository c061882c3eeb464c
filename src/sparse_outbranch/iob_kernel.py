"""Linear kernel for rooted internal-out-branching on degenerate digraphs.

The pipeline per round:

1. a local search either finds an out-branching with at least k internal
   vertices (answer YES) or exposes a vertex cover U of size at most
   2k-1 that includes the root;
2. an auxiliary undirected bipartite graph joins U-side unit and
   ordered-pair vertices to the independent remainder W;
3. vertices of W with small degree are bucketed by their exact
   neighborhood in U, and any class more than twice the size of its
   bipartite neighborhood yields a crown decomposition whose unmatched
   side can be deleted without changing the answer for this k;
4. fire every oversized class, then search again, until a pass fires
   nothing.

The result is an induced subgraph of the input with the same k.

``crown_pass`` never builds the auxiliary graph. Members of a class with
the same in-list and out-list are twins there, with the same neighbors,
so the pass works each class as the few twin groups that the classing
already split it into (``NeighborhoodClassing.twins``, ``twin_matching``,
``twin_crown``). Its matching visits the members in the order that
``class_matching`` does, so the crowns and the trace are those of
``crown_in_class`` on ``build_aux_graph``; those two, with
``class_hood``, ``class_matching`` and ``validate_crown``, stay as the
member-by-member reference that ``verify`` and the tests compare with.
Both matchings run one augmenting-path search, ``augmenting_matching``,
so that reference checks the auxiliary graph, the closure of H and the
crown checks, and the tests' recursive matching checks the search.
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import merge
from itertools import chain, repeat
from operator import itemgetter
from typing import Callable, Hashable, Iterable, Iterator, NamedTuple, Optional, Union

from .digraph import OutBranching, RootedDigraph, UnreachableError, bfs_parents, remove_vertices
from .outcomes import (KernelOutcome, NoOutcome, ReducedOutcome, ReductionTrace,
                       RootedInstance, YesOutcome, value_type)
from .sparsity import NeighborhoodClassing, classify_by_modulator, degeneracy

# left-side vertices of the auxiliary graph: ("u", x) for units,
# ("p", x, y) for ordered pairs over the cover
LeftKey = tuple
# a right-side vertex of a matching: a W vertex, or (group index, member)
Partner = Hashable


@value_type
class IobInstance(RootedInstance):
    __slots__ = ()


def vc_or_solution(inst: IobInstance) -> Union[OutBranching, set[int]]:
    """Local search: returns an out-branching with >= k internal vertices,
    or a vertex cover of the underlying undirected graph of size at most
    2k-1 that contains the root. Raises ``UnreachableError``, a ValueError,
    from its BFS when the root does not reach every vertex.

    Starting from a BFS tree, while some arc (u, v) joins two leaves whose
    target still has siblings, re-hang v under u; every move turns one
    leaf internal, so at most n moves happen. On failure the internal
    vertices plus the blocked heads of remaining leaf-leaf arcs form the
    cover.

    One forward pass over the sorted arcs, the out-lists read in tail
    order, makes the same moves as rescanning from the first arc after
    every move, because an arc that fails the test keeps failing. A move
    (u, v) only turns the leaf u internal, and it takes a child from a
    parent that keeps at least one, so no vertex ever becomes a leaf again. A vertex with fewer than two
    children never gains one (only leaves do), and its only child cannot
    move away, so its child count never reaches two. The arc just used,
    and every later arc out of u, fails from then on, since u is no
    longer a leaf.

    The search works on the lists of ``bfs_parents``: the internal count
    and the cover's internal set are read off the child counts, and a tree
    is built only for a YES. A YES at the first exit wraps the BFS tree
    without the constructor's checks, as ``bfs_out_branching`` does; the
    swept tree goes through the checked constructor.
    """
    d = inst.graph
    parent, n_children = bfs_parents(d)
    if d.n - n_children.count(0) >= inst.k:
        return OutBranching.trusted(d.root, parent)

    # the root always keeps children, so leaf checks exclude it; no arc
    # enters the root, so every v below has a parent
    for u, heads in enumerate(d.out_adj):
        if n_children[u] == 0:
            for v in heads:
                if n_children[v] == 0 and n_children[parent[v]] >= 2:
                    n_children[parent[v]] -= 1
                    parent[v] = u
                    n_children[u] += 1
                    break

    if d.n - n_children.count(0) >= inst.k:
        return OutBranching(d.n, d.root, {v: p for v, p in enumerate(parent) if p >= 0})
    internal = {v for v, count in enumerate(n_children) if count}
    blocked = {v for u, heads in enumerate(d.out_adj) if n_children[u] == 0
               for v in heads if n_children[v] == 0}
    return internal | blocked | {d.root}


@value_type
class AuxiliaryBipartite(NamedTuple):
    w_vertices: frozenset[int]
    left_adj: dict[LeftKey, set[int]]   # left vertex -> W neighbors
    w_adj: dict[int, set[LeftKey]]      # W vertex -> left neighbors


def build_aux_graph(d: RootedDigraph, cover: set[int]) -> AuxiliaryBipartite:
    """Undirected bipartite graph between the cover side and W = V - U:
    unit x is adjacent to w when (x,w) is an arc; ordered pair (x,y) is
    adjacent to w when both (x,w) and (w,y) are arcs. Pairs with no
    neighbor at all are not materialized (they can never enter a crown's
    separator)."""
    w_set = frozenset(range(d.n)) - frozenset(cover)
    uncovered = [(u, v) for u in w_set for v in d.out_adj[u] if v in w_set]
    if uncovered:
        raise ValueError("not a vertex cover: arc ({},{}) uncovered".format(*min(uncovered)))
    left_adj: dict[LeftKey, set[int]] = {}
    w_adj: dict[int, set[LeftKey]] = {w: set() for w in w_set}
    for w in w_set:
        for x in d.in_adj[w]:
            key = ("u", x)
            left_adj.setdefault(key, set()).add(w)
            w_adj[w].add(key)
        for x in d.in_adj[w]:
            for y in d.out_adj[w]:
                key = ("p", x, y)
                left_adj.setdefault(key, set()).add(w)
                w_adj[w].add(key)
    return AuxiliaryBipartite(w_set, left_adj, w_adj)


@value_type
class CrownDecomposition(NamedTuple):
    c_m: frozenset[int]
    c_u: frozenset[int]
    h: frozenset[LeftKey]
    matching: dict[LeftKey, int]  # h -> its matched partner in c_m

    @property
    def c(self) -> frozenset[int]:
        return self.c_m | self.c_u


def validate_crown(b: AuxiliaryBipartite, crown: CrownDecomposition) -> None:
    """Structural crown checks: C sits inside W (hence independent), its
    neighborhood is exactly covered by H, and the matching pairs H
    perfectly into C_m."""
    if crown.c_m & crown.c_u:
        raise ValueError("C_m and C_u overlap")
    if not crown.c <= b.w_vertices:
        raise ValueError("crown C-side must lie inside W")
    for w in crown.c:
        outside = b.w_adj[w] - crown.h
        if outside:
            raise ValueError(f"edge from crown vertex {w} escapes H: {sorted(outside)[:3]}")
    if set(crown.matching) != set(crown.h):
        raise ValueError("matching must saturate H exactly")
    partners = set(crown.matching.values())
    if partners != set(crown.c_m) or len(partners) != len(crown.matching):
        raise ValueError("matching must pair H perfectly with C_m")
    for h_key, w in crown.matching.items():
        if w not in b.left_adj.get(h_key, ()):
            raise ValueError(f"matching edge {h_key}-{w} not in the graph")


def augmenting_matching(keys: list[LeftKey],
                        partners: Callable[[LeftKey], Iterable[Partner]],
                        first_free: Callable[[LeftKey, dict], Optional[Partner]]
                        ) -> tuple[dict[LeftKey, Partner], dict[Partner, LeftKey]]:
    """Maximum matching from `keys` by augmenting paths, one search per key
    in the given order; ``class_matching`` and ``twin_matching`` share it.
    ``partners(key)`` lists a key's partners in ascending order, and
    ``first_free(key, match_w)`` returns the least of them not in
    `match_w`, or None. A key with a free partner takes it before any
    search state is built. Otherwise a depth-first search on an explicit
    stack descends through matched partners, in order, to the keys they
    are matched to, until one of those has a free partner, and flips the
    path to it. Returns the key->partner and partner->key maps."""
    match_left: dict[LeftKey, Partner] = {}
    match_w: dict[Partner, LeftKey] = {}
    for key in keys:
        free = first_free(key, match_w)
        if free is not None:
            match_left[key] = free
            match_w[free] = key
            continue
        # path[j] reaches path[j + 1] through the partner of path[j + 1]
        seen = {key}
        path = [key]
        todo = [iter(partners(key))]
        while todo:
            nxt = next((match_w[w] for w in todo[-1] if match_w[w] not in seen), None)
            if nxt is None:
                path.pop()
                todo.pop()
                continue
            seen.add(nxt)
            path.append(nxt)
            free = first_free(nxt, match_w)
            if free is None:
                todo.append(iter(partners(nxt)))
                continue
            # each key on the path takes the partner of the next, the last
            # key the free one
            for k, w in zip(path, [match_left[k] for k in path[1:]] + [free]):
                match_left[k] = w
                match_w[w] = k
            break
    return match_left, match_w


def class_matching(b: AuxiliaryBipartite, members: set[int], hood: set[LeftKey]
                   ) -> tuple[dict[LeftKey, int], dict[int, LeftKey]]:
    """Maximum matching between a class `members` and its neighborhood
    `hood` (``augmenting_matching`` from the small side, the left vertices
    in sorted order, each partner list sorted). Returns the left->W and
    W->left maps."""
    def partners(key: LeftKey) -> list[int]:
        return sorted(b.left_adj[key] & members)

    def first_free(key: LeftKey, match_w: dict) -> Optional[int]:
        return next((w for w in partners(key) if w not in match_w), None)

    return augmenting_matching(sorted(hood), partners, first_free)


def class_hood(b: AuxiliaryBipartite, members: set[int]) -> set[LeftKey]:
    """Auxiliary neighborhood of a set of W-vertices."""
    hood: set[LeftKey] = set()
    for w in members:
        hood.update(b.w_adj[w])
    return hood


def crown_in_class(b: AuxiliaryBipartite, members: set[int], hood: set[LeftKey]
                   ) -> CrownDecomposition:
    """Crown decomposition of the subgraph induced by a same-neighborhood
    class `members` and its bipartite neighborhood `hood` (``class_hood``);
    everything else in the auxiliary graph is its rest R, which is never
    built. Requires |members| > 2 |hood|, which forces an unmatched vertex
    and hence a nonempty C_u."""
    if not members <= b.w_vertices:
        raise ValueError("class members must lie inside W")
    if len(members) <= 2 * len(hood):
        raise ValueError(
            f"class of size {len(members)} does not exceed twice its "
            f"neighborhood ({len(hood)}); crown rule does not fire")

    match_left, match_w = class_matching(b, members, hood)
    free = [w for w in sorted(members) if w not in match_w]
    c: set[int] = set(free)
    h: set[LeftKey] = set()
    queue = list(free)
    while queue:
        w = queue.pop()
        for key in b.w_adj[w]:
            if key in h:
                continue
            h.add(key)
            partner = match_left.get(key)
            if partner is None:
                raise RuntimeError("unmatched neighbor reached: matching was not maximum")
            if partner not in c:
                c.add(partner)
                queue.append(partner)
    c_m = frozenset(match_left[key] for key in h)
    c_u = frozenset(c) - c_m
    crown = CrownDecomposition(c_m, c_u, frozenset(h),
                               {key: match_left[key] for key in h})
    validate_crown(b, crown)
    if not crown.c_u:
        raise RuntimeError("crown construction produced empty C_u")
    return crown


@value_type
class CrownStep(NamedTuple):
    """Class key and sorted C_u in the ids of the graph before the crown.
    Removal keeps vertex order, so with that graph's vertex count they fix
    the step's old -> new id map (``remove_vertices``)."""

    class_key: tuple[int, ...]
    removed: tuple[int, ...]

    def line(self) -> str:
        key = ",".join(str(x) for x in self.class_key)
        ids = ",".join(str(x) for x in self.removed)
        return f"CROWN class={key} removed={ids}"


def apply_crown_rule(inst: IobInstance, crown: CrownDecomposition,
                     b: Optional[AuxiliaryBipartite] = None) -> IobInstance:
    """Delete C_u from the instance; k is unchanged and the result is an
    induced subgraph. When the auxiliary graph is supplied the crown is
    re-validated against it."""
    if not crown.c_u:
        raise ValueError("crown has empty C_u; nothing to remove")
    if b is not None:
        validate_crown(b, crown)
    return IobInstance(remove_vertices(inst.graph, crown.c_u)[0], inst.k)


def small_degree_classes(d: RootedDigraph, cover: set[int], threshold: int
                         ) -> NeighborhoodClassing:
    """Bucket W-vertices of undirected degree below the threshold by their
    exact undirected neighborhood; the rest are the heavy side W_b. W is
    independent, so every neighborhood lies inside the cover and equals
    its trace there. The cover is the classing's modulator."""
    return classify_by_modulator(d, cover, threshold)


@value_type
class TwinGroup(NamedTuple):
    """W-vertices with the same in-list and out-list, ascending. They have
    the same auxiliary neighborhood `keys` (``build_aux_graph``)."""

    keys: frozenset[LeftKey]
    members: tuple[int, ...]

    @classmethod
    def of(cls, d: RootedDigraph, members: tuple[int, ...]) -> TwinGroup:
        """The group of twins `members`, its keys read off the first."""
        ins, outs = d.in_adj[members[0]], d.out_adj[members[0]]
        return cls(frozenset([("u", x) for x in ins]
                             + [("p", x, y) for x in ins for y in outs]), members)


def twin_matching(groups: list[TwinGroup], hood: set[LeftKey]
                  ) -> dict[LeftKey, tuple[int, int]]:
    """``class_matching`` of the union of `groups` and its neighborhood
    `hood`, worked on the groups (``augmenting_matching`` with the same key
    order and partner order): returns key -> (group index, partner).

    A key's partners are the members of its groups, merged in ascending
    order. A matched member stays matched, and each newly matched one is
    some group's least free member, so each group's matched members are
    its first ones: the first free partner of a key is the least of its
    groups' next free members, and each group's count of matched members
    is brought up to date when the group is next asked."""
    key_groups: dict[LeftKey, list[int]] = {key: [] for key in hood}
    members_of = []
    for i, (keys, members) in enumerate(groups):
        members_of.append(members)
        for key in keys:
            key_groups[key].append(i)
    used = [0] * len(groups)

    def partners(key: LeftKey) -> Iterator[tuple[int, int]]:
        return merge(*(zip(repeat(i), members_of[i]) for i in key_groups[key]),
                     key=itemgetter(1))

    def first_free(key: LeftKey, match_w: dict) -> Optional[tuple[int, int]]:
        """(group index, member) of the least free partner of `key`."""
        best = None
        for i in key_groups[key]:
            members = members_of[i]
            while used[i] < len(members) and (i, members[used[i]]) in match_w:
                used[i] += 1
            if used[i] < len(members) and (best is None or members[used[i]] < best[1]):
                best = (i, members[used[i]])
        return best

    return augmenting_matching(sorted(hood), partners, first_free)[0]


def validate_twin_crown(groups: list[TwinGroup], reached: set[int],
                        h: set[LeftKey], matching: dict[LeftKey, tuple[int, int]],
                        used: list[int]) -> None:
    """``validate_crown`` on twin groups. C is the members of the groups
    in `reached`, and C_m the first used[i] members of each: its neighborhood
    is exactly covered by H, and the matching pairs H perfectly into C_m.
    C_m and C_u are a prefix and a suffix of each group, so never overlap."""
    for i in reached:
        outside = groups[i].keys - h
        if outside:
            raise ValueError(f"edge from crown vertex {groups[i].members[0]} "
                             f"escapes H: {sorted(outside)[:3]}")
    if set(matching) != h:
        raise ValueError("matching must saturate H exactly")
    c_m = {(i, w) for i in reached for w in groups[i].members[:used[i]]}
    if set(matching.values()) != c_m or len(c_m) != len(matching):
        raise ValueError("matching must pair H perfectly with C_m")
    for key, (i, w) in matching.items():
        if key not in groups[i].keys:
            raise ValueError(f"matching edge {key}-{w} not in the graph")


def twin_crown(groups: list[TwinGroup], hood: set[LeftKey]) -> list[int]:
    """``crown_in_class`` on the twin groups of a class whose size exceeds
    twice its neighborhood `hood`. Returns how many members each group
    keeps; the rest of the group is its part of C_u.

    A group's members share their neighbors, so one member reached puts
    all its keys into H, and every matched member's partner is one of
    them: the crown's C is whole groups, H their keys, C_m their matched
    members and C_u their free ones, and the closure runs over groups."""
    matching = twin_matching(groups, hood)
    used = [0] * len(groups)
    for i, _ in matching.values():
        used[i] += 1
    free = [i for i, group in enumerate(groups) if used[i] < len(group.members)]
    reached = set(free)
    h: set[LeftKey] = set()
    queue = list(free)
    while queue:
        for key in groups[queue.pop()].keys:
            if key in h:
                continue
            h.add(key)
            if key not in matching:
                raise RuntimeError("unmatched neighbor reached: matching was not maximum")
            i = matching[key][0]
            if i not in reached:
                reached.add(i)
                queue.append(i)
    validate_twin_crown(groups, reached, h, {key: matching[key] for key in h}, used)
    if not free:
        raise RuntimeError("crown construction produced empty C_u")
    return used


def crown_pass(d: RootedDigraph, classing: NeighborhoodClassing
               ) -> tuple[list[CrownStep], list[int]]:
    """One crown pass over one cover, the classing's modulator: every
    class, in key order, larger than twice its auxiliary neighborhood
    loses its crown's C_u. Returns one trace step per crown and the sorted
    union of the C_u, in the ids of `d`, which the caller removes at once.

    W is independent and each C_u lies inside W, so a crown changes no
    other class's members, auxiliary neighborhood or matching: the steps
    are those of a rebuild after every crown. Each class comes split into
    twin groups (``NeighborhoodClassing.twins``), and twins have the same
    out-list, so the cover check reads the least member of each group and
    every heavy vertex; the neighborhood, size test, matching, closure of
    H and crown checks are worked per group, and only C_u is listed member
    by member. Grouping keeps the trace: the matching takes the same partner for every key as
    ``class_matching`` (``twin_matching``), so each crown is that of
    ``crown_in_class`` on ``build_aux_graph``. Removal keeps vertex order,
    so key order does not change, and each step's key and removed ids are
    ranks among the vertices that the earlier steps left: x less the ids
    in `gone` below it. The ranks of a step take one bisection each, and
    its removed ids join `gone` in one merge (``list.sort`` of two sorted
    runs), so no rank map is rebuilt per crown.

    A class that cannot fire is skipped before any key set of its groups
    is built. A twin group with in-list I and out-list O has exactly
    |I|·(1+|O|) keys, a unit per x in I and a pair per (x, y) in I × O
    (``TwinGroup.of``). The class's neighborhood is the union of its
    groups' keys, so it is at least the largest such count, and a class
    no larger than twice that count is no larger than twice its
    neighborhood."""
    cover = classing.modulator
    firsts = [group[0] for groups in classing.twins.values() for group in groups]
    uncovered = [(u, v) for u in firsts + classing.heavy
                 for v in d.out_adj[u] if v not in cover]
    if uncovered:
        raise ValueError("not a vertex cover: arc ({},{}) uncovered".format(*min(uncovered)))
    steps: list[CrownStep] = []
    gone: list[int] = []
    in_adj, out_adj = d.in_adj, d.out_adj
    for key in sorted(classing.classes):
        members = classing.classes[key]
        twins = classing.twins[key]
        if len(members) <= 2 * max(len(in_adj[group[0]]) * (1 + len(out_adj[group[0]]))
                                   for group in twins):
            continue
        groups = [TwinGroup.of(d, group) for group in twins]
        hood = set().union(*(group.keys for group in groups))
        if len(members) <= 2 * len(hood):
            continue
        if not cover.isdisjoint(members):
            raise ValueError("class members must lie inside W")
        kept = twin_crown(groups, hood)
        # A class fires at most once per pass. C_u is exactly the members
        # the maximum matching leaves free, so each member left has its own
        # matched partner in the neighborhood of those left.
        left_hood = set().union(*(group.keys for group, n in zip(groups, kept) if n))
        if sum(kept) > len(left_hood):
            raise RuntimeError(f"class {key} keeps more members than neighbors after its crown")
        removed = sorted(chain.from_iterable(group.members[n:] for group, n in zip(groups, kept)))
        ranks = [x - bisect_left(gone, x) for x in (*key, *removed)]
        steps.append(CrownStep(tuple(ranks[:len(key)]), tuple(ranks[len(key):])))
        gone += removed
        gone.sort()
    return steps, gone


def kernelize_iob(inst: IobInstance, threshold: Optional[int] = None
                  ) -> tuple[KernelOutcome, ReductionTrace]:
    """Run the four-step kernelization to its fixpoint.

    YES as soon as the local search finds a branching with k internal
    vertices; NO when some vertex is unreachable from the root; otherwise
    an induced-subgraph instance in which no small-degree neighborhood
    class exceeds twice its auxiliary neighborhood, with the classing of
    that last pass (whose modulator is its cover). The default degree
    threshold is twice the degeneracy of the input's underlying graph, and
    at least 2; a threshold below 2 raises ValueError, since every W
    vertex of a connected graph has a cover neighbor and no crown could
    fire.

    Each round makes one graph search, the local search's BFS
    (``bfs_parents``), which raises ``UnreachableError`` when the root
    misses a vertex: that is the round's reachability test. Each round
    also makes one scan of W, the classing's bucketing, which hands the
    crown pass its twin groups, and composes the id map of its removal
    into the kernel's ``origin``.
    """
    if threshold is None:
        threshold = max(2, 2 * degeneracy(inst.graph).d)
    elif threshold < 2:
        raise ValueError(f"degree threshold must be at least 2, got {threshold}")
    trace = ReductionTrace()
    current = inst
    origin = range(inst.graph.n)  # the input id of each vertex of current
    for _ in range(inst.graph.n + 1):
        try:
            found = vc_or_solution(current)
        except UnreachableError:
            return NoOutcome("vertex unreachable from root"), trace
        if isinstance(found, OutBranching):
            return YesOutcome(found), trace
        cover = found
        if len(cover) > max(2 * current.k - 1, 1):
            raise RuntimeError(f"cover size {len(cover)} exceeds 2k-1")
        classing = small_degree_classes(current.graph, cover, threshold)
        steps, dead = crown_pass(current.graph, classing)
        if not steps:
            for key, group in classing.classes.items():
                if len(group) > 2 * (len(key) ** 2 + len(key)):
                    raise RuntimeError("retained class exceeds its structural bound")
            return ReducedOutcome(current, classing, tuple(origin)), trace
        trace.steps.extend(steps)
        graph, mapping = remove_vertices(current.graph, dead)
        origin = [x for x, new in zip(origin, mapping) if new is not None]
        current = IobInstance(graph, current.k)
    raise RuntimeError("kernelization failed to reach a fixpoint")


def iob_report(inst: IobInstance, classing: NeighborhoodClassing) -> dict:
    """Size accounting of a kernelized instance from the classing its last
    crown pass used (``ReducedOutcome.classing``): the degree threshold,
    the cover size, the small/heavy split of W, and the class-size
    histogram."""
    hist: dict[int, int] = {}
    for group in classing.classes.values():
        hist[len(group)] = hist.get(len(group), 0) + 1
    return {
        "resolved": "reduced",
        "n": inst.graph.n,
        "m": inst.graph.m,
        "k": inst.k,
        "threshold": classing.threshold,
        "cover_size": len(classing.modulator),
        "w_small": sum(len(g) for g in classing.classes.values()),
        "w_big": len(classing.heavy),
        "class_count": len(classing.classes),
        "class_size_histogram": {str(s): c for s, c in sorted(hist.items())},
    }
