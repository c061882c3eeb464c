"""Degeneracy and neighborhood-diversity tooling for sparse graphs.

Everything here works on the underlying undirected view of a digraph
(degeneracy also on a raw adjacency list). Degeneracy comes from the
classic iterated minimum-degree removal, Matula and Beck's smallest-last
ordering, run on a digraph's in-list plus out-list of each vertex; only a
vertex with an anti-parallel pair has a neighbor twice there, so only
such a vertex is deduplicated. The neighborhood classing buckets vertices
outside a modulator X by their exact trace N(v) & X, splitting off the
vertices whose trace is at least the chosen threshold as "heavy".
"""

from __future__ import annotations

from itertools import chain
from operator import add
from typing import Iterable, NamedTuple, Sequence, Union

from .digraph import RootedDigraph
from .outcomes import value_type

Adjacency = list  # list of each vertex's neighbors, no repeats (sets or lists)


def _neighbor_lists(d: RootedDigraph) -> list[list[int]]:
    """Each vertex's neighbors in the underlying simple graph: its in-list
    plus its out-list. The two sorted lists share a vertex only through an
    anti-parallel pair, which needs their ranges to overlap, so only a
    vertex whose lists overlap is checked, and only one whose lists meet
    is deduplicated."""
    adj = list(map(add, d.in_adj, d.out_adj))
    for v, (ins, outs) in enumerate(zip(d.in_adj, d.out_adj)):
        if (ins and outs and ins[0] <= outs[-1] and outs[0] <= ins[-1]
                and not set(ins).isdisjoint(outs)):
            adj[v] = list(set(adj[v]))
    return adj


@value_type
class DegeneracyOrdering(NamedTuple):
    order: tuple[int, ...]
    d: int


def degeneracy(g: Union[RootedDigraph, Adjacency]) -> DegeneracyOrdering:
    """Exact degeneracy via repeatedly removing a minimum-degree vertex
    (smallest-last, Matula and Beck, J. ACM 1983): the ordering lists
    vertices in removal order, so each has at most d neighbors later in
    it. On a ``RootedDigraph`` the peel reads each vertex's in-list plus
    out-list (``_neighbor_lists``), not a set per vertex; any minimum-degree
    order gives the same d, so only the order can differ from a peel of
    ``underlying_adjacency``.

    A bucket holds at most one entry per vertex and degree, since degrees
    only fall; an entry whose degree is no longer its vertex's is stale,
    and the entry of a removed vertex at its final degree was the one
    popped, so the degree test alone skips stale entries."""
    adj = _neighbor_lists(g) if isinstance(g, RootedDigraph) else g
    n = len(adj)
    deg = [len(a) for a in adj]
    buckets: list[list[int]] = [[] for _ in range(max(deg, default=0) + 1)]
    for v in range(n):
        buckets[deg[v]].append(v)
    removed = [False] * n
    order: list[int] = []
    d = 0
    cursor = 0
    for _ in range(n):
        while True:
            while not buckets[cursor]:
                cursor += 1
            cand = buckets[cursor].pop()
            if deg[cand] == cursor:
                break
        removed[cand] = True
        order.append(cand)
        if cursor > d:
            d = cursor
        for w in adj[cand]:
            if not removed[w]:
                dw = deg[w] - 1
                deg[w] = dw
                buckets[dw].append(w)
                if dw < cursor:
                    cursor = dw
    return DegeneracyOrdering(tuple(order), d)


@value_type
class NeighborhoodClassing(NamedTuple):
    """The vertices outside the modulator X, by their trace N(v) & X.

    ``classes`` maps each sorted trace of fewer than ``threshold`` vertices
    to its members and ``heavy`` lists the rest, both ascending, with the
    classes in order of their least member. ``twins`` splits each class
    into its twin groups, the members with the same in-list and out-list:
    each group ascending, the groups in order of their least member."""

    modulator: frozenset[int]
    threshold: int
    classes: dict[tuple[int, ...], list[int]]  # sorted trace -> members
    heavy: list[int]
    twins: dict[tuple[int, ...], list[tuple[int, ...]]]  # sorted trace -> twin groups


def classify_by_modulator(d: RootedDigraph, modulator: Iterable[int],
                          threshold: int) -> NeighborhoodClassing:
    """Bucket every vertex outside the modulator by its exact neighborhood
    trace in it. Members with |N(v) & X| >= threshold land in ``heavy``
    instead of a class. With threshold = 2p and p at least the depth-1
    grad, the counting bounds say |heavy| <= 2p|X| and the number of
    distinct classes is at most (4^p + 2p)|X|.

    One scan buckets the vertices by (in-list, out-list). Twins have the
    same neighborhood, hence the same trace under any modulator, so the
    trace is worked out once per bucket, and the buckets of a class are
    its twin groups. The buckets come in order of their least
    member, so the classes do too."""
    X = frozenset(modulator)
    in_adj, out_adj = d.in_adj, d.out_adj
    buckets: dict[tuple, list[int]] = {}
    for v in range(d.n):
        if v not in X:
            buckets.setdefault((tuple(in_adj[v]), tuple(out_adj[v])), []).append(v)
    twins: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    heavy: list[int] = []
    for (ins, outs), group in buckets.items():
        trace = X.intersection(ins + outs)
        if len(trace) >= threshold:
            heavy += group
        else:
            twins.setdefault(tuple(sorted(trace)), []).append(tuple(group))
    heavy.sort()
    classes = {key: sorted(chain.from_iterable(groups)) for key, groups in twins.items()}
    return NeighborhoodClassing(X, threshold, classes, heavy, twins)


def heavy_count_bound_ok(classing: NeighborhoodClassing) -> bool:
    """First counting bound:, with threshold 2p >= 2*grad_1, at most
    2p|X| vertices have heavy traces."""
    return len(classing.heavy) <= classing.threshold * len(classing.modulator)


def class_count_bound_ok(classing: NeighborhoodClassing, p: int) -> bool:
    """Second counting bound: at most (4^p + 2p)|X| distinct small traces."""
    return len(classing.classes) <= (4 ** p + 2 * p) * len(classing.modulator)


def heavy_degree_sum_check(x_size: int, y_degrees: Sequence[int], d: int) -> bool:
    """In a bipartite graph (X, Y) of degeneracy at most d, the degrees on
    the Y side that exceed 2d sum to at most 2d|X|. A False return means
    the supplied d was below the true degeneracy (or a harness bug)."""
    total = sum(deg for deg in y_degrees if deg > 2 * d)
    return total <= 2 * d * x_size
