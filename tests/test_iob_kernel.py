import json
import random
from bisect import bisect_left
from itertools import chain

import pytest

from sparse_outbranch.cli import main

from sparse_outbranch.digraph import (
    OutBranching,
    RootedDigraph,
    UnreachableError,
    bfs_out_branching,
    is_connected,
    remove_vertices,
    underlying_adjacency,
)
from sparse_outbranch.generators import gen_degenerate, gen_iob_twins
from sparse_outbranch.instance_io import save_instance
from sparse_outbranch.iob_kernel import (
    AuxiliaryBipartite,
    CrownStep,
    IobInstance,
    TwinGroup,
    apply_crown_rule,
    build_aux_graph,
    class_hood,
    class_matching,
    crown_in_class,
    crown_pass,
    iob_report,
    kernelize_iob,
    small_degree_classes,
    twin_crown,
    twin_matching,
    validate_crown,
    validate_twin_crown,
    vc_or_solution,
)
from sparse_outbranch.oracle import enumerate_out_branchings
from sparse_outbranch.outcomes import (
    NoOutcome,
    ReducedOutcome,
    ReductionTrace,
    YesOutcome,
)
from sparse_outbranch.sparsity import NeighborhoodClassing, classify_by_modulator, degeneracy

from conftest import bfs_out_branching_checked, random_connected


def max_internal(d):
    return max(t.internal_count() for t in enumerate_out_branchings(d))


def _class_matching_recursive(b, members, hood):
    """The recursive augmenting-path matching that
    ``iob_kernel.class_matching`` replaced, kept as the reference."""
    match_left, match_w = {}, {}

    def augment(key, seen):
        for w in sorted(b.left_adj[key] & members):
            if w not in match_w:
                match_left[key] = w
                match_w[w] = key
                return True
        for w in sorted(b.left_adj[key] & members):
            nxt = match_w[w]
            if nxt not in seen:
                seen.add(nxt)
                if augment(nxt, seen):
                    match_left[key] = w
                    match_w[w] = key
                    return True
        return False

    for key in sorted(hood):
        augment(key, {key})
    return match_left, match_w


def _vc_or_solution_rescan(inst):
    """The local search that rescanned the sorted arcs from the first one
    after every move, kept as the reference for the forward pass of
    ``iob_kernel.vc_or_solution``."""
    d = inst.graph
    if not is_connected(d):
        raise ValueError("local search requires a connected instance")
    tree = bfs_out_branching_checked(d)
    if tree.internal_count() >= inst.k:
        return tree
    parent = dict(tree.parent)
    n_children = [0] * d.n
    for p in parent.values():
        n_children[p] += 1

    def find_move():
        for u, v in d.arcs():
            if n_children[u] == 0 and n_children[v] == 0 and n_children[parent[v]] >= 2:
                return u, v
        return None

    for _ in range(d.n + 1):
        move = find_move()
        if move is None:
            break
        u, v = move
        n_children[parent[v]] -= 1
        parent[v] = u
        n_children[u] += 1
    else:
        raise RuntimeError("local search failed to terminate")

    tree = OutBranching(d.n, d.root, parent)
    if tree.internal_count() >= inst.k:
        return tree
    blocked = {v for u, v in d.arcs() if n_children[u] == 0 and n_children[v] == 0}
    internal = {v for v in range(d.n) if tree.children[v]}
    return internal | blocked | {d.root}


def _vc_or_solution_sorted_arcs(inst):
    """The local search that made both its sweeps over a sorted copy of
    the arc set, and built the swept tree as an ``OutBranching`` whether
    or not it was the answer, reading the cover's internal set off it;
    kept as the reference for the out-list sweeps of
    ``iob_kernel.vc_or_solution`` and for its one tree."""
    d = inst.graph
    tree = bfs_out_branching_checked(d)
    if tree.internal_count() >= inst.k:
        return tree
    parent = dict(tree.parent)
    n_children = [0] * d.n
    for p in parent.values():
        n_children[p] += 1
    arcs = d.arcs()
    for u, v in arcs:
        if n_children[u] == 0 and n_children[v] == 0 and n_children[parent[v]] >= 2:
            n_children[parent[v]] -= 1
            parent[v] = u
            n_children[u] += 1
    tree = OutBranching(d.n, d.root, parent)
    if tree.internal_count() >= inst.k:
        return tree
    blocked = {v for u, v in arcs if n_children[u] == 0 and n_children[v] == 0}
    internal = {v for v in range(d.n) if tree.children[v]}
    return internal | blocked | {d.root}


def _vc_or_solution_checked_tree(inst):
    """The local search that built and checked the BFS tree as an
    ``OutBranching`` in every round, and copied its parent map to sweep,
    kept as the reference for ``iob_kernel.vc_or_solution``, which works
    on the lists of ``bfs_parents``."""
    d = inst.graph
    tree = bfs_out_branching_checked(d)
    n_children = list(map(len, tree.children))
    if d.n - n_children.count(0) >= inst.k:
        return tree
    parent = dict(tree.parent)
    for u, heads in enumerate(d.out_adj):
        if n_children[u] == 0:
            for v in heads:
                if n_children[v] == 0 and n_children[parent[v]] >= 2:
                    n_children[parent[v]] -= 1
                    parent[v] = u
                    n_children[u] += 1
                    break
    if d.n - n_children.count(0) >= inst.k:
        return OutBranching(d.n, d.root, parent)
    internal = {v for v, count in enumerate(n_children) if count}
    blocked = {v for u, heads in enumerate(d.out_adj) if n_children[u] == 0
               for v in heads if n_children[v] == 0}
    return internal | blocked | {d.root}


def _classify_per_member(d, modulator, threshold):
    """The per-member bucketing that ``sparsity.classify_by_modulator``
    replaced, kept as the reference: (classes, heavy), one trace worked
    out for every vertex outside the modulator."""
    X = frozenset(modulator)
    classes = {}
    heavy = []
    for v in range(d.n):
        if v in X:
            continue
        trace = X.intersection(d.in_adj[v] + d.out_adj[v])
        if len(trace) >= threshold:
            heavy.append(v)
        else:
            classes.setdefault(tuple(sorted(trace)), []).append(v)
    return classes, heavy


def _twin_groups(d, members):
    """The per-class twin split that ``crown_pass`` ran before the
    classing handed it ``NeighborhoodClassing.twins``, kept as the
    reference."""
    by_lists = {}
    for w in members:
        by_lists.setdefault((tuple(d.in_adj[w]), tuple(d.out_adj[w])), []).append(w)
    return [TwinGroup(frozenset([("u", x) for x in ins]
                                + [("p", x, y) for x in ins for y in outs]),
                      tuple(sorted(group)))
            for (ins, outs), group in by_lists.items()]


def _assert_classing_matches_references(d, modulator, threshold):
    """The one-scan classing equals the per-member classing, in dict
    order and member order, and its twin split equals the per-class
    split of every class, keys included."""
    got = classify_by_modulator(d, modulator, threshold)
    classes, heavy = _classify_per_member(d, modulator, threshold)
    assert list(got.classes.items()) == list(classes.items())
    assert got.heavy == heavy
    assert list(got.twins) == list(classes)
    for key, members in classes.items():
        assert [TwinGroup.of(d, group) for group in got.twins[key]] == _twin_groups(d, members)
    return got


def _crown_round_reference(inst, cover, classes):
    """One crown per round: the first oversized class in key order loses
    its C_u and the instance is rebuilt. Kept as the reference for
    ``iob_kernel.crown_pass``."""
    b = build_aux_graph(inst.graph, cover)
    for key in sorted(classes):
        members = set(classes[key])
        hood = set()
        for w in members:
            hood.update(b.w_adj[w])
        if len(members) > 2 * len(hood):
            crown = crown_in_class(b, members, hood)
            step = CrownStep(key, tuple(sorted(crown.c_u)))
            _, mapping = remove_vertices(inst.graph, crown.c_u)
            assert _step_mapping(step, inst.graph.n) == mapping
            return apply_crown_rule(inst, crown), step
    return None


def _step_mapping(step, n):
    """The old -> new id map, None for a removed id, of a step on a graph
    of n vertices, derived from its removed ids the way ``remove_vertices``
    numbers the survivors."""
    gone = set(step.removed)
    kept = iter(range(n - len(gone)))
    return [None if x in gone else next(kept) for x in range(n)]


def _step_mappings(n, trace):
    """Each step's old -> new id map, from the running vertex count."""
    maps = []
    for step in trace:
        maps.append(_step_mapping(step, n))
        n -= len(step.removed)
    return maps


def _vertex_map_per_step(n, trace):
    """The original -> kernel id map that ``cli.cmd_kernelize_iob`` built
    by composing every step's full mapping, kept as the reference."""
    mapping = list(range(n))
    for step_map in _step_mappings(n, trace):
        mapping = [step_map[x] if x is not None else None for x in mapping]
    return mapping


def _origin_by_trace_replay(n, trace):
    """The input ids of the kernel's vertices as ``cli.cmd_kernelize_iob``
    replayed them from the trace, one ``del`` per removed id, kept as the
    reference for ``ReducedOutcome.origin``."""
    alive = list(range(n))
    for step in trace:
        for r in reversed(step.removed):
            del alive[r]
    return tuple(alive)


def _crown_pass_every_class(d, classing):
    """The crown pass that built every class's twin groups and their key
    sets before its size test, kept as the reference for
    ``iob_kernel.crown_pass``, which passes over a class that its largest
    group's key count shows cannot fire."""
    cover = classing.modulator
    firsts = [group[0] for groups in classing.twins.values() for group in groups]
    uncovered = [(u, v) for u in firsts + classing.heavy
                 for v in d.out_adj[u] if v not in cover]
    if uncovered:
        raise ValueError("not a vertex cover: arc ({},{}) uncovered".format(*min(uncovered)))
    steps = []
    gone = []
    for key in sorted(classing.classes):
        members = classing.classes[key]
        groups = [TwinGroup.of(d, group) for group in classing.twins[key]]
        hood = set().union(*(group.keys for group in groups))
        if len(members) <= 2 * len(hood):
            continue
        if not cover.isdisjoint(members):
            raise ValueError("class members must lie inside W")
        kept = twin_crown(groups, hood)
        left_hood = set().union(*(group.keys for group, n in zip(groups, kept) if n))
        if sum(kept) > len(left_hood):
            raise RuntimeError(f"class {key} keeps more members than neighbors after its crown")
        removed = sorted(chain.from_iterable(group.members[n:] for group, n in zip(groups, kept)))
        ranks = [x - bisect_left(gone, x) for x in (*key, *removed)]
        steps.append(CrownStep(tuple(ranks[:len(key)]), tuple(ranks[len(key):])))
        gone += removed
        gone.sort()
    return steps, gone


def _kernelize_iob_per_crown(inst):
    """The kernel loop that ran the rescanning local search, the classing
    and a new auxiliary graph after every single crown."""
    threshold = max(2, 2 * degeneracy(inst.graph).d)
    trace = ReductionTrace()
    current = inst
    for _ in range(inst.graph.n + 1):
        if not is_connected(current.graph):
            return NoOutcome("vertex unreachable from root"), trace
        found = _vc_or_solution_rescan(current)
        if isinstance(found, OutBranching):
            return YesOutcome(found), trace
        classes = small_degree_classes(current.graph, found, threshold).classes
        fired = _crown_round_reference(current, found, classes)
        if fired is None:
            return ReducedOutcome(current), trace
        current, step = fired
        trace.append(step)
    raise RuntimeError("kernelization failed to reach a fixpoint")


class TestLocalSearch:
    @staticmethod
    def corpus(rng, count):
        """The local-search inputs: random connected, degenerate and
        iob-twins graphs in turn."""
        for i in range(count):
            if i % 3 == 0:
                yield random_connected(rng, rng.randint(2, 40), rng.uniform(0.02, 0.2),
                                       bidi=rng.uniform(0, 0.4))
            elif i % 3 == 1:
                yield gen_degenerate(rng.randint(5, 120), rng.randint(1, 3),
                                     rng.randrange(1 << 30))
            else:
                yield gen_iob_twins(rng.randint(2, 12), rng.randint(1, 3),
                                    rng.randrange(1 << 30), twin_factor=rng.randint(1, 4))

    def test_forward_pass_matches_rescan_reference(self):
        rng = random.Random(4242)
        differences = covers = trees = 0
        for d in self.corpus(rng, 420):
            for k in (rng.randint(1, 4), d.n // 3 + 1, d.n):
                got = vc_or_solution(IobInstance(d, k))
                ref = _vc_or_solution_rescan(IobInstance(d, k))
                if isinstance(ref, OutBranching):
                    trees += 1
                    same = isinstance(got, OutBranching) and got.parent == ref.parent
                else:
                    covers += 1
                    same = got == ref
                differences += not same
        assert differences == 0
        assert covers >= 300 and trees >= 300

    def test_out_list_sweeps_match_sorted_arc_sweeps(self):
        # one k per graph is one above the BFS tree's internal count, so
        # many YES trees are swept ones, built from the child counts
        rng = random.Random(4343)
        covers = trees = swept = 0
        for d in self.corpus(rng, 300):
            perm = list(range(d.n))
            rng.shuffle(perm)
            for g in (d, RootedDigraph(d.n, perm[d.root],
                                       [(perm[u], perm[v]) for u, v in d.arcs()])):
                bfs_internal = bfs_out_branching(g).internal_count()
                for k in (rng.randint(1, 4), g.n // 3 + 1, bfs_internal + 1, g.n):
                    got = vc_or_solution(IobInstance(g, k))
                    ref = _vc_or_solution_sorted_arcs(IobInstance(g, k))
                    if isinstance(ref, OutBranching):
                        trees += 1
                        swept += k > bfs_internal
                        assert isinstance(got, OutBranching) and got.parent == ref.parent
                    else:
                        covers += 1
                        assert isinstance(got, set) and got == ref
        assert covers >= 300 and trees >= 300 and swept >= 50

    def test_lists_match_checked_tree_reference(self):
        # k at the BFS tree's internal count is a YES at the first exit,
        # one above it a swept YES or a cover
        rng = random.Random(4444)
        first = swept = covers = 0
        for d in self.corpus(rng, 300):
            perm = list(range(d.n))
            rng.shuffle(perm)
            for g in (d, RootedDigraph(d.n, perm[d.root],
                                       [(perm[u], perm[v]) for u, v in d.arcs()])):
                bfs_internal = bfs_out_branching(g).internal_count()
                for k in (rng.randint(1, 4), g.n // 3 + 1, bfs_internal, bfs_internal + 1, g.n):
                    got = vc_or_solution(IobInstance(g, k))
                    ref = _vc_or_solution_checked_tree(IobInstance(g, k))
                    if isinstance(ref, OutBranching):
                        assert isinstance(got, OutBranching)
                        assert (got.n, got.root) == (ref.n, ref.root)
                        assert got.parent == ref.parent and got.children == ref.children
                        first += k <= bfs_internal
                        swept += k > bfs_internal
                    else:
                        assert isinstance(got, set) and got == ref
                        covers += 1
        assert first >= 300 and swept >= 50 and covers >= 300

    def test_path_k3_solution(self):
        d = RootedDigraph(4, 0, [(0, 1), (1, 2), (2, 3)])
        res = vc_or_solution(IobInstance(d, 3))
        assert isinstance(res, OutBranching)
        assert [v for v in range(4) if res.children[v]] == [0, 1, 2]

    def test_path_k4_cover(self):
        d = RootedDigraph(4, 0, [(0, 1), (1, 2), (2, 3)])
        res = vc_or_solution(IobInstance(d, 4))
        assert isinstance(res, set)
        assert len(res) <= 7 and 0 in res
        for u, v in d.arcs():
            assert u in res or v in res

    def test_star_k2_cover_and_oracle(self):
        d = RootedDigraph(4, 0, [(0, 1), (0, 2), (0, 3)])
        res = vc_or_solution(IobInstance(d, 2))
        assert isinstance(res, set)
        assert 0 in res and len(res) <= 3
        assert max_internal(d) == 1

    def test_k0_always_yes(self):
        d = RootedDigraph(1, 0, [])
        res = vc_or_solution(IobInstance(d, 0))
        assert isinstance(res, OutBranching)

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            vc_or_solution(IobInstance(RootedDigraph(3, 0, [(0, 1)]), 1))

    def test_contract_randomized(self, rng):
        for _ in range(300):
            d = random_connected(rng, rng.randint(1, 9), 0.3, bidi=0.2)
            k = rng.randint(0, d.n)
            res = vc_or_solution(IobInstance(d, k))
            if isinstance(res, OutBranching):
                assert res.is_valid_for(d)
                assert res.internal_count() >= k
            else:
                assert d.root in res
                assert len(res) <= max(2 * k - 1, 1)
                assert all(u in res or v in res for u, v in d.arcs())

    def test_rehang_progress(self, rng):
        # whenever a cover comes back, the witnessed internal count is
        # genuinely below k (the tree could not be improved further)
        for _ in range(100):
            d = random_connected(rng, rng.randint(2, 8), 0.35)
            k = rng.randint(1, d.n)
            res = vc_or_solution(IobInstance(d, k))
            if isinstance(res, set):
                assert max_internal(d) <= 2 * (k - 1) + 1


class TestAuxGraph:
    def test_fig5_pattern(self):
        d = RootedDigraph(5, 0, [(0, 1), (0, 2), (1, 3), (1, 4), (3, 2)])
        b = build_aux_graph(d, {0, 1, 2})
        assert b.left_adj[("u", 1)] == {3, 4}
        assert b.left_adj[("p", 1, 2)] == {3}
        assert ("u", 2) not in b.left_adj

    def test_empty_w(self):
        d = RootedDigraph(3, 0, [(0, 1), (1, 2)])
        b = build_aux_graph(d, {0, 1, 2})
        assert not b.left_adj and not b.w_vertices

    def test_uncovered_arc_rejected(self):
        d = RootedDigraph(3, 0, [(0, 1), (1, 2)])
        with pytest.raises(ValueError):
            build_aux_graph(d, {0})
        # the error names the smallest uncovered arc
        d = RootedDigraph(7, 0, [(0, 5), (5, 6), (6, 2), (5, 4), (0, 1), (3, 1), (4, 3)])
        with pytest.raises(ValueError, match=r"arc \(3,1\) uncovered"):
            build_aux_graph(d, {0})

    def test_w_with_no_unit_edges(self):
        # w whose only adjacency is an out-arc into the cover has no unit
        # neighbor (units come from in-arcs only)
        d = RootedDigraph(3, 0, [(0, 1), (0, 2), (2, 1)])
        b = build_aux_graph(d, {0, 1})
        assert ("u", 1) not in b.left_adj
        assert b.w_adj[2] == {("u", 0), ("p", 0, 1)}

    def test_diagonal_pair(self):
        d = RootedDigraph(3, 0, [(0, 1), (1, 2), (2, 1)])
        b = build_aux_graph(d, {0, 1})
        assert b.left_adj[("p", 1, 1)] == {2}


class TestCrown:
    def star_graph(self, twins):
        arcs = [(0, 1)] + [(1, i) for i in range(2, 2 + twins)]
        return RootedDigraph(2 + twins, 0, arcs)

    def test_star_crown(self):
        d = self.star_graph(3)
        b = build_aux_graph(d, {0, 1})
        crown = crown_in_class(b, {2, 3, 4}, class_hood(b, {2, 3, 4}))
        assert crown.h == frozenset([("u", 1)])
        assert len(crown.c_m) == 1
        assert len(crown.c_u) == 2
        validate_crown(b, crown)

    def test_exact_double_is_rejected(self):
        d = self.star_graph(2)
        b = build_aux_graph(d, {0, 1})
        with pytest.raises(ValueError):
            crown_in_class(b, {2, 3}, class_hood(b, {2, 3}))

    def test_crown_validity_random(self, rng):
        built = 0
        for _ in range(300):
            g = gen_iob_twins(rng.randint(3, 6), rng.randint(1, 3),
                              rng.randrange(1 << 30), twin_factor=4)
            k = rng.randint(2, 5)
            found = vc_or_solution(IobInstance(g, k))
            if isinstance(found, OutBranching):
                continue
            b = build_aux_graph(g, found)
            classes = small_degree_classes(g, found, 6).classes
            for key in sorted(classes):
                members = set(classes[key])
                hood = set()
                for w in members:
                    hood.update(b.w_adj[w])
                if len(members) > 2 * len(hood):
                    crown = crown_in_class(b, members, hood)
                    validate_crown(b, crown)
                    assert crown.c_u
                    assert crown.c <= members
                    built += 1
                    break
            if built >= 30:
                break
        assert built >= 10

    def test_matching_matches_recursive_reference_random(self, rng):
        # dense random bipartite graphs force long augmenting paths and
        # backtracking, which the kernel's twin classes rarely need
        for _ in range(400):
            lefts = [("u", i) for i in range(rng.randint(1, 8))]
            ws = range(rng.randint(1, 14))
            p = rng.uniform(0.1, 0.6)
            left_adj = {key: {w for w in ws if rng.random() < p} for key in lefts}
            w_adj = {w: {key for key in lefts if w in left_adj[key]} for w in ws}
            b = AuxiliaryBipartite(frozenset(ws), left_adj, w_adj)
            members = {w for w in ws if rng.random() < 0.8}
            hood = set().union(*(w_adj[w] for w in members))
            got = class_matching(b, members, hood)
            ref = _class_matching_recursive(b, members, hood)
            assert [list(m.items()) for m in got] == [list(m.items()) for m in ref]
            # the same class as twin groups, members with equal neighborhoods,
            # in any order
            by_hood = {}
            for w in sorted(members):
                by_hood.setdefault(frozenset(w_adj[w]), []).append(w)
            groups = [TwinGroup(keys, tuple(ws)) for keys, ws in by_hood.items()]
            rng.shuffle(groups)
            twins = twin_matching(groups, hood)
            assert [(key, w) for key, (_, w) in twins.items()] == list(ref[0].items())
            assert all(w in groups[i].members for i, w in twins.values())

    def test_matching_matches_recursive_reference(self, rng, monkeypatch):
        # the matching of every crown the pass builds, worked on twin
        # groups, equals the recursive reference on the pass's whole
        # auxiliary graph, key by key and in the same order
        from sparse_outbranch import iob_kernel
        real_pass, real_matching = iob_kernel.crown_pass, iob_kernel.twin_matching
        aux = []
        calls = 0

        def recording_pass(d, classing):
            aux[:] = [build_aux_graph(d, classing.modulator)]
            return real_pass(d, classing)

        def both(groups, hood):
            nonlocal calls
            calls += 1
            got = real_matching(groups, hood)
            members = {w for group in groups for w in group.members}
            ref, _ = _class_matching_recursive(aux[0], members, hood)
            assert [(key, w) for key, (_, w) in got.items()] == list(ref.items())
            assert all(w in groups[i].members for i, w in got.values())
            return got

        monkeypatch.setattr(iob_kernel, "crown_pass", recording_pass)
        monkeypatch.setattr(iob_kernel, "twin_matching", both)
        for i in range(100):
            if i % 2:
                g = gen_degenerate(rng.randint(20, 120), rng.randint(1, 3),
                                   rng.randrange(1 << 30))
                k = rng.randint(2, 12)
            else:
                k = rng.choice((8, 16, 32))
                g = gen_iob_twins(k, 3, rng.randrange(1 << 30))
            kernelize_iob(IobInstance(g, k))
        assert calls > 300

    def test_apply_requires_nonempty_cu(self):
        d = self.star_graph(3)
        b = build_aux_graph(d, {0, 1})
        crown = crown_in_class(b, {2, 3, 4}, class_hood(b, {2, 3, 4}))
        empty = type(crown)(crown.c_m, frozenset(), crown.h, crown.matching)
        with pytest.raises(ValueError):
            apply_crown_rule(IobInstance(d, 2), empty, b)

    def test_twin_leaf_removal_equivalence(self):
        d = self.star_graph(2)
        # two twin leaves with one in-neighbor and no out-arcs, k fixed
        b = build_aux_graph(d, {0, 1})
        # class of size 2 does not fire; add one more twin so it does
        d3 = self.star_graph(3)
        b3 = build_aux_graph(d3, {0, 1})
        crown = crown_in_class(b3, {2, 3, 4}, class_hood(b3, {2, 3, 4}))
        inst = IobInstance(d3, 2)
        nxt = apply_crown_rule(inst, crown, b3)
        for k in (1, 2, 3):
            before = max_internal(d3) >= k
            after = max_internal(nxt.graph) >= k
            assert before == after


class TestKernelize:
    def test_yes_via_local_search(self):
        d = RootedDigraph(4, 0, [(0, 1), (1, 2), (2, 3)])
        out, trace = kernelize_iob(IobInstance(d, 3))
        assert isinstance(out, YesOutcome)
        assert out.certificate.internal_count() >= 3
        assert len(trace) == 0

    def test_no_when_unreachable(self):
        # the local search's BFS raises UnreachableError, a ValueError,
        # which the kernel loop turns into NO
        d = RootedDigraph(3, 0, [(0, 1)])
        out, _ = kernelize_iob(IobInstance(d, 1))
        assert out == NoOutcome("vertex unreachable from root")
        with pytest.raises(UnreachableError, match="not connected from the root"):
            vc_or_solution(IobInstance(d, 1))
        assert issubclass(UnreachableError, ValueError)

    def test_reduced_is_induced_subgraph(self, rng):
        for _ in range(25):
            g = gen_iob_twins(rng.randint(4, 8), rng.randint(2, 3),
                              rng.randrange(1 << 30))
            k = rng.randint(4, 8)
            inst = IobInstance(g, k)
            out, trace = kernelize_iob(inst)
            if not isinstance(out, ReducedOutcome):
                continue
            mapping = _vertex_map_per_step(g.n, trace)
            kept = [v for v in range(g.n) if mapping[v] is not None]
            red = out.instance.graph
            assert red.n == len(kept)
            back = {mapping[v]: v for v in kept}
            for u, v in red.arcs():
                assert g.has_arc(back[u], back[v])
            for u in kept:
                for w in g.out_adj[u]:
                    if mapping[w] is not None:
                        assert red.has_arc(mapping[u], mapping[w])
            assert out.instance.k == k

    def test_fixpoint_idempotent(self, rng):
        for _ in range(15):
            g = gen_iob_twins(6, 3, rng.randrange(1 << 30))
            out, _ = kernelize_iob(IobInstance(g, 6))
            if isinstance(out, ReducedOutcome):
                out2, trace2 = kernelize_iob(out.instance)
                assert isinstance(out2, ReducedOutcome)
                assert len(trace2) == 0
                assert out2.instance.graph == out.instance.graph

    def test_threshold_override(self):
        g = gen_iob_twins(6, 3, seed=11)
        out, _ = kernelize_iob(IobInstance(g, 6), threshold=4)
        assert isinstance(out, (ReducedOutcome, YesOutcome))

    @pytest.mark.parametrize("threshold", [1, 0, -1])
    def test_threshold_below_two_raises(self, threshold):
        # every W vertex has a cover neighbor, so no class would be small
        g = gen_iob_twins(8, 3, seed=3)
        with pytest.raises(ValueError, match=f"threshold must be at least 2, got {threshold}"):
            kernelize_iob(IobInstance(g, 8), threshold=threshold)

    def test_trace_lines(self, rng):
        g = gen_iob_twins(6, 2, seed=5)
        out, trace = kernelize_iob(IobInstance(g, 6))
        for line in trace.serialize().splitlines():
            assert line.startswith("CROWN class=") and "removed=" in line

    def test_report_fields(self):
        g = gen_iob_twins(6, 3, seed=11)
        out, _ = kernelize_iob(IobInstance(g, 6))
        assert isinstance(out, ReducedOutcome)
        rep = iob_report(out.instance, out.classing)
        assert rep["resolved"] == "reduced"
        assert rep["cover_size"] <= 11
        assert set(rep) >= {"n", "m", "k", "threshold", "cover_size",
                            "w_small", "w_big", "class_count",
                            "class_size_histogram"}

    def test_reduced_outcome_carries_the_last_cover(self, rng):
        # the cover the last crown pass used is the one a fresh local
        # search finds on the kernel, and its classing is the one a fresh
        # classing at the input's threshold finds, so reports need not
        # search or classify again
        for _ in range(20):
            g = gen_iob_twins(rng.randint(4, 10), rng.randint(2, 3),
                              rng.randrange(1 << 30))
            out, _ = kernelize_iob(IobInstance(g, rng.randint(4, 10)))
            if isinstance(out, ReducedOutcome):
                cover = vc_or_solution(out.instance)
                threshold = max(2, 2 * degeneracy(g).d)
                assert out.classing == classify_by_modulator(out.instance.graph, cover,
                                                             threshold)

    def test_planar_class_count_bound(self, rng):
        # distinct small neighborhoods among W are at most (4^p + 2p)|U|
        # on planar inputs at p = 3
        from sparse_outbranch.generators import gen_planar
        checked = 0
        for _ in range(20):
            g = gen_planar(rng.randint(30, 80), rng.randrange(1 << 30),
                           both_prob=0.2, keep_prob=0.6)
            found = vc_or_solution(IobInstance(g, 3))
            if isinstance(found, OutBranching):
                continue
            classes = small_degree_classes(g, found, 6).classes
            assert len(classes) <= (4 ** 3 + 6) * len(found)
            checked += 1
        # planar instances this small usually resolve YES at k=3; force a
        # few cover-producing ones via a larger k
        for _ in range(20):
            g = gen_planar(rng.randint(30, 80), rng.randrange(1 << 30),
                           both_prob=0.2, keep_prob=0.6)
            found = vc_or_solution(IobInstance(g, g.n))
            if isinstance(found, OutBranching):
                continue
            classes = small_degree_classes(g, found, 6).classes
            assert len(classes) <= (4 ** 3 + 6) * len(found)
            checked += 1
        assert checked >= 10

    def test_heavy_side_degree_sum_accounting(self, rng):
        # at the fixpoint, W-vertices of degree above twice the degeneracy
        # have degrees summing to at most that threshold times |U|
        checked = 0
        for _ in range(30):
            g = gen_iob_twins(rng.randint(6, 10), rng.randint(2, 3),
                              rng.randrange(1 << 30))
            k = rng.randint(6, 10)
            out, _ = kernelize_iob(IobInstance(g, k))
            if not isinstance(out, ReducedOutcome):
                continue
            red = out.instance
            cover = vc_or_solution(red)
            if not isinstance(cover, set):
                continue
            tau = max(2, 2 * degeneracy(red.graph).d)
            degree = [len(nbrs) for nbrs in underlying_adjacency(red.graph)]
            heavy_sum = sum(degree[w] for w in range(red.graph.n)
                            if w not in cover and degree[w] > tau)
            assert heavy_sum <= tau * len(cover)
            checked += 1
        assert checked >= 10


class TestCrownPass:
    """One crown pass per local search gives the trace, the mappings and
    the kernel of one local search per crown."""

    @staticmethod
    def outcome_view(out, trace, n):
        view = [out.status, trace.serialize(), _step_mappings(n, trace)]
        if isinstance(out, ReducedOutcome):
            g = out.instance.graph
            view.append((g.n, g.root, g.arcs(), out.instance.k))
        elif isinstance(out, YesOutcome):
            view.append(sorted(out.certificate.parent.items()))
        return view

    def test_matches_per_crown_reference(self, monkeypatch):
        from sparse_outbranch import iob_kernel
        real = iob_kernel.crown_pass
        pass_sizes = []

        def recording(*args):
            steps, dead = real(*args)
            pass_sizes.append(len(steps))
            return steps, dead

        monkeypatch.setattr(iob_kernel, "crown_pass", recording)
        rng = random.Random(6060)
        statuses = {}
        for i in range(130):
            if i % 2:
                k = rng.choice((4, 8, 16, 32))
                g = gen_iob_twins(k, rng.randint(1, 3), rng.randrange(1 << 30),
                                  twin_factor=3)
            else:
                g = gen_degenerate(rng.randint(30, 300), rng.randint(1, 3),
                                   rng.randrange(1 << 30))
                k = rng.randint(2, 40)
            inst = IobInstance(g, k)
            got = self.outcome_view(*kernelize_iob(inst), g.n)
            assert got == self.outcome_view(*_kernelize_iob_per_crown(inst), g.n), i
            statuses[got[0]] = statuses.get(got[0], 0) + 1
        # later crowns of a pass must relabel their key, removed ids and
        # mapping by rank among the survivors of the earlier ones
        assert sum(size >= 2 for size in pass_sizes) >= 40
        assert statuses.get("reduced", 0) >= 40 and statuses.get("yes", 0) >= 20

    def test_matches_per_crown_reference_relabelled(self):
        # the generators put the cover below the twins; shuffled ids put
        # removed twins below later keys, whose ranks must then shift
        rng = random.Random(6161)
        shifted = 0
        for i in range(40):
            k = rng.choice((8, 16, 32))
            g = gen_iob_twins(k, rng.randint(1, 3), rng.randrange(1 << 30),
                              twin_factor=3)
            perm = list(range(g.n))
            rng.shuffle(perm)
            g = RootedDigraph(g.n, perm[g.root], [(perm[u], perm[v]) for u, v in g.arcs()])
            inst = IobInstance(g, k)
            out, trace = kernelize_iob(inst)
            assert self.outcome_view(out, trace, g.n) == self.outcome_view(
                *_kernelize_iob_per_crown(inst), g.n), i
            shifted += any(max(step.class_key) > min(step.removed) for step in trace)
        assert shifted >= 20

    # (in-list, out-list, twins) below the cover {0, 1, 2}: one class of
    # 17 members whose neighbors are 1 and 2, in five twin groups
    FIVE_GROUPS = [((2,), (1,), 9), ((1, 2), (2,), 1), ((1,), (1, 2), 2),
                   ((1, 2), (1,), 2), ((1, 2), (), 3)]

    @classmethod
    def five_group_graphs(cls):
        """(graph, id map) of the five-group class: original ids, then five
        shuffled labelings."""
        arcs = [(0, 1), (0, 2)]
        n = 3
        for ins, outs, twins in cls.FIVE_GROUPS:
            for w in range(n, n + twins):
                arcs += [(x, w) for x in ins] + [(w, y) for y in outs]
            n += twins
        rng = random.Random(7)
        for shuffled in range(6):
            perm = list(range(n))
            if shuffled:
                rng.shuffle(perm)
            yield RootedDigraph(n, perm[0], [(perm[u], perm[v]) for u, v in arcs]), perm

    def test_five_group_class_matches_member_reference(self):
        for shuffled, (d, perm) in enumerate(self.five_group_graphs()):
            cover = {perm[0], perm[1], perm[2]}
            classing = _assert_classing_matches_references(d, cover, 3)
            (key, members), = classing.classes.items()
            groups = [TwinGroup.of(d, group) for group in classing.twins[key]]
            assert len(groups) == 5
            b = build_aux_graph(d, cover)
            hood = class_hood(b, set(members))
            match_left, _ = class_matching(b, set(members), hood)
            assert {k: w for k, (_, w) in twin_matching(groups, hood).items()} == match_left
            if not shuffled:
                # first free partners alone saturate fewer keys, so the
                # maximum matching needs an augmenting path
                taken = set()
                for k in sorted(hood):
                    taken |= set(sorted(b.left_adj[k] - taken)[:1])
                assert len(taken) < len(match_left) == len(hood)
            removed = sorted(crown_in_class(b, set(members), hood).c_u)
            assert crown_pass(d, classing) == ([CrownStep(key, tuple(removed))], removed)

    def test_five_group_class_through_kernelize_iob(self):
        # the local search exposes the cover {0, 1, 2}, so the class above
        # fires inside the kernel loop; a matching of first free partners
        # leaves a key unmatched there, and the crown's closure reaches it
        for d, _ in self.five_group_graphs():
            inst = IobInstance(d, 4)
            out, trace = kernelize_iob(inst)
            assert isinstance(out, ReducedOutcome) and len(trace) == 1
            assert len(trace.steps[0].removed) == 11
            assert self.outcome_view(out, trace, d.n) == self.outcome_view(
                *_kernelize_iob_per_crown(inst), d.n)

    def test_cli_vertex_map_matches_per_step_composition(self, tmp_path):
        # the CLI inverts the kernel's origin, which composes each round's
        # removal map; composing the steps' full mappings gives the same
        rng = random.Random(1111)
        composed = 0
        for i in range(20):
            k = rng.choice((8, 16, 32))
            g = gen_iob_twins(k, rng.randint(1, 3), rng.randrange(1 << 30),
                              twin_factor=3)
            src, rep = tmp_path / f"{i}.iob", tmp_path / f"{i}.json"
            save_instance(str(src), "iob", g, k)
            code = main(["kernelize-iob", str(src), "--json", str(rep),
                         "--out", str(tmp_path / f"{i}.kernel")])
            out, trace = kernelize_iob(IobInstance(g, k))
            if not isinstance(out, ReducedOutcome):
                assert code != 0
                continue
            mapping = _vertex_map_per_step(g.n, trace)
            assert json.loads(rep.read_text())["vertex_map"] == {
                str(v): m for v, m in enumerate(mapping)}
            composed += len(trace) >= 2
        assert composed >= 10

    def test_origin_matches_trace_replay(self, rng, monkeypatch):
        # the kernel composes each round's removal map into origin; the
        # per-step replay of the trace gives the same input ids. A pass
        # here seldom leaves the next one anything to fire, so half the
        # runs fire only the first crown of each pass, one round a crown.
        from sparse_outbranch import iob_kernel
        real_pass, real_search = iob_kernel.crown_pass, iob_kernel.vc_or_solution
        first_only = False
        searches = 0

        def crown_pass(d, classing):
            steps, gone = real_pass(d, classing)
            if first_only and steps:  # the first step's ranks are ids of d
                return steps[:1], list(steps[0].removed)
            return steps, gone

        def counting(inst):
            nonlocal searches
            searches += 1
            return real_search(inst)

        monkeypatch.setattr(iob_kernel, "crown_pass", crown_pass)
        monkeypatch.setattr(iob_kernel, "vc_or_solution", counting)
        composed = 0
        for i in range(40):
            first_only = i % 2
            k = rng.choice((4, 8, 16, 32))
            g = gen_iob_twins(k, rng.randint(1, 3), rng.randrange(1 << 30),
                              twin_factor=rng.randint(2, 4))
            searches = 0
            out, trace = kernelize_iob(IobInstance(g, k))
            if not isinstance(out, ReducedOutcome):
                continue
            assert out.origin == _origin_by_trace_replay(g.n, trace)
            assert len(out.origin) == out.instance.graph.n
            mapping = _vertex_map_per_step(g.n, trace)
            assert [mapping[x] for x in out.origin] == list(range(len(out.origin)))
            composed += searches >= 3  # at least two rounds removed vertices
        assert composed >= 10

    def test_few_local_searches(self, monkeypatch):
        # one local search per crown made about thirty here; a pass fires
        # every oversized class, and the next search finds nothing to fire
        from sparse_outbranch import iob_kernel
        real = iob_kernel.vc_or_solution
        calls = 0

        def counting(inst):
            nonlocal calls
            calls += 1
            return real(inst)

        monkeypatch.setattr(iob_kernel, "vc_or_solution", counting)
        g = gen_iob_twins(64, 3, seed=1)
        out, trace = kernelize_iob(IobInstance(g, 64))
        assert isinstance(out, ReducedOutcome)
        assert len(trace) >= 20
        assert calls <= 4

    def test_one_search_per_round(self, monkeypatch):
        # the local search's BFS tree is also the round's reachability
        # test; a separate is_connected searched the graph twice a round
        from sparse_outbranch import digraph, iob_kernel
        rounds = searches = 0

        def counted(fn):
            def wrapper(*args, **kwargs):
                nonlocal searches
                searches += 1
                return fn(*args, **kwargs)
            return wrapper

        def counting_round(inst):
            nonlocal rounds
            rounds += 1
            return real(inst)

        for module in (digraph, iob_kernel):
            for name in ("reachable", "bfs_out_branching", "bfs_parents"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(getattr(module, name)))
        real = iob_kernel.vc_or_solution
        monkeypatch.setattr(iob_kernel, "vc_or_solution", counting_round)
        out, trace = kernelize_iob(IobInstance(gen_iob_twins(64, 3, seed=1), 64))
        assert isinstance(out, ReducedOutcome) and len(trace) >= 20
        assert rounds >= 2 and searches == rounds


class TestNoRecheckedWork:
    """kernelize-iob builds no tree for a round that is not a YES, and no
    key set for a class that cannot fire."""

    def test_crown_pass_matches_every_class_reference(self, monkeypatch):
        from sparse_outbranch import iob_kernel
        real = iob_kernel.crown_pass
        passes = fired = skipped = classes = 0

        def both(d, classing):
            nonlocal passes, fired, skipped, classes
            got = real(d, classing)
            assert got == _crown_pass_every_class(d, classing)
            passes += 1
            fired += len(got[0])
            classes += len(classing.classes)
            skipped += sum(len(members) <= 2 * max(
                len(d.in_adj[group[0]]) * (1 + len(d.out_adj[group[0]]))
                for group in classing.twins[key])
                for key, members in classing.classes.items())
            return got

        monkeypatch.setattr(iob_kernel, "crown_pass", both)
        rng = random.Random(6262)
        for i in range(60):
            if i % 3:
                k = rng.choice((4, 8, 16, 32))
                g = gen_iob_twins(k, rng.randint(1, 3), rng.randrange(1 << 30),
                                  twin_factor=rng.randint(1, 4))
            else:
                g = gen_degenerate(rng.randint(30, 300), rng.randint(1, 3),
                                   rng.randrange(1 << 30))
                k = rng.randint(2, 40)
            perm = list(range(g.n))
            rng.shuffle(perm)
            g = RootedDigraph(g.n, perm[g.root], [(perm[u], perm[v]) for u, v in g.arcs()])
            kernelize_iob(IobInstance(g, k))
        # classes passed over, fired, and built but left by the full size test
        assert passes >= 80 and skipped >= 350 and fired >= 150
        assert classes - skipped - fired >= 40

    def test_work_guards(self, monkeypatch):
        # a checked tree per round made 2 constructions here, and
        # building the groups of every class 160 calls
        counts = {"trees": 0, "groups": 0}
        real_init, real_of = OutBranching.__init__, TwinGroup.of.__func__

        def counting_init(self, *args):
            counts["trees"] += 1
            real_init(self, *args)

        def counting_of(cls, *args):
            counts["groups"] += 1
            return real_of(cls, *args)

        monkeypatch.setattr(OutBranching, "__init__", counting_init)
        monkeypatch.setattr(TwinGroup, "of", classmethod(counting_of))
        out, trace = kernelize_iob(IobInstance(gen_iob_twins(64, 3, seed=1), 64))
        assert isinstance(out, ReducedOutcome) and len(trace) >= 20
        assert counts["trees"] == 0
        assert counts["groups"] <= 82

    @pytest.mark.parametrize("size, fires", [(8, False), (9, True)])
    def test_class_bound_is_tight(self, monkeypatch, size, fires):
        # one twin group below the cover {0, 1, 2}, each twin with in-list
        # (1, 2) and out-list (2,): 2 * (1 + 1) = 4 keys, so the class
        # fires from 2 * 4 + 1 members on; one that cannot fire builds no
        # group
        arcs = [(0, 1), (0, 2)]
        for w in range(3, 3 + size):
            arcs += [(1, w), (2, w), (w, 2)]
        d = RootedDigraph(3 + size, 0, arcs)
        classing = classify_by_modulator(d, {0, 1, 2}, 3)
        assert classing.twins == {(1, 2): [tuple(range(3, 3 + size))]}
        real_of = TwinGroup.of.__func__
        built = []

        def counting_of(cls, g, members):
            group = real_of(cls, g, members)
            built.append(len(group.keys))
            return group

        monkeypatch.setattr(TwinGroup, "of", classmethod(counting_of))
        steps, gone = crown_pass(d, classing)
        if fires:
            assert built == [4]
            assert steps == [CrownStep((1, 2), tuple(range(7, 3 + size)))]
            assert gone == list(range(7, 3 + size))
        else:
            assert built == [] and steps == [] and gone == []


class TestOneBucketing:
    """One scan buckets W by (in-list, out-list); the classes, their
    order and their twin split are those of the per-member classing and
    the per-class twin split."""

    def test_matches_references_on_shuffled_inputs(self, rng):
        split = 0
        for i in range(60):
            if i % 2:
                k = rng.choice((4, 8, 16))
                g = gen_iob_twins(k, rng.randint(1, 3), rng.randrange(1 << 30),
                                  twin_factor=3)
            else:
                g = gen_degenerate(rng.randint(20, 150), rng.randint(1, 3),
                                   rng.randrange(1 << 30))
                k = rng.randint(2, 20)
            perm = list(range(g.n))
            rng.shuffle(perm)
            g = RootedDigraph(g.n, perm[g.root], [(perm[u], perm[v]) for u, v in g.arcs()])
            found = vc_or_solution(IobInstance(g, k))
            modulators = [set(rng.sample(range(g.n), rng.randint(1, g.n // 3)))]
            if isinstance(found, set):
                modulators.append(found)
            for x in modulators:
                got = _assert_classing_matches_references(g, x, rng.randint(1, 7))
                split += any(len(groups) > 1 for groups in got.twins.values())
        assert split >= 20

    def test_matches_references_on_verify_counting_modulators(self, monkeypatch):
        from sparse_outbranch import verify
        calls = 0

        def both(d, modulator, threshold):
            nonlocal calls
            calls += 1
            return _assert_classing_matches_references(d, modulator, threshold)

        monkeypatch.setattr(verify, "classify_by_modulator", both)
        for seed in (0, 1):
            assert verify.verify_counting(graphs=10, seed=seed).passed
        assert calls == 60

    def test_degenerate_inputs(self):
        # a lone root, every vertex in the modulator, an empty modulator
        # (every trace empty, so one class split by lists), and threshold
        # 1, which sends every vertex with a modulator neighbor to heavy
        one = RootedDigraph(1, 0, [])
        path = RootedDigraph(4, 0, [(0, 1), (1, 2), (2, 3)])
        for d, x in ((one, {0}), (one, set()), (path, range(4)), (path, set()),
                     (path, {1})):
            for threshold in (1, 2):
                _assert_classing_matches_references(d, x, threshold)


class TestKernelEquivalence:
    def test_yes_no_preserved_small(self, rng):
        checked = 0
        for _ in range(400):
            if checked >= 120:
                break
            g = gen_iob_twins(rng.randint(2, 4), rng.randint(1, 3),
                              rng.randrange(1 << 30), twin_factor=2)
            if g.n > 9 or not is_connected(g):
                continue
            k = rng.randint(1, 6)
            inst = IobInstance(g, k)
            out, _ = kernelize_iob(inst)
            truth = max_internal(g) >= k
            if isinstance(out, YesOutcome):
                assert truth
            elif isinstance(out, ReducedOutcome):
                after = max_internal(out.instance.graph) >= k
                assert truth == after
            checked += 1
        assert checked >= 100


class TestContractChecks:
    """The kernel's contract checks raise, so they survive ``python -O``."""

    # four twins below one cover vertex: a class of four with one neighbor
    STAR = RootedDigraph(6, 0, [(0, 1)] + [(1, i) for i in range(2, 6)])

    def test_oversized_cover_raises(self, monkeypatch):
        from sparse_outbranch import iob_kernel
        monkeypatch.setattr(iob_kernel, "vc_or_solution", lambda inst: {0, 1, 2, 3})
        d = RootedDigraph(5, 0, [(0, 1), (1, 2), (2, 3), (3, 4)])
        with pytest.raises(RuntimeError, match="exceeds 2k-1"):
            kernelize_iob(IobInstance(d, 2))

    def test_class_left_oversized_raises(self, monkeypatch):
        # a crown that removes only one free twin leaves the class larger
        # than its neighborhood, which a maximum matching never does
        from sparse_outbranch import iob_kernel
        real = iob_kernel.twin_crown

        def one_removed(groups, hood):
            kept = real(groups, hood)
            return [len(group.members) - (n < len(group.members))
                    for group, n in zip(groups, kept)]

        monkeypatch.setattr(iob_kernel, "twin_crown", one_removed)
        with pytest.raises(RuntimeError, match="more members than neighbors"):
            kernelize_iob(IobInstance(self.STAR, 3))

    def test_uncovered_arc_raises(self, monkeypatch):
        # {0, 1} leaves the arcs (2,3) and (3,4) of the path uncovered
        from sparse_outbranch import iob_kernel
        monkeypatch.setattr(iob_kernel, "vc_or_solution", lambda inst: {0, 1})
        d = RootedDigraph(5, 0, [(0, 1), (1, 2), (2, 3), (3, 4)])
        with pytest.raises(ValueError, match=r"not a vertex cover: arc \(2,3\) uncovered"):
            kernelize_iob(IobInstance(d, 3))
        # 3 sees the cover vertices 1 and 2, so threshold 2 files it on
        # the heavy side, whose arcs the check reads too
        monkeypatch.setattr(iob_kernel, "vc_or_solution", lambda inst: {0, 1, 2})
        d = RootedDigraph(5, 0, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)])
        with pytest.raises(ValueError, match=r"not a vertex cover: arc \(3,4\) uncovered"):
            kernelize_iob(IobInstance(d, 2), threshold=2)

    def test_unmatched_neighbor_raises(self, monkeypatch):
        # with no matching at all, the closure from the free twins meets
        # their unmatched neighbor ("u", 1)
        from sparse_outbranch import iob_kernel
        monkeypatch.setattr(iob_kernel, "twin_matching", lambda groups, hood: {})
        with pytest.raises(RuntimeError, match="unmatched neighbor reached"):
            kernelize_iob(IobInstance(self.STAR, 3))

    def test_twin_crown_checks_raise(self):
        group = TwinGroup(frozenset([("u", 1), ("p", 1, 1)]), (2, 3, 4, 5, 6))
        edge = {("u", 1): (0, 2), ("p", 1, 1): (0, 3)}
        validate_twin_crown([group], {0}, set(group.keys), edge, [2])
        with pytest.raises(ValueError, match="escapes H"):
            validate_twin_crown([group], {0}, {("u", 1)}, {("u", 1): (0, 2)}, [2])
        with pytest.raises(ValueError, match="saturate H"):
            validate_twin_crown([group], {0}, set(group.keys), {("u", 1): (0, 2)}, [2])
        with pytest.raises(ValueError, match="pair H perfectly"):
            validate_twin_crown([group], {0}, set(group.keys),
                                {("u", 1): (0, 2), ("p", 1, 1): (0, 2)}, [2])
        with pytest.raises(ValueError, match="not in the graph"):
            validate_twin_crown([group], {0}, {*group.keys, ("p", 1, 2)},
                                {**edge, ("p", 1, 2): (0, 4)}, [3])

    def test_empty_cu_raises(self):
        # a matching that saturates the class leaves no member free
        with pytest.raises(RuntimeError, match="empty C_u"):
            twin_crown([TwinGroup(frozenset([("u", 1)]), (2,))], {("u", 1)})

    def test_retained_class_bound_raises(self, monkeypatch):
        # five W-vertices share the three cover units 1, 2, 3, so no crown
        # fires (5 <= 2 * 3); filed under a one-vertex class key their
        # count breaks the retained bound 2 * (1 + 1)
        from sparse_outbranch import iob_kernel
        arcs = [(0, 1), (0, 2), (0, 3)] + [(c, w) for c in (1, 2, 3) for w in range(4, 9)]
        d = RootedDigraph(9, 0, arcs)
        monkeypatch.setattr(iob_kernel, "vc_or_solution", lambda inst: {0, 1, 2, 3})
        monkeypatch.setattr(iob_kernel, "small_degree_classes",
                            lambda g, cover, threshold: NeighborhoodClassing(
                                frozenset(cover), threshold, {(1,): [4, 5, 6, 7, 8]}, [],
                                {(1,): [(4, 5, 6, 7, 8)]}))
        with pytest.raises(RuntimeError, match="structural bound"):
            kernelize_iob(IobInstance(d, 6))
