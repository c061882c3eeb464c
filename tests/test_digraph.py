import random
import re
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparse_outbranch.digraph import (
    Dominators,
    LabelledDigraph,
    OutBranching,
    RootedDigraph,
    UnreachableError,
    bfs_out_branching,
    bfs_parents,
    contract_arc,
    cut_structure,
    dominators,
    is_connected,
    reachable,
    remove_vertices,
    split_lonely_branching,
)
from sparse_outbranch.oracle import solve_branch_and_bound, SolveMode

from sparse_outbranch.generators import gen_bipath_chain, gen_planar, generate

from conftest import bfs_out_branching_checked, euler_bound_holds, random_connected, small_digraphs


def path3():
    return RootedDigraph(3, 0, [(0, 1), (1, 2)])


def _reachable_scan(d, start, removed_vertices=(), removed_arcs=()):
    """The breadth-first search that read its result off a scan of all n
    labels, kept as the reference for ``reachable``."""
    dead_v, dead_a = set(removed_vertices), set(removed_arcs)
    seen = [False] * d.n
    seen[start] = True
    for v in dead_v:
        seen[v] = True
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for w in d.out_adj[u]:
            if not seen[w] and (u, w) not in dead_a:
                seen[w] = True
                queue.append(w)
    return {v for v in range(d.n) if seen[v] and v not in dead_v}


def _reach_avoiding(d, avoid):
    """Reachability table from the root with one vertex deleted."""
    seen = [False] * d.n
    seen[avoid] = True
    if avoid == d.root:
        raise ValueError("cannot remove the root")
    seen[d.root] = True
    queue = deque([d.root])
    out_adj = d.out_adj
    while queue:
        u = queue.popleft()
        for w in out_adj[u]:
            if not seen[w]:
                seen[w] = True
                queue.append(w)
    seen[avoid] = False
    return seen


def _cut_structure_bfs(d):
    """Reference cut structure: one reachability run per deleted vertex.

    An arc (u,v) disconnects something exactly when v itself loses all
    alternative access, i.e. no other in-neighbor of v stays reachable once
    v is deleted.
    """
    if not is_connected(d):
        raise ValueError("cut structure requires a connected digraph")
    cut_v = set()
    cut_e = set()
    for v in range(d.n):
        if v == d.root:
            continue
        seen = _reach_avoiding(d, v)
        if not all(seen[w] for w in range(d.n) if w != v):
            cut_v.add(v)
        alive = [w for w in d.in_adj[v] if seen[w]]
        if len(alive) == 1:
            cut_e.add((alive[0], v))
    return cut_v, cut_e


def _relabelled(rng, d):
    perm = list(range(d.n))
    rng.shuffle(perm)
    return RootedDigraph(d.n, perm[d.root], [(perm[u], perm[v]) for u, v in d.arcs()])


class TestReachable:
    def test_full_path(self):
        assert reachable(path3(), 0) == {0, 1, 2}

    def test_removed_vertex_cuts(self):
        assert reachable(path3(), 0, removed_vertices={1}) == {0}

    def test_removed_arc_detour(self):
        d = RootedDigraph(3, 0, [(0, 1), (0, 2), (1, 2)])
        assert reachable(d.with_arcs_removed({(0, 2)}), 0) == {0, 1, 2}

    def test_invalid_vertex(self):
        with pytest.raises(ValueError):
            reachable(path3(), 7)

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_removed_id_out_of_range(self, bad):
        # -1 must not index vertex 3 from the end, nor 4 raise IndexError
        path4 = RootedDigraph(4, 0, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(ValueError, match=f"^vertex {bad} out of range$"):
            reachable(path4, 0, [bad])

    @settings(max_examples=60, deadline=None)
    @given(small_digraphs(), st.sets(st.integers(1, 5)), st.sets(st.integers(1, 5)))
    def test_monotone_in_removals(self, d, more_v, more_a):
        base = reachable(d, 0)
        rm_v = {v for v in more_v if v < d.n}
        rm_a = {(u, v) for u in more_a for v in more_a if u != v and u < d.n and v < d.n}
        shrunk = reachable(d.with_arcs_removed(rm_a), 0, removed_vertices=rm_v)
        assert shrunk <= base

    def test_matches_label_scan(self, rng):
        for _ in range(300):
            d = random_connected(rng, rng.randint(2, 30), rng.uniform(0.05, 0.3))
            start = rng.randrange(d.n)
            rm_v = set(rng.sample(range(d.n), rng.randint(0, d.n // 3))) - {start}
            arcs = d.arcs()
            rm_a = set(rng.sample(arcs, rng.randint(0, len(arcs) // 3)))
            for dead_v, dead_a in (((), ()), (rm_v, ()), (rm_v, rm_a), ((), rm_a)):
                assert (reachable(d.with_arcs_removed(dead_a), start, dead_v)
                        == _reachable_scan(d, start, dead_v, dead_a))


class TestConnectivity:
    def test_path_connected(self):
        assert is_connected(path3())

    def test_isolated_vertex(self):
        assert not is_connected(RootedDigraph(3, 0, [(0, 1)]))

    def test_single_vertex(self):
        assert is_connected(RootedDigraph(1, 0, []))


class TestCutStructure:
    def test_path_cut_vertex(self):
        assert cut_structure(path3())[0] == {1}

    def test_two_routes(self):
        d = RootedDigraph(3, 0, [(0, 1), (0, 2), (1, 2)])
        assert cut_structure(d) == (set(), {(0, 1)})

    def test_star_no_cuts(self):
        d = RootedDigraph(4, 0, [(0, 1), (0, 2), (0, 3)])
        assert cut_structure(d)[0] == set()

    def test_path_cut_edges_lonely(self):
        ce = cut_structure(path3())[1]
        assert ce == {(0, 1), (1, 2)}
        lonely, branching = split_lonely_branching(ce)
        assert lonely == ce and not branching

    def test_branching_split(self):
        d = RootedDigraph(4, 0, [(0, 1), (1, 2), (1, 3)])
        lonely, branching = split_lonely_branching(cut_structure(d)[1])
        assert lonely == {(0, 1)}
        assert branching == {(1, 2), (1, 3)}

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            cut_structure(RootedDigraph(3, 0, [(0, 1)]))

    @settings(max_examples=80, deadline=None)
    @given(small_digraphs())
    def test_cut_edge_definitional_roundtrip(self, d):
        _, ce = cut_structure(d)
        for arc in d.arcs():
            unreached = len(reachable(d.with_arcs_removed({arc}), 0)) != d.n
            assert (arc in ce) == unreached

    @settings(max_examples=80, deadline=None)
    @given(small_digraphs())
    def test_cut_vertex_definitional_roundtrip(self, d):
        cv, _ = cut_structure(d)
        for v in range(1, d.n):
            rest = reachable(d, 0, removed_vertices={v})
            assert (v in cv) == (len(rest) != d.n - 1)

    def test_head_indegree_one_witness(self, rng):
        # every path from the root to the head of an in-degree-1 cut-edge
        # uses that arc: deleting it must kill reachability of the head
        for _ in range(80):
            d = random_connected(rng, rng.randint(2, 8), 0.25)
            for u, v in cut_structure(d)[1]:
                if len(d.in_adj[v]) == 1:
                    assert v not in reachable(d.with_arcs_removed({(u, v)}), 0)

    def test_cut_structure_matches_naive_on_larger_graphs(self, rng):
        # the one-sweep computation against per-vertex and per-arc removal
        for _ in range(25):
            d = random_connected(rng, rng.randint(2, 40), 0.1, bidi=0.2)
            cv, ce = cut_structure(d)
            naive_cv = {v for v in range(1, d.n)
                        if len(reachable(d, 0, removed_vertices={v})) != d.n - 1}
            naive_ce = {a for a in d.arcs()
                        if len(reachable(d.with_arcs_removed({a}), 0)) != d.n}
            assert cv == naive_cv
            assert ce == naive_ce


class TestDominators:
    """The dominator-tree cut structure against the per-vertex BFS reference."""

    def test_matches_bfs_on_random_relabelled(self):
        rng = random.Random(5150)
        for _ in range(600):
            d = random_connected(rng, rng.randint(1, 30),
                                 rng.choice([0.02, 0.05, 0.1, 0.3]),
                                 bidi=rng.random() * 0.6)
            d = _relabelled(rng, d)
            assert cut_structure(d) == _cut_structure_bfs(d), d.arcs()

    def test_matches_bfs_on_bipath_chain(self):
        for length in (2, 3, 12, 160):
            d = gen_bipath_chain(length)
            assert cut_structure(d) == _cut_structure_bfs(d)

    def test_matches_bfs_on_planar(self):
        d = gen_planar(200, seed=7, both_prob=0.1, keep_prob=0.25)
        assert cut_structure(d) == _cut_structure_bfs(d)

    def test_long_path_needs_no_recursion(self):
        n = 5000
        d = RootedDigraph(n, 0, [(i, i + 1) for i in range(n - 1)])
        cv, ce = cut_structure(d)
        assert cv == set(range(1, n - 1))
        assert ce == {(i, i + 1) for i in range(n - 1)}
        assert dominators(d).dominates(1, n - 1)

    def test_dominates_matches_vertex_removal(self):
        # includes graphs the root does not fully reach: an unreached
        # vertex is dominated by every vertex, and dominates only itself
        # and other unreached vertices
        rng = random.Random(77)
        for _ in range(300):
            n = rng.randint(1, 10)
            arcs = {(rng.randrange(n), rng.randrange(n)) for _ in range(2 * n)}
            d = _relabelled(rng, RootedDigraph(
                n, 0, {(u, v) for u, v in arcs if u != v and v != 0}))
            dom = dominators(d)
            reached = reachable(d, d.root)
            for a in range(n):
                seen = None if a == d.root else _reach_avoiding(d, a)
                for b in range(n):
                    expected = a == b or seen is None or not seen[b]
                    assert dom.dominates(a, b) == expected, (d.arcs(), a, b)
                assert dom.reaches(a) == (a in reached)

    def test_computed_once_per_graph(self):
        d = path3()
        assert dominators(d) is dominators(d)
        g, _ = contract_arc(d, (0, 1))
        assert dominators(g) is not dominators(d)


    @settings(max_examples=120, deadline=None)
    @given(small_digraphs(max_n=9))
    def test_lazy_cut_edges_match_bfs(self, d):
        # cut-edges are derived when asked, from the in-lists of the graph
        # the tree was computed on
        dom = Dominators(d.n, d.root, d.out_adj, d.in_adj)
        cut_v, cut_e = _cut_structure_bfs(d)
        assert dom.cut_vertices == cut_v
        assert dom.cut_edges(d.in_adj) == cut_e

    def test_merge_rejects_a_pair_that_is_no_tree_edge(self):
        # 1 and 2 are siblings under the root, and 1 is not a leaf
        d = RootedDigraph(4, 0, [(0, 1), (0, 2), (1, 2), (1, 3)])
        with pytest.raises(ValueError, match="tree nodes"):
            dominators(d).merge(1, 2)


class TestLabelledDigraph:
    def test_edits_match_immutable_surgery(self):
        # random contractions and deletions in place, against contract_arc
        # and with_arcs_removed on current ids
        rng = random.Random(31)
        for _ in range(150):
            d = _relabelled(rng, random_connected(rng, rng.randint(2, 15), 0.2, bidi=0.4))
            g = LabelledDigraph(d)
            while g.m:
                u, v = rng.choice(g.arcs())
                ids = (g.rank(u), g.rank(v))
                if rng.random() < 0.5 or (u == g.root and len(g.in_adj[v]) > 1):
                    g.delete((u, v))
                    d = d.with_arcs_removed([ids])
                else:
                    keep = g.contract((u, v), merge_tree=False)
                    d, mapping = contract_arc(d, ids)
                    assert g.rank(keep) == mapping[ids[0]] == mapping[ids[1]]
                assert g.snapshot() == d
                assert g.labels == sorted(g.labels) and len(g.labels) == d.n

    def test_merged_leaves_leave_their_parent_one_child(self):
        # P (3) has two children, the leaves 4 and 5 joined both ways.
        # Merging them leaves P one child; merging that into P leaves P
        # none, so P is no cut-vertex any more
        d = RootedDigraph(6, 0, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5),
                                 (4, 5), (5, 4)])
        g = LabelledDigraph(d)
        assert dominators(g).cut_vertices == {3}
        keep = g.contract((4, 5), merge_tree=True)
        assert dominators(g).cut_vertices == {3}
        g.contract((3, keep), merge_tree=True)
        fresh = Dominators(g.n, g.root, g.out_adj, g.in_adj)
        assert dominators(g).cut_vertices == fresh.cut_vertices == set()
        assert dominators(g).reached == fresh.reached == 4

    def test_absent_arc_rejected(self):
        # path3's last vertex has no out-arcs, so give it one: an endpoint
        # of -1 must not reach it by indexing from the end
        g = LabelledDigraph(RootedDigraph(4, 0, [(0, 1), (1, 2), (2, 3), (3, 1)]))
        before = g.arcs()
        for u, v in [(0, 2), (2, 1), (-1, 1), (1, -1), (4, 1), (1, 4), (-1, 4)]:
            for edit in (g.delete, lambda arc: g.contract(arc, merge_tree=False)):
                with pytest.raises(ValueError, match=re.escape(f"arc ({u},{v}) not in graph")):
                    edit((u, v))
                assert g.arcs() == before


def _private_neighbors(d, u):
    """Out-neighbors of u that the root reaches only through u."""
    return {w for w in d.out_adj[u] if dominators(d).dominates(u, w)}


class TestPrivateNeighbors:
    def test_path_middle(self):
        assert _private_neighbors(path3(), 1) == {2}

    def test_root_case(self):
        d = RootedDigraph(3, 0, [(0, 1), (0, 2)])
        assert _private_neighbors(d, 0) == {1, 2}

    def test_non_cut_vertex_empty(self):
        d = RootedDigraph(4, 0, [(0, 1), (0, 2), (1, 3), (2, 3)])
        assert _private_neighbors(d, 1) == set()


class TestContractArc:
    def test_path_contract(self):
        g, mapping = contract_arc(path3(), (0, 1))
        assert g.n == 2 and g.root == 0
        assert g.arcs() == [(0, 1)]
        assert mapping == [0, 0, 1]

    def test_parallel_arcs_merged(self):
        d = RootedDigraph(3, 0, [(0, 1), (1, 2), (0, 2)])
        g, _ = contract_arc(d, (1, 2))
        assert g.arcs() == [(0, 1)]

    def test_loop_discarded(self):
        d = RootedDigraph(3, 0, [(0, 1), (1, 2), (2, 1)])
        g, _ = contract_arc(d, (1, 2))
        assert g.arcs() == [(0, 1)]

    def test_absent_arc_rejected(self):
        with pytest.raises(ValueError):
            contract_arc(path3(), (0, 2))

    def test_maxleaf_never_increases_on_cut_edges(self, rng):
        for _ in range(60):
            d = random_connected(rng, rng.randint(2, 8), 0.25, bidi=0.3)
            before = solve_branch_and_bound(d, None, SolveMode.LEAF).best_value
            for u, v in cut_structure(d)[1]:
                if u == d.root and len(d.in_adj[v]) > 1:
                    continue  # merging would hand the root an in-arc
                g, _ = contract_arc(d, (u, v))
                after = solve_branch_and_bound(g, None, SolveMode.LEAF).best_value
                assert before >= after


class TestPlanarityWitness:
    """The Euler bound that the planar tests assert, on the underlying
    simple undirected graph."""

    def test_k5_rejected(self):
        k5 = RootedDigraph(5, 0, [(u, v) for u in range(5) for v in range(5)
                                  if u != v and v != 0])
        assert not euler_bound_holds(k5)

    def test_tree_accepted(self):
        assert euler_bound_holds(path3())

    def test_grid_accepted(self):
        arcs = set()
        for r in range(3):
            for c in range(3):
                v = 3 * r + c
                if c < 2:
                    arcs.add((v, v + 1))
                    if v + 1 != 0:
                        arcs.add((v + 1, v))
                if r < 2:
                    arcs.add((v, v + 3))
                    arcs.add((v + 3, v))
        arcs = {(u, v) for u, v in arcs if v != 0}
        # 22 arcs, but anti-parallel pairs are one edge: 12 <= 3 * 9 - 6
        assert euler_bound_holds(RootedDigraph(9, 0, arcs))


def _probing_lists(n, root, arcs):
    """The constructor that probed and grew the arc set for every arc and
    then sorted both sides, kept as the reference for ``RootedDigraph``:
    (out_adj, in_adj, arc set)."""
    out_adj = [[] for _ in range(n)]
    in_adj = [[] for _ in range(n)]
    arcset = set()
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
    for adj in out_adj + in_adj:
        adj.sort()
    return out_adj, in_adj, arcset


def _remove_vertices_by_set(d, drop):
    """``remove_vertices`` as it listed the induced arcs from the arc set,
    kept as the reference."""
    dead = set(drop)
    mapping = [None] * d.n
    nxt = 0
    for x in range(d.n):
        if x not in dead:
            mapping[x] = nxt
            nxt += 1
    new_arcs = {(mapping[a], mapping[b]) for a, b in d.arcs()
                if a not in dead and b not in dead}
    return RootedDigraph(d.n - len(dead), mapping[d.root], new_arcs), mapping


def _assert_matches_probing(d, n, root, arcs):
    """``d`` against the probing constructor on ``arcs``: its lists,
    ``arcs()``, and ``has_arc`` on every arc, on non-arcs (every ordered
    pair up to n = 30, a seeded sample above) and on the ids -1 and n."""
    out_adj, in_adj, arcset = _probing_lists(n, root, arcs)
    assert d.out_adj == out_adj
    assert d.in_adj == in_adj
    assert d.arcs() == sorted(arcset)
    assert all(d.has_arc(u, v) for u, v in arcset)
    if n <= 30:
        pairs = [(u, v) for u in range(n) for v in range(n)]
    else:
        rng = random.Random(n * 7919 + len(arcset))
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(4 * n)]
    for u, v in pairs:
        assert d.has_arc(u, v) == ((u, v) in arcset), (u, v)
    for x in range(n):
        for bad in (-1, n):
            assert not d.has_arc(bad, x) and not d.has_arc(x, bad), (bad, x)


def _family_graphs():
    rng = random.Random(8080)
    for family, kwargs in (("path", {}), ("star", {}), ("bipath-chain", {}),
                           ("planar", {"keep_prob": 0.5}), ("degenerate", {"d": 3}),
                           ("iob-twins", {"d": 3, "twin_factor": 3}), ("random", {})):
        for _ in range(4):
            n, k = rng.randint(1, 120), rng.randint(2, 16)
            if family == "bipath-chain":
                n = max(n, 3)
            # iob-twins sizes itself from k and refuses an n
            yield generate(family, None if family == "iob-twins" else n, k,
                           rng.randrange(1 << 30), **kwargs)


class TestConstructionEquivalence:
    """The constructor, ``arcs()``, ``has_arc`` and ``remove_vertices``
    against the set-probing constructor, its own arc set and the set-built
    induced subgraph."""

    def test_generator_families_original_and_shuffled(self):
        rng = random.Random(9090)
        for g in _family_graphs():
            perm = list(range(g.n))
            for shuffled in (False, True):
                if shuffled:
                    rng.shuffle(perm)
                arcs = [(perm[u], perm[v]) for u, v in g.arcs()]
                root = perm[g.root]
                rng.shuffle(arcs)
                for given in (arcs, set(arcs), iter(arcs), sorted(arcs)):
                    d = RootedDigraph(g.n, root, given)
                    _assert_matches_probing(d, g.n, root, arcs)
                # pairs given as lists build the same graph
                assert RootedDigraph(g.n, root, [list(a) for a in arcs]) == d

    def test_labelled_digraph_after_deletions_and_contractions(self):
        rng = random.Random(9191)
        checked = 0
        for _ in range(60):
            d = _relabelled(rng, random_connected(rng, rng.randint(2, 25), 0.2, bidi=0.4))
            g = LabelledDigraph(d)
            # the arcs on labels, edited here by hand as the reference
            ref = set(d.arcs())
            while g.m:
                u, v = rng.choice(g.arcs())
                ref.remove((u, v))
                if rng.random() < 0.5 or (u == g.root and len(g.in_adj[v]) > 1):
                    g.delete((u, v))
                else:
                    keep = g.contract((u, v), merge_tree=False)
                    gone = u + v - keep
                    ref = {(keep if a == gone else a, keep if b == gone else b)
                           for a, b in ref}
                    ref = {(a, b) for a, b in ref if a != b}
                # every pair is asked, so removed labels must answer False
                _assert_matches_probing(g, g.n, g.root, ref)
                snap = g.snapshot()
                _assert_matches_probing(snap, snap.n, snap.root, snap.arcs())
                checked += 1
        assert checked >= 500

    def test_remove_vertices_of_random_sets(self):
        rng = random.Random(9292)
        for g in _family_graphs():
            for _ in range(5):
                drop = {v for v in range(g.n) if v != g.root and rng.random() < 0.3}
                got, mapping = remove_vertices(g, drop)
                ref, ref_mapping = _remove_vertices_by_set(g, drop)
                assert mapping == ref_mapping
                assert (got.n, got.root) == (ref.n, ref.root)
                assert got.out_adj == ref.out_adj and got.in_adj == ref.in_adj
                assert got.arcs() == ref.arcs()

    FAULTS = {
        "out of range": ((0, 4), "arc (0,4) out of range"),
        "negative id": ((-1, 2), "arc (-1,2) out of range"),
        "self-loop": ((2, 2), "self-loop at 2"),
        "duplicate": ((1, 2), "duplicate arc (1,2)"),
        "into the root": ((3, 0), "arc (3,0) enters the root"),
    }

    @pytest.mark.parametrize("kind", sorted(FAULTS))
    def test_each_fault_kind_raises_as_before(self, kind):
        arc, message = self.FAULTS[kind]
        arcs = [(0, 1), (1, 2), arc, (2, 3)]
        with pytest.raises(ValueError) as ref:
            _probing_lists(4, 0, arcs)
        assert str(ref.value) == message
        for given in (arcs, iter(arcs), [list(a) for a in arcs]):
            with pytest.raises(ValueError) as got:
                RootedDigraph(4, 0, given)
            assert str(got.value) == message

    def test_first_fault_in_input_order_wins(self):
        # arcs with several faults, each placed at random: the message is
        # the one of the first faulty arc, as the per-arc checks gave it
        rng = random.Random(9393)
        kinds = set()
        several = 0
        for _ in range(400):
            n = rng.randint(2, 12)
            arcs = [(rng.randrange(-1, n + 1), rng.randrange(-1, n + 1))
                    for _ in range(rng.randint(1, 3 * n))]
            faults = len(arcs) - len(set(arcs)) + sum(
                not (0 <= u < n and 0 <= v < n) or u == v or v == 0 for u, v in arcs)
            several += faults >= 2
            try:
                _probing_lists(n, 0, arcs)
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    RootedDigraph(n, 0, arcs)
                assert str(got.value) == str(exc)
                kinds.add(re.sub(r"-?\d+", "#", str(exc)))
            else:
                _assert_matches_probing(RootedDigraph(n, 0, arcs), n, 0, arcs)
        assert kinds == {"arc (#,#) out of range", "self-loop at #",
                         "duplicate arc (#,#)", "arc (#,#) enters the root"}
        assert several >= 200


class TestRemoveVertices:
    def test_induced_subgraph(self):
        d = RootedDigraph(4, 0, [(0, 1), (1, 2), (1, 3), (3, 2)])
        g, mapping = remove_vertices(d, {2})
        assert g.n == 3
        assert mapping == [0, 1, None, 2]
        assert g.arcs() == [(0, 1), (1, 2)]

    def test_root_protected(self):
        with pytest.raises(ValueError):
            remove_vertices(path3(), {0})

    @pytest.mark.parametrize("bad", [-1, 3, 5])
    def test_id_out_of_range(self, bad):
        # an id that is no vertex must not count as removed
        with pytest.raises(ValueError, match=f"^vertex {bad} out of range$"):
            remove_vertices(RootedDigraph(3, 0, [(0, 1)]), [bad])


def _family_graphs_and_shuffled(rng):
    """Each graph of ``_family_graphs``, which covers every generator
    family, and a copy with its ids shuffled, so the root is not always 0."""
    for g in _family_graphs():
        perm = list(range(g.n))
        rng.shuffle(perm)
        yield g
        yield RootedDigraph(g.n, perm[g.root], [(perm[u], perm[v]) for u, v in g.arcs()])


class TestBfsBranching:
    def test_matches_checked_reference_on_every_family(self):
        spanned = 0
        for d in _family_graphs_and_shuffled(random.Random(5757)):
            try:
                ref = bfs_out_branching_checked(d)
            except UnreachableError:
                continue
            t = bfs_out_branching(d)
            assert (t.n, t.root) == (ref.n, ref.root)
            assert t.parent == ref.parent and t.children == ref.children
            parent, n_children = bfs_parents(d)
            assert parent == [ref.parent.get(v, -1) for v in range(d.n)]
            assert n_children == list(map(len, ref.children))
            spanned += 1
        assert spanned >= 40

    def test_unreachable_raises_as_the_reference(self):
        # cutting every arc into one vertex leaves it unreachable
        rng = random.Random(5858)
        raised = 0
        for d in _family_graphs_and_shuffled(rng):
            if d.n < 2:
                continue
            v = rng.choice([x for x in range(d.n) if x != d.root])
            g = d.with_arcs_removed([(u, v) for u in d.in_adj[v]])
            with pytest.raises(UnreachableError) as ref:
                bfs_out_branching_checked(g)
            for search in (bfs_out_branching, bfs_parents):
                with pytest.raises(UnreachableError) as got:
                    search(g)
                assert str(got.value) == str(ref.value)
            raised += 1
        assert raised >= 50

    def test_spans(self):
        d = RootedDigraph(4, 0, [(0, 1), (0, 2), (1, 3), (2, 3)])
        t = bfs_out_branching(d)
        assert t.is_valid_for(d)
        assert set(t.parent) == {1, 2, 3}

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            bfs_out_branching(RootedDigraph(3, 0, [(0, 1)]))


def _walk_up_acyclic(n, root, parent):
    """The acyclicity check that ``OutBranching`` made by walking up from
    every vertex, O(n * depth), kept as the reference for its one walk
    down from the root."""
    for v in range(n):
        seen = 0
        u = v
        while u != root:
            u = parent[u]
            seen += 1
            if seen > n:
                raise ValueError("parent map contains a cycle")


class TestOutBranching:
    @staticmethod
    def tree_map(rng, n, root):
        """Parent map of a random tree: each vertex hangs below one placed
        earlier in a random order that starts at the root."""
        order = [root] + rng.sample([v for v in range(n) if v != root], n - 1)
        return {v: order[rng.randrange(i)] for i, v in enumerate(order) if i}

    def test_matches_walk_up_reference(self):
        rng = random.Random(515)
        verdicts = {True: 0, False: 0}
        for _ in range(3000):
            n = rng.randint(1, 12)
            root = rng.randrange(n)
            if rng.random() < 0.5:
                parent = self.tree_map(rng, n, root)
            else:
                parent = {v: rng.randrange(n) for v in range(n) if v != root}
            try:
                _walk_up_acyclic(n, root, parent)
                expected = True
            except ValueError:
                expected = False
            try:
                t = OutBranching(n, root, parent)
                got = True
            except ValueError:
                got = False
            assert got == expected, (n, root, parent)
            if got:
                assert sorted(v for c in t.children for v in c) == sorted(parent)
                assert all(parent[v] == p for p in range(n) for v in t.children[p])
            verdicts[got] += 1
        assert min(verdicts.values()) >= 500

    def test_forged_cycles_raise(self):
        # re-hang a vertex below itself or one of its descendants: the
        # vertices on the cycle are cut off from the root
        rng = random.Random(516)
        for _ in range(1000):
            n = rng.randint(2, 12)
            root = rng.randrange(n)
            parent = self.tree_map(rng, n, root)
            v = rng.choice(sorted(parent))
            below = [v]
            for u in below:
                below += [w for w, p in parent.items() if p == u]
            parent[v] = rng.choice(below)
            with pytest.raises(ValueError, match="cycle"):
                _walk_up_acyclic(n, root, parent)
            with pytest.raises(ValueError, match="cycle"):
                OutBranching(n, root, parent)

    def test_parent_out_of_range_raises(self):
        with pytest.raises(ValueError, match="out of range"):
            OutBranching(3, 0, {1: 0, 2: -1})
