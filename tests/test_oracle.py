import hashlib
import json
import random
import time
from unittest import mock

import pytest

from sparse_outbranch import oracle
from sparse_outbranch.digraph import (
    Dominators,
    OutBranching,
    RootedDigraph,
    bfs_out_branching,
    cut_structure,
    is_connected,
)
from sparse_outbranch.lob_reducer import LobInstance, apply_rule_6, find_rule_6
from sparse_outbranch.oracle import (
    ENUMERATION_MAX_N,
    BudgetExceeded,
    SolveMode,
    SolveResult,
    _Grower,
    _INTERNAL,
    _LEAF,
    _UNDECIDED,
    _leafy_branching,
    _search,
    _tree_value,
    brute_force_out_branchings,
    enumerate_out_branchings,
    solve_branch_and_bound,
)

from conftest import random_connected, stack_headroom


def _enumerate_recursive(d):
    """The recursive enumeration that ``oracle._search`` replaced, kept as
    the reference for its visit order."""
    st = _Grower(d)

    def grow():
        if not st.feasible():
            return
        if st.unattached() == 0:
            yield OutBranching(d.n, d.root, st.parent)
            return
        i = st.pivot()
        if i is None:
            return
        u, v = st.arcs[i]
        st.attach(u, v)
        yield from grow()
        st.detach(u, v)
        st.banned[i] = True
        yield from grow()
        st.banned[i] = False

    yield from grow()


def _branch_and_bound_recursive(d, k, mode, timeout=60.0):
    """The recursive branch and bound that ``oracle._search`` replaced,
    kept as the reference for its values, exactness and witnesses."""
    deadline = time.monotonic() + timeout
    seed = bfs_out_branching(d)
    best = _tree_value(seed, mode)
    witness = seed
    if k is not None and best >= k:
        return SolveResult(best, witness, exact=False)
    st = _Grower(d)
    state = {"timed_out": False, "early": False}

    def search():
        nonlocal best, witness
        if state["timed_out"] or state["early"]:
            return
        if time.monotonic() > deadline:
            state["timed_out"] = True
            return
        if _value_bound(st, mode) <= best:
            return
        if not st.feasible():
            return
        if st.unattached() == 0:
            t = OutBranching(d.n, d.root, st.parent)
            val = _tree_value(t, mode)
            if val > best:
                best, witness = val, t
                if k is not None and best >= k:
                    state["early"] = True
            return
        i = st.pivot()
        if i is None:
            return
        u, v = st.arcs[i]
        st.attach(u, v)
        search()
        st.detach(u, v)
        st.banned[i] = True
        search()
        st.banned[i] = False

    search()
    return SolveResult(best, witness,
                       exact=not (state["timed_out"] or state["early"]))


def _value_bound(st, mode):
    """The optimistic bound of the arc-branching search: every unattached
    vertex counts toward the objective, and attached leaves may still flip
    to internal (never the other way)."""
    if mode is SolveMode.INTERNAL:
        return st.internal + st.unattached()
    attached_now = len(st.parent) + 1
    return (attached_now - st.internal) + st.unattached()


def _arc_branch_and_bound(d, k, mode, max_nodes=None):
    """The iterative arc-branching branch and bound that the vertex-state
    search replaced in LEAF mode, kept as the reference for its values.
    Past ``max_nodes`` search nodes it returns its incumbent with
    exact=False."""
    seed = bfs_out_branching(d)
    best = _tree_value(seed, mode)
    witness = seed
    if k is not None and best >= k:
        return SolveResult(best, witness, exact=False)
    st = _Grower(d)
    nodes = 0

    def prune():
        nonlocal nodes
        nodes += 1
        if max_nodes is not None and nodes > max_nodes:
            raise BudgetExceeded("node budget")
        return _value_bound(st, mode) <= best

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


def _max_leaf_search_reference(d, best, tick):
    """The LEAF-mode vertex-state search as it was before it kept its
    masked lists across nodes and ran the greedy only where it could win,
    kept as the reference for its values, exactness, node counts and
    witnesses: at every node it rebuilds both masked lists, and after every
    leaf decision it makes a full ``Dominators`` pass and runs the greedy."""
    n, root, out_adj, in_adj = d.n, d.root, d.out_adj, d.in_adj
    if n == 1:
        return  # the seed, a lone leaf, is optimal
    state = [_UNDECIDED] * n
    state[root] = _INTERNAL
    trail: list[int] = []
    # one frame per open decision: (trail length before it, vertex, in the
    # internal branch)
    stack: list[tuple[int, int, bool]] = []
    arcs_changed = True

    def decide(v: int, s: int) -> None:
        state[v] = s
        trail.append(v)

    while True:
        tick()
        alive = True
        masked_out = [[] if s == _LEAF else out_adj[v]
                      for v, s in enumerate(state)]
        masked_in = [[u for u in ins if state[u] != _LEAF] for ins in in_adj]
        if arcs_changed:
            dom = Dominators(n, root, masked_out, masked_in)
            alive = dom.reached == n
            if alive:
                for v in dom.cut_vertices:
                    if state[v] == _UNDECIDED:
                        decide(v, _INTERNAL)
                for v in range(n):
                    if state[v] == _UNDECIDED and not out_adj[v]:
                        decide(v, _LEAF)
                parent = _leafy_branching(n, root, masked_out)
                value = n - len(set(parent.values()))
                if value > best:
                    best = value
                    yield best, parent
        if alive:
            fed = [False] * n
            for u in range(n):
                if state[u] == _INTERNAL:
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
            alive = n - state.count(_INTERNAL) - packed > best
        if alive:
            # the bound exceeds best, so some vertex is still undecided
            v = max((u for u in range(n) if state[u] == _UNDECIDED),
                    key=lambda u: len(out_adj[u]))
            stack.append((len(trail), v, False))
            decide(v, _LEAF)
            arcs_changed = True
            continue
        while stack and stack[-1][2]:
            stack.pop()
        if not stack:
            return
        undo_to, v, _ = stack[-1]
        while len(trail) > undo_to:
            state[trail.pop()] = _UNDECIDED
        stack[-1] = (undo_to, v, True)
        decide(v, _INTERNAL)
        arcs_changed = False


def _reference_leaf_solve(d, k=None):
    """``solve_branch_and_bound`` in LEAF mode over the reference search."""
    with mock.patch.object(oracle, "_max_leaf_search", _max_leaf_search_reference):
        return solve_branch_and_bound(d, k, SolveMode.LEAF)


def optimum(d, mode):
    return max(_tree_value(t, mode) for t in enumerate_out_branchings(d))


def count(it):
    return sum(1 for _ in it)


class TestEnumeration:
    def test_single_path(self):
        d = RootedDigraph(3, 0, [(0, 1), (1, 2)])
        assert count(enumerate_out_branchings(d)) == 1

    def test_two_cycle_plus_root(self):
        d = RootedDigraph(3, 0, [(0, 1), (0, 2), (1, 2), (2, 1)])
        trees = list(enumerate_out_branchings(d))
        assert len(trees) == 3
        assert len(list(brute_force_out_branchings(d))) == 3

    def test_bidirected_triangle(self):
        d = RootedDigraph(3, 0, [(0, 1), (0, 2), (1, 2), (2, 1)])
        keyed = {tuple(sorted(t.parent.items())) for t in enumerate_out_branchings(d)}
        brute = {tuple(sorted(t.parent.items())) for t in brute_force_out_branchings(d)}
        assert keyed == brute

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            list(enumerate_out_branchings(RootedDigraph(3, 0, [(0, 1)])))

    def test_max_n_budget(self):
        assert ENUMERATION_MAX_N == 12
        def path(n):
            return RootedDigraph(n, 0, [(i, i + 1) for i in range(n - 1)])

        with pytest.raises(BudgetExceeded):
            list(enumerate_out_branchings(path(13)))
        # at the cap itself enumeration runs: a path has one branching
        assert len(list(enumerate_out_branchings(path(12)))) == 1

    def test_completeness_vs_brute_force(self, rng):
        for _ in range(120):
            d = random_connected(rng, rng.randint(1, 7), rng.uniform(0, 0.5))
            keyed = [tuple(sorted(t.parent.items()))
                     for t in enumerate_out_branchings(d)]
            brute = {tuple(sorted(t.parent.items()))
                     for t in brute_force_out_branchings(d)}
            assert len(set(keyed)) == len(keyed), "duplicate branchings"
            assert set(keyed) == brute

    def test_every_tree_well_formed(self, rng):
        for _ in range(40):
            d = random_connected(rng, rng.randint(2, 7), 0.3)
            for t in enumerate_out_branchings(d):
                assert t.is_valid_for(d)
                # leaf-count identity via out-degree surplus
                surplus = 1 + sum(max(len(t.children[v]) - 1, 0) for v in range(d.n))
                assert t.leaf_count() == surplus


class TestExactValues:
    def test_star_maxleaf(self):
        d = RootedDigraph(4, 0, [(0, 1), (0, 2), (0, 3)])
        assert optimum(d, SolveMode.LEAF) == 3

    def test_path_maxleaf(self):
        d = RootedDigraph(4, 0, [(0, 1), (1, 2), (2, 3)])
        assert optimum(d, SolveMode.LEAF) == 1

    def test_rule5_pattern(self):
        d = RootedDigraph(5, 0, [(0, 1), (0, 2), (1, 2), (2, 1), (1, 3), (2, 4)])
        assert optimum(d, SolveMode.LEAF) == 2

    def test_path_internal(self):
        d = RootedDigraph(4, 0, [(0, 1), (1, 2), (2, 3)])
        assert optimum(d, SolveMode.INTERNAL) == 3

    def test_star_internal(self):
        d = RootedDigraph(4, 0, [(0, 1), (0, 2), (0, 3)])
        assert optimum(d, SolveMode.INTERNAL) == 1

    def test_internal_is_n_minus_minleaf(self, rng):
        for _ in range(60):
            d = random_connected(rng, rng.randint(1, 7), 0.35)
            trees = list(enumerate_out_branchings(d))
            minleaf = min(t.leaf_count() for t in trees)
            res = solve_branch_and_bound(d, None, SolveMode.INTERNAL)
            assert res.exact and res.best_value == d.n - minleaf

    def test_single_vertex(self):
        d = RootedDigraph(1, 0, [])
        assert optimum(d, SolveMode.LEAF) == 1
        assert optimum(d, SolveMode.INTERNAL) == 0


class TestEquivalence:
    def test_rule6_all_k(self, rng):
        seen = 0
        for _ in range(300):
            if seen >= 25:
                break
            d = random_connected(rng, rng.randint(3, 7), 0.3, bidi=0.5)
            _, ce = cut_structure(d)
            app = find_rule_6(d, ce)
            if app is None:
                continue
            seen += 1
            after = apply_rule_6(LobInstance(d, 0), app.locus).graph
            before_res = solve_branch_and_bound(d, None, SolveMode.LEAF)
            after_res = solve_branch_and_bound(after, None, SolveMode.LEAF)
            assert before_res.exact and after_res.exact
            for k in range(0, d.n + 1):
                assert (before_res.best_value >= k) == (after_res.best_value >= k)
        assert seen >= 10


class TestIterativeSearchMatchesRecursive:
    """``oracle._search`` against the recursive searches it replaced."""

    @staticmethod
    def graphs(rng, count):
        for _ in range(count):
            yield random_connected(rng, rng.randint(1, 8), rng.uniform(0, 0.5),
                                   bidi=rng.choice((0.0, 0.5)))

    def test_same_enumeration_order(self, rng):
        total = 0
        for d in self.graphs(rng, 320):
            new = [list(t.parent.items()) for t in enumerate_out_branchings(d)]
            old = [list(t.parent.items()) for t in _enumerate_recursive(d)]
            assert new == old
            total += len(new)
        assert total > 1000

    def test_same_branch_and_bound_results(self, rng):
        # LEAF mode no longer runs the arc search, so its iterative form is
        # the reference copy kept in this file
        early = 0
        for d in self.graphs(rng, 300):
            for mode in (SolveMode.LEAF, SolveMode.INTERNAL):
                for k in (None, 1, d.n // 2, d.n - 1, d.n):
                    if mode is SolveMode.LEAF:
                        new = _arc_branch_and_bound(d, k, mode)
                    else:
                        new = solve_branch_and_bound(d, k, mode)
                    old = _branch_and_bound_recursive(d, k, mode)
                    assert (new.best_value, new.exact) == (old.best_value, old.exact)
                    assert (list(new.witness.parent.items())
                            == list(old.witness.parent.items()))
                    early += k is not None and not new.exact
        assert early > 100

    def test_same_results_on_a_reduced_core(self):
        from sparse_outbranch.generators import gen_planar
        from sparse_outbranch.lob_reducer import reduce_to_fixpoint
        g = gen_planar(60, seed=31, both_prob=0.1, keep_prob=0.25)
        out, _ = reduce_to_fixpoint(LobInstance(g, 5))
        red = out.instance.graph
        for k in (None, 5):
            new = _arc_branch_and_bound(red, k, SolveMode.LEAF)
            old = _branch_and_bound_recursive(red, k, SolveMode.LEAF, timeout=30)
            assert (new.best_value, new.exact) == (old.best_value, old.exact)
            assert new.witness.parent == old.witness.parent


class TestBranchAndBound:
    def test_matches_enumeration(self, rng):
        for _ in range(100):
            d = random_connected(rng, rng.randint(1, 9), rng.uniform(0, 0.4))
            trees = list(enumerate_out_branchings(d))
            for mode in (SolveMode.LEAF, SolveMode.INTERNAL):
                vals = [t.leaf_count() if mode is SolveMode.LEAF
                        else t.internal_count() for t in trees]
                res = solve_branch_and_bound(d, None, mode)
                assert res.exact
                assert res.best_value == max(vals)
                assert res.witness.is_valid_for(d)

    def test_early_exit_for_k1(self):
        d = RootedDigraph(5, 0, [(0, 1), (0, 2), (1, 3), (2, 4)])
        res = solve_branch_and_bound(d, 1, SolveMode.LEAF)
        assert res.best_value >= 1

    def test_kernel_scale_instance(self):
        from sparse_outbranch.generators import gen_planar
        from sparse_outbranch.lob_reducer import reduce_to_fixpoint
        g = gen_planar(60, seed=31, both_prob=0.1, keep_prob=0.25)
        out, _ = reduce_to_fixpoint(LobInstance(g, 5))
        red = out.instance.graph
        assert red.n >= 20
        res = solve_branch_and_bound(red, None, SolveMode.LEAF, timeout=30)
        assert res.exact and res.best_value >= 5

    @pytest.mark.parametrize("mode", list(SolveMode), ids=lambda m: m.value)
    def test_large_input_times_out_with_a_valid_witness(self, mode):
        # 1500 vertices: deeper than the interpreter's recursion limit
        from sparse_outbranch.generators import gen_planar
        g = gen_planar(1500, 3, both_prob=0.3, keep_prob=0.6)
        with stack_headroom():
            res = solve_branch_and_bound(g, None, mode, timeout=0.5)
        assert not res.exact
        assert res.witness.is_valid_for(g)
        assert res.best_value == _tree_value(res.witness, mode)

    def test_seed_tree_decides_without_search(self):
        d = RootedDigraph(4, 0, [(0, 1), (0, 2), (0, 3)])
        for mode in (SolveMode.LEAF, SolveMode.INTERNAL):
            res = solve_branch_and_bound(d, 1, mode)
            assert res.nodes == 0 and not res.exact


def _relabelled(rng, d):
    """``d`` with its vertex ids shuffled, so the root is anywhere and
    id order carries no structure."""
    perm = list(range(d.n))
    rng.shuffle(perm)
    return RootedDigraph(d.n, perm[d.root], [(perm[u], perm[v]) for u, v in d.arcs()])


def _reduced_planar_cores(rng, count, lo, hi):
    """Leaf-reduced cores of small sparse planar digraphs, with lo..hi
    vertices."""
    from sparse_outbranch.generators import gen_planar
    from sparse_outbranch.lob_reducer import reduce_to_fixpoint
    from sparse_outbranch.outcomes import ReducedOutcome
    cores = []
    while len(cores) < count:
        g = gen_planar(rng.randint(lo + 2, hi + 15), rng.randrange(1 << 30),
                       both_prob=0.1, keep_prob=rng.choice((0.2, 0.25, 0.3)))
        out, _ = reduce_to_fixpoint(LobInstance(g, 3))
        if isinstance(out, ReducedOutcome) and lo <= out.instance.graph.n <= hi:
            cores.append(out.instance.graph)
    return cores


class TestVertexStateSearch:
    """The LEAF-mode search over vertex states against enumeration and
    against the arc-branching search it replaced."""

    def test_matches_enumeration_on_relabelled_graphs(self, rng):
        for _ in range(1100):
            d = _relabelled(rng, random_connected(
                rng, rng.randint(1, 9), rng.uniform(0, 0.35),
                bidi=rng.choice((0.0, 0.5))))
            best = max(t.leaf_count() for t in enumerate_out_branchings(d))
            res = solve_branch_and_bound(d, None, SolveMode.LEAF)
            assert res.exact and res.best_value == best
            assert res.witness.is_valid_for(d)
            assert res.witness.leaf_count() == best

    def test_matches_arc_branching_on_mid_sized_graphs(self, rng):
        graphs = [_relabelled(rng, random_connected(
                      rng, n, rng.uniform(0.2, 0.6) / n, bidi=rng.choice((0.0, 0.3))))
                  for n in (rng.randint(12, 30) for _ in range(150))]
        graphs += _reduced_planar_cores(rng, 100, 12, 30)
        compared = 0
        for d in graphs:
            ref = _arc_branch_and_bound(d, None, SolveMode.LEAF, max_nodes=5000)
            if not ref.exact:
                continue
            res = solve_branch_and_bound(d, None, SolveMode.LEAF)
            assert res.exact and res.best_value == ref.best_value
            assert res.witness.is_valid_for(d)
            assert res.witness.leaf_count() == ref.best_value
            compared += 1
        assert compared >= 200

    def test_decision_matches_enumeration_for_every_k(self, rng):
        for _ in range(150):
            d = _relabelled(rng, random_connected(rng, rng.randint(2, 8), 0.3,
                                                  bidi=0.5))
            best = max(t.leaf_count() for t in enumerate_out_branchings(d))
            for k in range(1, d.n + 1):
                res = solve_branch_and_bound(d, k, SolveMode.LEAF)
                assert (res.best_value >= k) == (best >= k)
                assert res.exact == (best < k)
                assert res.witness.leaf_count() == res.best_value


class TestNodeCeilings:
    """The search tree on a fixed input stays small. Pruning on ``<``
    instead of ``<=`` gives the same values but several times the nodes."""

    def test_leaf_mode(self):
        from sparse_outbranch.generators import gen_planar
        from sparse_outbranch.lob_reducer import reduce_to_fixpoint
        g = gen_planar(60, seed=33, both_prob=0.1, keep_prob=0.25)
        out, _ = reduce_to_fixpoint(LobInstance(g, 5))
        core = out.instance.graph
        assert (core.n, core.m) == (41, 56)
        res = solve_branch_and_bound(core, None, SolveMode.LEAF)
        assert res.exact and res.best_value == 31
        assert 1 <= res.nodes <= 40

    def test_internal_mode(self):
        from sparse_outbranch.generators import gen_planar
        g = gen_planar(20, seed=2, both_prob=0.3, keep_prob=0.5)
        assert (g.n, g.m) == (20, 35)
        res = solve_branch_and_bound(g, None, SolveMode.INTERNAL)
        assert res.exact and res.best_value == 16
        assert 1 <= res.nodes <= 2000


def _budgeted_leaf_search(search, d, max_nodes):
    """(best_value, exact, nodes, witness items) of a LEAF search driven
    from the seed tree as ``solve_branch_and_bound`` drives it, with a
    node budget in place of the deadline."""
    witness = bfs_out_branching(d).parent
    best = d.n - len(set(witness.values()))
    nodes = 0

    def tick():
        nonlocal nodes
        nodes += 1
        if nodes > max_nodes:
            raise BudgetExceeded("node budget")

    try:
        for best, parent in search(d, best, tick):
            witness = dict(parent)
    except BudgetExceeded:
        return best, False, nodes, sorted(witness.items())
    return best, True, nodes, sorted(witness.items())


def _probe_core(k, seed):
    """ROADMAP item 2's probe core at k (keep 0.25): its seed is the one
    ``random.Random(707)`` draws for it there."""
    from sparse_outbranch.generators import gen_planar
    from sparse_outbranch.lob_reducer import reduce_to_fixpoint
    g = gen_planar(10 * k, seed, both_prob=0.1, keep_prob=0.25)
    return reduce_to_fixpoint(LobInstance(g, k))[0].instance.graph


def _reduced_random_core(n, seed):
    """The leaf-reduced core of ``gen_random(n, 1.6 n, seed)``."""
    from sparse_outbranch.generators import gen_random
    from sparse_outbranch.lob_reducer import reduce_to_fixpoint
    g = gen_random(n, int(1.6 * n), seed, bidi_prob=0.1)
    return reduce_to_fixpoint(LobInstance(g, 3))[0].instance.graph


def _result_key(res):
    return res.best_value, res.exact, res.nodes, sorted(res.witness.parent.items())


class TestSearchMatchesReference:
    """The LEAF search against ``_max_leaf_search_reference``: the same
    values, exactness, node counts and witnesses, so keeping the masked
    lists, reading cut vertices from ``immediate_dominators`` and skipping
    the greedy where the node's bound prunes changed nothing they decide."""

    def test_pinned_digest_corpus(self):
        rng = random.Random(2210)  # TestPinnedDigest's generator
        for _ in range(256):
            d = random_connected(rng, rng.randint(1, 14), rng.uniform(0, 0.4),
                                 bidi=rng.choice((0.0, 0.5)))
            if rng.random() < 0.5:
                d = _relabelled(rng, d)
            for k in (None, 1, d.n // 2, d.n - 1, d.n):
                assert (_result_key(solve_branch_and_bound(d, k, SolveMode.LEAF))
                        == _result_key(_reference_leaf_solve(d, k)))

    def test_criterion_7_cores(self):
        from sparse_outbranch.generators import gen_planar
        from sparse_outbranch.lob_reducer import reduce_to_fixpoint
        rng = random.Random(707)
        cores = 0
        for k in range(2, 11):
            for keep in (0.2, 0.25, 0.3):
                g = gen_planar(10 * k, rng.randrange(1 << 30), both_prob=0.1, keep_prob=keep)
                core = reduce_to_fixpoint(LobInstance(g, k))[0].instance.graph
                res = solve_branch_and_bound(core, None, SolveMode.LEAF)
                assert res.exact and res.nodes <= 51
                assert _result_key(res) == _result_key(_reference_leaf_solve(core))
                cores += 1
        assert cores == 27

    def test_reduced_planar_degenerate_and_random_cores(self, rng):
        from sparse_outbranch.generators import gen_degenerate, gen_planar, gen_random
        from sparse_outbranch.lob_reducer import reduce_to_fixpoint
        from sparse_outbranch.outcomes import ReducedOutcome
        compared = {"planar": 0, "degenerate": 0, "random": 0}
        exact = 0
        while sum(compared.values()) < 210:
            kind = list(compared)[sum(compared.values()) % 3]
            n, seed = rng.randint(20, 130), rng.randrange(1 << 30)
            if kind == "planar":
                g = gen_planar(n, seed, both_prob=0.1,
                               keep_prob=rng.choice((0.2, 0.25, 0.3)))
            elif kind == "degenerate":
                g = gen_degenerate(n, 2, seed, both_prob=0.1)
            else:
                g = gen_random(n, int(1.6 * n), seed, bidi_prob=0.1)
            if not is_connected(g):
                continue
            out, _ = reduce_to_fixpoint(LobInstance(g, 3))
            if not isinstance(out, ReducedOutcome) or out.instance.graph.n > 150:
                continue
            core = out.instance.graph
            new = _budgeted_leaf_search(oracle._max_leaf_search, core, 300)
            assert new == _budgeted_leaf_search(_max_leaf_search_reference, core, 300)
            compared[kind] += 1
            exact += new[1]
        assert exact >= 150

    @pytest.mark.parametrize("k, seed, n", [(20, 1003653086, 130), (40, 591326475, 271)])
    def test_probe_cores(self, k, seed, n):
        core = _probe_core(k, seed)
        assert core.n == n
        res = solve_branch_and_bound(core, None, SolveMode.LEAF)
        assert res.exact
        assert _result_key(res) == _result_key(_reference_leaf_solve(core))

    @pytest.mark.parametrize("n, seed", [(47, 308118888), (44, 382428329)])
    def test_greedy_cannot_win_where_the_bound_prunes(self, n, seed):
        # On these two random cores, found by a seeded search, the greedy
        # tree at some node has more leaves than the node's packing bound:
        # it makes a vertex an internal branch decided a leaf. The reference
        # runs the greedy at every leaf decision; the search skips it where
        # the bound is at most best, and no skipped greedy would have won.
        core = _reduced_random_core(n, seed)
        node, bounds = 0, {}
        real_bound = oracle._packing_bound

        def bound(*args):
            bounds[node] = real_bound(*args)
            return bounds[node]

        def tick():
            nonlocal node
            node += 1

        start = bfs_out_branching(core).leaf_count()
        with mock.patch.object(oracle, "_packing_bound", bound):
            found = [value for value, _ in oracle._max_leaf_search(core, start, tick)]
        incumbent, greedy = start, {}  # node: (greedy value, incumbent before it)

        def leafy(*args):
            parent = oracle._leafy_branching(*args)
            greedy[node] = (core.n - len(set(parent.values())), incumbent)
            return parent

        node, raised = 0, []
        with mock.patch.dict(globals(), {"_leafy_branching": leafy}):
            for incumbent, _ in _max_leaf_search_reference(core, start, tick):
                raised.append(incumbent)
        assert raised == found
        assert any(value > bounds[i] for i, (value, _) in greedy.items())
        assert all(value <= was for i, (value, was) in greedy.items() if bounds[i] <= was)


class TestLeafSearchWork:
    """What the LEAF search does on ROADMAP item 2's k = 40 probe core
    (271 vertices, optimum 209 in 681 nodes). Before the masked lists were
    kept across nodes, it built them at every node, made a full
    ``Dominators`` pass with interval arrays after every leaf decision and
    ran the greedy 341 times."""

    @staticmethod
    def _solve_counting(core):
        work = {"greedy": 0, "intervals": 0, "dominator_lists": [], "bound_lists": []}
        real_init, real_idom = Dominators.__init__, oracle.immediate_dominators
        real_bound = oracle._packing_bound

        def leafy(*args):
            work["greedy"] += 1
            return _leafy_branching(*args)

        def init(self, *args):
            work["intervals"] += 1
            real_init(self, *args)

        def idom(n, root, out_adj, in_adj):
            work["dominator_lists"].append((out_adj, in_adj))
            return real_idom(n, root, out_adj, in_adj)

        def bound(root, internal, out_adj, masked_in):
            work["bound_lists"].append(masked_in)
            return real_bound(root, internal, out_adj, masked_in)

        with mock.patch.object(oracle, "_leafy_branching", leafy), \
                mock.patch.object(Dominators, "__init__", init), \
                mock.patch.object(oracle, "immediate_dominators", idom), \
                mock.patch.object(oracle, "_packing_bound", bound):
            res = solve_branch_and_bound(core, None, SolveMode.LEAF)
        return res, work

    def test_probe_core(self):
        core = _probe_core(40, 591326475)
        assert (core.n, core.m) == (271, 359)
        res, work = self._solve_counting(core)
        assert (res.best_value, res.exact, res.nodes) == (209, True, 681)
        assert work["greedy"] <= 264
        assert work["intervals"] == 0
        passes = work["dominator_lists"]
        # the root reads the graph's own lists; every other node reads the
        # lists its own leaf decision built, or, on an internal branch, the
        # lists of the node that branched
        assert passes[0][0] is core.out_adj and passes[0][1] is core.in_adj
        built = {id(ins) for _, ins in passes}
        assert len(built) == len(passes)
        assert all(id(ins) in built for ins in work["bound_lists"])
        assert len(work["bound_lists"]) > len(passes)

    def test_node_ceilings_core(self):
        from sparse_outbranch.generators import gen_planar
        from sparse_outbranch.lob_reducer import reduce_to_fixpoint
        g = gen_planar(60, seed=33, both_prob=0.1, keep_prob=0.25)
        core = reduce_to_fixpoint(LobInstance(g, 5))[0].instance.graph
        res, work = self._solve_counting(core)
        assert (core.n, res.best_value, res.nodes) == (41, 31, 17)
        assert work["greedy"] <= 6  # 9 when it ran after every leaf decision
        assert work["intervals"] == 0


class TestPinnedDigest:
    """Values, exactness, node counts and witnesses of the exact solver,
    and the brute-force listings, on a seeded corpus: a change to how the
    searches stop or how the brute force rejects cycles must leave every
    one of them as it was."""

    def test_solver_and_brute_force_digest(self):
        rng = random.Random(2210)
        records = []
        for _ in range(256):
            d = random_connected(rng, rng.randint(1, 14), rng.uniform(0, 0.4),
                                 bidi=rng.choice((0.0, 0.5)))
            if rng.random() < 0.5:
                d = _relabelled(rng, d)
            for mode in SolveMode:
                for k in (None, 1, d.n // 2, d.n - 1, d.n):
                    res = solve_branch_and_bound(d, k, mode)
                    records.append([res.best_value, res.exact, res.nodes,
                                    sorted(res.witness.parent.items())])
            if d.n <= 7:
                records.append([sorted(t.parent.items())
                                for t in brute_force_out_branchings(d)])
        digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
        assert digest == "a01c63ef3b51bf5cfc73f10b6ee103fdfce2bceda83359eee86f4228c98ed9a9"
