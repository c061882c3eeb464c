import hashlib
import json
import random
import time

import pytest

from sparse_outbranch.digraph import (
    OutBranching,
    RootedDigraph,
    bfs_out_branching,
    cut_structure,
)
from sparse_outbranch.lob_reducer import LobInstance, apply_rule_6, find_rule_6
from sparse_outbranch.oracle import (
    ENUMERATION_MAX_N,
    BudgetExceeded,
    SolveMode,
    SolveResult,
    _Grower,
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
