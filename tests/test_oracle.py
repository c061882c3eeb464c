import pytest

from sparse_outbranch.digraph import RootedDigraph
from sparse_outbranch.lob_reducer import LobInstance, apply_rule_6, find_rule_6
from sparse_outbranch.digraph import cut_structure
from sparse_outbranch.oracle import (
    BudgetExceeded,
    EnumerationBudget,
    SolveMode,
    brute_force_out_branchings,
    check_equivalence,
    enumerate_out_branchings,
    max_internal_exact,
    maxleaf_exact,
    solve_branch_and_bound,
)

from conftest import random_connected


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
        d = RootedDigraph(4, 0, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(BudgetExceeded):
            list(enumerate_out_branchings(d, EnumerationBudget(max_n=3)))

    def test_max_count_budget(self):
        d = RootedDigraph(3, 0, [(0, 1), (0, 2), (1, 2), (2, 1)])
        with pytest.raises(BudgetExceeded):
            list(enumerate_out_branchings(d, EnumerationBudget(max_count=2)))

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
        assert maxleaf_exact(d).best_value == 3

    def test_path_maxleaf(self):
        d = RootedDigraph(4, 0, [(0, 1), (1, 2), (2, 3)])
        assert maxleaf_exact(d).best_value == 1

    def test_rule5_pattern(self):
        d = RootedDigraph(5, 0, [(0, 1), (0, 2), (1, 2), (2, 1), (1, 3), (2, 4)])
        assert maxleaf_exact(d).best_value == 2

    def test_path_internal(self):
        d = RootedDigraph(4, 0, [(0, 1), (1, 2), (2, 3)])
        assert max_internal_exact(d).best_value == 3

    def test_star_internal(self):
        d = RootedDigraph(4, 0, [(0, 1), (0, 2), (0, 3)])
        assert max_internal_exact(d).best_value == 1

    def test_internal_is_n_minus_minleaf(self, rng):
        for _ in range(60):
            d = random_connected(rng, rng.randint(1, 7), 0.35)
            trees = list(enumerate_out_branchings(d))
            minleaf = min(t.leaf_count() for t in trees)
            assert max_internal_exact(d).best_value == d.n - minleaf

    def test_single_vertex(self):
        d = RootedDigraph(1, 0, [])
        assert maxleaf_exact(d).best_value == 1
        assert max_internal_exact(d).best_value == 0


class TestEquivalence:
    def test_identity(self):
        d = RootedDigraph(3, 0, [(0, 1), (1, 2)])
        assert check_equivalence(d, d, 1, SolveMode.LEAF)

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
            for k in range(0, d.n + 1):
                assert check_equivalence(d, after, k, SolveMode.LEAF)
        assert seen >= 10

    def test_mutation_detected(self, rng):
        # a fake "rule" that deletes an arbitrary arc must break equivalence
        found = False
        for _ in range(1000):
            d = random_connected(rng, rng.randint(2, 7), 0.3)
            arcs = d.arcs()
            victim = arcs[rng.randrange(len(arcs))]
            mutated = d.with_arcs_removed([victim])
            from sparse_outbranch.digraph import is_connected
            if not is_connected(mutated):
                found = True  # answer flips from maxleaf>=1 to "no branching"
                break
            for k in range(0, d.n + 1):
                if not check_equivalence(d, mutated, k, SolveMode.LEAF):
                    found = True
                    break
            if found:
                break
        assert found


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
