import pytest

from sparse_outbranch.digraph import RootedDigraph, cut_structure, split_lonely_branching
from sparse_outbranch import lob_analyzer
from sparse_outbranch.generators import gen_planar
from sparse_outbranch.lob_analyzer import (
    Bag,
    ContractedGraph,
    StructureError,
    WeakBipath,
    analyze,
    build_contracted,
    classify_masters_slaves,
    decompose_bipaths,
    isolated_vertices,
    outside_neighborhood,
    special_vertices,
)
from sparse_outbranch.lob_reducer import LobInstance, find_rule, reduce_to_fixpoint
from sparse_outbranch.oracle import SolveMode, solve_branch_and_bound
from sparse_outbranch.outcomes import ReducedOutcome
from sparse_outbranch.verify import hub_chain_instance

from conftest import random_connected


def identity_contracted(g):
    """``g`` as its own contracted graph, every bag one vertex."""
    return ContractedGraph(g, [Bag((v,), v, v) for v in range(g.n)], list(range(g.n)), g)


def reduced_corpus(rng, count=40, max_core=12):
    corpus = []
    while len(corpus) < count:
        d = random_connected(rng, rng.randint(3, 11), 0.3, bidi=0.4)
        out, _ = reduce_to_fixpoint(LobInstance(d, 2))
        if isinstance(out, ReducedOutcome) and out.instance.graph.n <= max_core:
            corpus.append(out.instance)
    return corpus


class TestBuildContracted:
    def test_lonely_edge_merged(self):
        inst = hub_chain_instance(1, 3, (2,))
        dc = build_contracted(inst.graph)
        merged = [b for b in dc.bag_of if len(b.members) == 2]
        assert len(merged) == 1
        bag = merged[0]
        assert inst.graph.has_arc(bag.tail, bag.head)
        assert inst.graph.n == dc.graph.n + 1

    def test_branching_not_contracted(self):
        # root out-arcs are branching cut-edges in reduced graphs
        inst = hub_chain_instance(2)
        dc = build_contracted(inst.graph)
        assert dc.graph.n == inst.graph.n  # no lonely cut-edges anywhere

    def test_unreduced_rejected(self):
        d = RootedDigraph(3, 0, [(0, 1), (1, 2)])
        with pytest.raises(ValueError):
            build_contracted(d)

    def test_size_ratio_and_cut_edges(self, rng):
        for inst in reduced_corpus(rng, 25):
            dc = build_contracted(inst.graph, check=False)
            assert inst.graph.n <= 2 * dc.graph.n
            _, ce = cut_structure(inst.graph)
            _, branching = split_lonely_branching(ce)
            _, ce_dc = cut_structure(dc.graph)
            assert ce_dc == {(dc.origin[u], dc.origin[v]) for u, v in branching}


class TestSpecialVertices:
    def test_indegree_three(self):
        d = RootedDigraph(5, 0, [(0, 4), (0, 1), (1, 4), (1, 2), (2, 4), (2, 3), (3, 2), (4, 1)])
        assert 4 in special_vertices(identity_contracted(d))

    def test_incoming_simple_arc(self):
        d = RootedDigraph(3, 0, [(0, 1), (1, 2), (2, 1)])
        assert special_vertices(identity_contracted(d)) == {1}  # (0,1) has no reverse

    def test_bipath_internal_not_special(self):
        inst = hub_chain_instance(1)
        dc = build_contracted(inst.graph)
        x = 5  # the single internal vertex
        assert dc.origin[x] not in special_vertices(dc)


class TestIsolatedVertices:
    def test_mid_chain_pendant_isolated(self):
        inst = hub_chain_instance(1, 3, (2,))
        assert find_rule(inst) is None
        ana = analyze(inst)
        assert len(ana.isolated) == 1

    def test_size_one_bag_never_isolated(self):
        inst = hub_chain_instance(3)
        ana = analyze(inst)
        assert ana.isolated == set()

    def test_tail_arc_into_special_bag_blocks(self):
        # pendant right next to the special hub: its bag sees a special bag
        inst = hub_chain_instance(1, 3, (1,))
        assert find_rule(inst) is None
        ana = analyze(inst)
        assert len(ana.isolated) == 0
        assert any(len(b.members) == 2 for b in ana.contracted.bag_of)

    def test_reads_the_special_set_it_is_given(self):
        # the pendant's bag sends an arc into hub 3's bag, which is special
        # in the graph but not in an empty set
        dc = build_contracted(hub_chain_instance(1, 3, (1,)).graph)
        assert dc.bag_of[5].members == (5, 8)
        assert isolated_vertices(dc, special_vertices(dc)) == set()
        assert isolated_vertices(dc, set()) == {5}
        assert isolated_vertices(dc, {5}) == set()


class TestDecomposition:
    def test_whole_graph_seed_gives_no_paths(self):
        inst = hub_chain_instance(2)
        dc = build_contracted(inst.graph)
        dec = decompose_bipaths(dc, set(range(dc.graph.n)))
        assert dec.paths == []

    def test_missing_special_rejected(self):
        inst = hub_chain_instance(2)
        dc = build_contracted(inst.graph)
        with pytest.raises(ValueError):
            decompose_bipaths(dc, {dc.graph.root})

    def test_missed_special_named_at_first_failing_vertex(self):
        # 1 (in-degree one) fails the weak-bipath test before 2, the
        # special vertex the seed misses; the missed seed is what is named
        g = RootedDigraph(3, 0, [(0, 2), (2, 1), (1, 2)])
        with pytest.raises(ValueError,
                           match=r"^seed set misses root/special vertices: \[2\]$"):
            decompose_bipaths(identity_contracted(g), {0})

    def test_indegree_one_outside_seed_flags_engine_bug(self):
        # an unreduced shape smuggled in as a contracted graph: b has
        # in-degree 1 but is not special, which the decomposition lemma
        # rules out on genuinely reduced input
        g = RootedDigraph(3, 0, [(0, 1), (1, 2), (2, 1)])
        with pytest.raises(StructureError):
            decompose_bipaths(identity_contracted(g), {0, 1})

    def test_bidirectional_cycle_outside_seed_flags_engine_bug(self):
        # a bidirectional 4-cycle 1-2-3-4 beside an isolated root: every
        # cycle vertex has in-degree 2, but no walk reaches the seed
        cycle = [(1, 2), (2, 3), (3, 4), (4, 1)]
        g = RootedDigraph(5, 0, cycle + [(b, a) for a, b in cycle])
        with pytest.raises(StructureError, match="^bidirectional cycle outside the seed set$"):
            decompose_bipaths(identity_contracted(g), {0})

    def test_coinciding_extremities_flag_engine_bug(self):
        # a bidirectional triangle 1-2-3 fed by 0->1: 1 is special, and the
        # chain 2-3 leaves and re-enters the seed at 1
        triangle = [(1, 2), (2, 3), (3, 1)]
        g = RootedDigraph(4, 0, [(0, 1)] + triangle + [(b, a) for a, b in triangle])
        dc = identity_contracted(g)
        assert special_vertices(dc) == {1}
        with pytest.raises(StructureError,
                           match="^weak bipath with coinciding extremities at 1$"):
            decompose_bipaths(dc, {0, 1})

    def test_path_runs_from_smaller_extremity(self):
        # the walk from internal 3 reaches extremity 2 first (in_adj[3] is
        # [2, 4]), yet the path starts at the smaller extremity 1
        chain = [(2, 3), (3, 4), (4, 1)]
        g = RootedDigraph(5, 0, [(0, 1), (0, 2)] + chain + [(b, a) for a, b in chain])
        dec = decompose_bipaths(identity_contracted(g), {0, 1, 2})
        assert dec.paths == [WeakBipath((1, 4, 3, 2))]

    def test_partition_and_extremities(self, rng):
        for inst in reduced_corpus(rng, 25):
            ana = analyze(inst)
            dc = ana.contracted
            internals = [w for p in ana.decomposition.paths for w in p.internals]
            assert len(internals) == len(set(internals))
            seed = ana.decomposition.seed_set
            assert set(internals) == set(range(dc.graph.n)) - seed
            for p in ana.decomposition.paths:
                u, v = p.extremities
                assert u in seed and v in seed and u < v
                for w in p.internals:
                    off_path = set(dc.graph.out_adj[w]) - set(p.vertices)
                    assert off_path <= seed

    def test_caterpillar_chains_become_paths(self):
        inst = hub_chain_instance(1, 5, (2, 4))
        assert find_rule(inst) is None
        ana = analyze(inst)
        # the two isolated bags are easy, so the chain splits into three
        # hard bipaths with one internal vertex each
        assert len(ana.isolated) == 2
        assert len(ana.decomposition.paths) == 3
        assert all(len(p.internals) == 1 for p in ana.decomposition.paths)


class TestMastersSlaves:
    def test_three_parallel_one_slave(self):
        inst = hub_chain_instance(3)
        ana = analyze(inst)
        assert len(ana.masters) == 2
        assert len(ana.slaves) == 1

    def test_unique_path_no_slaves(self):
        inst = hub_chain_instance(1)
        ana = analyze(inst)
        assert len(ana.slaves) == 0

    def test_oracle_bound_on_slaves(self):
        for npaths in (3, 4, 5):
            inst = hub_chain_instance(npaths)
            ana = analyze(inst)
            ml = solve_branch_and_bound(inst.graph, None, SolveMode.LEAF).best_value
            assert ml >= len(ana.slaves)

    def test_groups_need_same_outside_set(self):
        # different outside neighborhoods split the group: no slaves
        inst = hub_chain_instance(3)
        d = inst.graph
        arcs = set(d.arcs())
        arcs.add((5, 0) if False else (5, 1))  # one path's internal also sees hub gateway
        d2 = RootedDigraph(d.n, 0, arcs)
        inst2 = LobInstance(d2, 1)
        if find_rule(inst2) is None:
            ana = analyze(inst2)
            groups = {}
            for p in ana.decomposition.paths:
                key = (frozenset(p.extremities), outside_neighborhood(ana.contracted, p))
                groups.setdefault(key, []).append(p)
            assert len(groups) == 2
            assert len(ana.slaves) == 0


class TestCertificate:
    def test_sixty_specials_accept_k1(self):
        g = gen_planar(150, seed=3, both_prob=0.15, keep_prob=0.95)
        out, _ = reduce_to_fixpoint(LobInstance(g, 1))
        assert isinstance(out, ReducedOutcome)
        ana = analyze(out.instance)
        assert ana.cert.special_count >= 60
        assert ana.cert.decision == "yes"

    def test_large_k_undecided(self):
        inst = hub_chain_instance(2)
        ana = analyze(LobInstance(inst.graph, 50))
        assert ana.cert.decision == "undecided"

    def test_slave_acceptance(self):
        inst = hub_chain_instance(4)  # 2 slaves
        ana = analyze(LobInstance(inst.graph, 2))
        assert ana.cert.slave_count == 2
        assert ana.cert.decision == "yes"

    def test_standalone_certificate_and_report(self):
        inst = hub_chain_instance(4)
        ana = analyze(inst)
        assert ana.cert.slave_count == 2
        assert ana.report["hard_count"] == 4
        assert ana.report["all_length_bounds_ok"]

    def test_certificate_soundness(self, rng):
        for inst in reduced_corpus(rng, 20):
            for k in (1, 2, 3):
                ana = analyze(LobInstance(inst.graph, k))
                if ana.cert.accepted:
                    ml = solve_branch_and_bound(
                        inst.graph, None, SolveMode.LEAF).best_value
                    assert ml >= k


class TestSizeReport:
    def test_length_bound_on_paths(self, rng):
        for inst in reduced_corpus(rng, 20):
            ana = analyze(inst)
            dc = ana.contracted
            assert ana.report["all_length_bounds_ok"]
            for p in ana.decomposition.paths:
                assert len(p.internals) <= 10 * len(outside_neighborhood(dc, p)) + 6

    def test_no_hard_vertices_empty_histogram(self):
        # a fully easy contracted graph: single-vertex instance
        d = RootedDigraph(1, 0, [])
        ana = analyze(LobInstance(d, 1))
        assert ana.report["outside_size_histogram"] == {}
        assert ana.report["hard_count"] == 0

    def test_linked_bags_single_arcs(self, rng):
        for inst in reduced_corpus(rng, 20):
            ana = analyze(inst)
            dc = ana.contracted
            g = dc.graph
            d = inst.graph
            for a in range(g.n):
                for b in g.out_adj[a]:
                    A, B = dc.bag_of[a], dc.bag_of[b]
                    ab = [(x, y) for x in A.members for y in B.members
                          if d.has_arc(x, y)]
                    assert all(y == B.tail for _, y in ab)
                    if g.has_arc(b, a):
                        assert len(ab) == 1


class TestEachFactOnce:
    def _counted(self, monkeypatch, name):
        """Calls of ``lob_analyzer.<name>`` made from here on, by argument
        lists."""
        calls = []
        real = getattr(lob_analyzer, name)
        monkeypatch.setattr(lob_analyzer, name,
                            lambda *args: calls.append(args) or real(*args))
        return calls

    def test_special_vertices_computed_once(self, monkeypatch):
        calls = self._counted(monkeypatch, "special_vertices")
        analyze(hub_chain_instance(3))
        assert len(calls) == 1

    def test_outside_neighborhood_once_per_path(self, monkeypatch):
        calls = self._counted(monkeypatch, "outside_neighborhood")
        ana = analyze(hub_chain_instance(3))
        assert len(ana.decomposition.paths) == 3
        assert sorted(p for _, p in calls) == ana.decomposition.paths

    def test_report_holds_no_per_path_records(self):
        assert "paths" not in analyze(hub_chain_instance(3)).report
