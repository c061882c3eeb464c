import pytest

from sparse_outbranch.digraph import RootedDigraph, cut_structure, split_lonely_branching
from sparse_outbranch.generators import gen_planar
from sparse_outbranch.lob_analyzer import (
    StructureError,
    analyze,
    build_contracted,
    classify_masters_slaves,
    decompose_bipaths,
    isolated_vertices,
    outside_neighborhood,
    special_vertex_set,
    special_vertices,
)
from sparse_outbranch.lob_reducer import LobInstance, find_rule, reduce_to_fixpoint
from sparse_outbranch.oracle import SolveMode, solve_branch_and_bound
from sparse_outbranch.outcomes import ReducedOutcome

from conftest import random_connected


def parallel_instance(npaths, seg=1):
    arcs = {(0, 1), (0, 2), (1, 3), (2, 4)}
    nxt = 5
    for _ in range(npaths):
        chain = [3] + list(range(nxt, nxt + seg)) + [4]
        nxt += seg
        for a, b in zip(chain, chain[1:]):
            arcs.add((a, b))
            arcs.add((b, a))
    return LobInstance(RootedDigraph(nxt, 0, arcs), 1)


def pendant_chain_instance(chain_len=5, pendant_slots=(2,)):
    """Hub-to-hub bidirectional chain with pendant leaves at chosen
    internal chain offsets; pendants make size-2 bags."""
    arcs = {(0, 1), (0, 2), (1, 3), (2, 4)}
    chain = [3] + list(range(5, 5 + chain_len)) + [4]
    nxt = 5 + chain_len
    for a, b in zip(chain, chain[1:]):
        arcs.add((a, b))
        arcs.add((b, a))
    for i in pendant_slots:
        arcs.add((chain[i], nxt))
        nxt += 1
    return LobInstance(RootedDigraph(nxt, 0, arcs), 1)


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
        inst = pendant_chain_instance(3, (2,))
        dc = build_contracted(inst.graph)
        merged = [b for b in dc.bag_of if len(b.members) == 2]
        assert len(merged) == 1
        bag = merged[0]
        assert inst.graph.has_arc(bag.tail, bag.head)
        assert inst.graph.n == dc.graph.n + 1

    def test_branching_not_contracted(self):
        # root out-arcs are branching cut-edges in reduced graphs
        inst = parallel_instance(2)
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
        assert 4 in special_vertex_set(d)

    def test_incoming_simple_arc(self):
        d = RootedDigraph(3, 0, [(0, 1), (1, 2), (2, 1)])
        assert special_vertex_set(d) == {1}  # (0,1) has no reverse

    def test_bipath_internal_not_special(self):
        inst = parallel_instance(1)
        dc = build_contracted(inst.graph)
        x = 5  # the single internal vertex
        assert dc.origin[x] not in special_vertices(dc)


class TestIsolatedVertices:
    def test_mid_chain_pendant_isolated(self):
        inst = pendant_chain_instance(3, (2,))
        assert find_rule(inst) is None
        ana = analyze(inst)
        assert len(ana.isolated) == 1

    def test_size_one_bag_never_isolated(self):
        inst = parallel_instance(3)
        ana = analyze(inst)
        assert ana.isolated == set()

    def test_tail_arc_into_special_bag_blocks(self):
        # pendant right next to the special hub: its bag sees a special bag
        inst = pendant_chain_instance(3, (1,))
        assert find_rule(inst) is None
        ana = analyze(inst)
        assert len(ana.isolated) == 0
        assert any(len(b.members) == 2 for b in ana.contracted.bag_of)

    def test_reads_the_special_set_it_is_given(self):
        # the pendant's bag sends an arc into hub 3's bag, which is special
        # in the graph but not in an empty set
        dc = build_contracted(pendant_chain_instance(3, (1,)).graph)
        assert dc.bag_of[5].members == (5, 8)
        assert isolated_vertices(dc, special_vertices(dc)) == set()
        assert isolated_vertices(dc, set()) == {5}
        assert isolated_vertices(dc, {5}) == set()


class TestDecomposition:
    def test_whole_graph_seed_gives_no_paths(self):
        inst = parallel_instance(2)
        dc = build_contracted(inst.graph)
        dec = decompose_bipaths(dc, set(range(dc.graph.n)))
        assert dec.paths == []

    def test_missing_special_rejected(self):
        inst = parallel_instance(2)
        dc = build_contracted(inst.graph)
        with pytest.raises(ValueError):
            decompose_bipaths(dc, {dc.graph.root})

    def test_indegree_one_outside_seed_flags_engine_bug(self):
        # an unreduced shape smuggled in as a contracted graph: b has
        # in-degree 1 but is not special, which the decomposition lemma
        # rules out on genuinely reduced input
        from sparse_outbranch.lob_analyzer import Bag, ContractedGraph
        g = RootedDigraph(3, 0, [(0, 1), (1, 2), (2, 1)])
        dc = ContractedGraph(g, [Bag((v,), v, v) for v in range(3)],
                             [0, 1, 2], g)
        with pytest.raises(StructureError):
            decompose_bipaths(dc, {0, 1})

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
                assert u in seed and v in seed and u != v
                for w in p.internals:
                    off_path = set(dc.graph.out_adj[w]) - set(p.vertices)
                    assert off_path <= seed

    def test_caterpillar_chains_become_paths(self):
        inst = pendant_chain_instance(5, (2, 4))
        assert find_rule(inst) is None
        ana = analyze(inst)
        # the two isolated bags are easy, so the chain splits into three
        # hard bipaths with one internal vertex each
        assert len(ana.isolated) == 2
        assert len(ana.decomposition.paths) == 3
        assert all(len(p.internals) == 1 for p in ana.decomposition.paths)


class TestMastersSlaves:
    def test_three_parallel_one_slave(self):
        inst = parallel_instance(3)
        ana = analyze(inst)
        assert len(ana.masters) == 2
        assert len(ana.slaves) == 1

    def test_unique_path_no_slaves(self):
        inst = parallel_instance(1)
        ana = analyze(inst)
        assert len(ana.slaves) == 0

    def test_oracle_bound_on_slaves(self):
        for npaths in (3, 4, 5):
            inst = parallel_instance(npaths)
            ana = analyze(inst)
            ml = solve_branch_and_bound(inst.graph, None, SolveMode.LEAF).best_value
            assert ml >= len(ana.slaves)

    def test_groups_need_same_outside_set(self):
        # different outside neighborhoods split the group: no slaves
        inst = parallel_instance(3)
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
        inst = parallel_instance(2)
        ana = analyze(LobInstance(inst.graph, 50))
        assert ana.cert.decision == "undecided"

    def test_slave_acceptance(self):
        inst = parallel_instance(4)  # 2 slaves
        ana = analyze(LobInstance(inst.graph, 2))
        assert ana.cert.slave_count == 2
        assert ana.cert.decision == "yes"

    def test_standalone_certificate_and_report(self):
        inst = parallel_instance(4)
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
            assert ana.report["all_length_bounds_ok"]
            for rec in ana.report["paths"]:
                assert rec["hard_on_path"] <= 10 * rec["outside_size"] + 6

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
