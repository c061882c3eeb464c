import hashlib
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparse_outbranch import lob_reducer
from sparse_outbranch.digraph import (
    Dominators,
    RootedDigraph,
    contract_arc,
    cut_structure,
    dominators,
    heads_by_tail,
    is_connected,
    reachable,
)
from sparse_outbranch.generators import gen_bipath_chain, gen_planar
from sparse_outbranch.lob_reducer import (
    Contract,
    DeleteArc,
    LobInstance,
    ResolveNo,
    RuleApplication,
    _Reduction,
    apply,
    apply_rule_2,
    apply_rule_3,
    apply_rule_4,
    apply_rule_5,
    apply_rule_6,
    find_rule,
    find_rule_1,
    find_rule_2,
    find_rule_3,
    find_rule_4,
    find_rule_5,
    find_rule_6,
    reduce_to_fixpoint,
    replay_steps,
    replay_trace,
)
from sparse_outbranch.oracle import SolveMode, solve_branch_and_bound
from sparse_outbranch.outcomes import NoOutcome, ReducedOutcome, ReductionTrace

from conftest import euler_bound_holds, random_connected, small_digraphs
from test_digraph import _cut_structure_bfs, _relabelled


def maxleaf(d):
    res = solve_branch_and_bound(d, None, SolveMode.LEAF)
    assert res.exact
    return res.best_value


def _find_rule_1_bfs(d):
    """Reference rule-1 finder: one reachability run from the root."""
    seen = reachable(d, d.root)
    if len(seen) == d.n:
        return None
    bad = min(v for v in range(d.n) if v not in seen)
    return RuleApplication(1, (bad,), ResolveNo(f"vertex {bad} unreachable from root"))


def _find_rule_4_bfs(d):
    """Reference rule-4 finder: one reachability run per x, any in-degree."""
    for x in range(d.n):
        ins = set(d.in_adj[x])
        if not ins:
            continue
        if d.root in ins:
            for y in d.in_adj[x]:
                if y != d.root:
                    return RuleApplication(4, (x, y), DeleteArc((y, x)))
            continue
        alive = reachable(d, d.root, removed_vertices=ins)
        for y in d.in_adj[x]:
            if not any(w in alive for w in d.in_adj[y]):
                return RuleApplication(4, (x, y), DeleteArc((y, x)))
    return None


def _find_rule_5_pairs(d, cut_e):
    """Reference rule-5 finder: every ordered pair of cut-edge tails."""
    heads = heads_by_tail(cut_e)
    tails = sorted(heads)
    for x1 in tails:
        for x2 in tails:
            if x1 != x2 and d.has_arc(x1, x2) and d.has_arc(x2, x1):
                locus = (x1, min(heads[x1]), x2, min(heads[x2]))
                return RuleApplication(5, locus, Contract((x1, x2)))
    return None


def _reduce_rebuilding(inst):
    """The rebuild-per-step driver that ``reduce_to_fixpoint`` replaced,
    kept as its reference: ``find_rule`` and ``apply`` on an immutable
    graph rebuilt after every step."""
    trace = ReductionTrace()
    current = inst
    for _ in range(inst.graph.n + inst.graph.m + 1):
        app = lob_reducer.find_rule(current)
        if app is None:
            return ReducedOutcome(current), trace
        result = apply(current, app)
        trace.append(app)
        if not isinstance(result, LobInstance):
            return result, trace
        current = result
    raise RuntimeError("reduction did not reach a fixpoint within n+m steps")


def bipath_arcs(chain):
    arcs = set()
    for a, b in zip(chain, chain[1:]):
        arcs.add((a, b))
        arcs.add((b, a))
    return arcs


class TestFindRule:
    def test_unreachable_is_rule_1(self):
        inst = LobInstance(RootedDigraph(3, 0, [(0, 1)]), 1)
        app = find_rule(inst)
        assert app.rule_id == 1

    def test_rule_2_in_degree(self):
        inst = LobInstance(RootedDigraph(3, 0, [(0, 1), (1, 2)]), 1)
        app = find_rule(inst)
        assert app.rule_id == 2
        assert app.action.arc == (0, 1)

    def test_fully_reduced_none(self):
        # hubs with disjoint root access joined by one bidirectional bridge
        d = RootedDigraph(6, 0, [(0, 1), (0, 2), (1, 3), (2, 4),
                                 (3, 5), (5, 3), (4, 5), (5, 4)])
        inst = LobInstance(d, 1)
        app = find_rule(inst)
        assert app is None
        # exhaustive guard evaluation agrees
        assert find_rule_3(d) is None
        assert find_rule_4(d) is None
        _, ce = cut_structure(d)
        assert find_rule_5(d, ce) is None
        assert find_rule_6(d, ce) is None


class TestRule1:
    def test_isolated_no(self):
        out, trace = reduce_to_fixpoint(LobInstance(RootedDigraph(3, 0, [(0, 1)]), 1))
        assert isinstance(out, NoOutcome)
        assert trace.serialize() == "RULE 1 LOCUS 2 ACTION no\n"

    def test_unreachable_feeder_no(self):
        d = RootedDigraph(3, 0, [(0, 1), (2, 1)])
        app = find_rule_1(d)
        assert app == RuleApplication(1, (2,), ResolveNo("vertex 2 unreachable from root"))
        assert isinstance(apply(LobInstance(d, 5), app), NoOutcome)

    def test_connected_rejected(self):
        assert find_rule_1(RootedDigraph(2, 0, [(0, 1)])) is None


class TestRule2:
    def test_in_degree_contract(self):
        inst = LobInstance(RootedDigraph(3, 0, [(0, 1), (1, 2)]), 1)
        assert apply_rule_2(inst, 1).graph == RootedDigraph(2, 0, [(0, 1)])

    def test_out_degree_contract(self):
        d = RootedDigraph(5, 0, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)])
        nxt = apply_rule_2(LobInstance(d, 1), 3)
        assert nxt.graph.n == 4

    def test_guard_rejected(self):
        d = RootedDigraph(3, 0, [(0, 1), (0, 2), (1, 2)])
        with pytest.raises(ValueError):
            apply_rule_2(LobInstance(d, 1), 2)

    def test_maxleaf_preserved(self, rng):
        checked = 0
        for _ in range(150):
            d = random_connected(rng, rng.randint(2, 8), 0.25)
            inst = LobInstance(d, 1)
            app = find_rule(inst)
            if app is None or app.rule_id != 2:
                continue
            before = maxleaf(d)
            nxt = apply(inst, app)
            assert maxleaf(nxt.graph) == before
            checked += 1
        assert checked >= 20


class TestRule3:
    def test_canonical_match(self):
        arcs = {(0, 1)} | bipath_arcs([1, 2, 3, 4, 5])
        d = RootedDigraph(6, 0, arcs)
        assert find_rule_3(d) == RuleApplication(3, (1, 2, 3, 4, 5), Contract((2, 3)))
        nxt = apply_rule_3(LobInstance(d, 1), (1, 2, 3, 4, 5))
        assert nxt.graph.n == 5

    def test_short_bipath_no_match(self):
        arcs = {(0, 1)} | bipath_arcs([1, 2, 3, 4])
        assert find_rule_3(RootedDigraph(5, 0, arcs)) is None

    def test_guard_rejected(self):
        arcs = {(0, 1)} | bipath_arcs([1, 2, 3, 4])
        with pytest.raises(ValueError):
            apply_rule_3(LobInstance(RootedDigraph(5, 0, arcs), 1), (0, 1, 2, 3, 4))

    def test_maxleaf_preserved_on_chain(self):
        g = gen_bipath_chain(12)
        app = find_rule_3(g)
        assert app is not None
        before = maxleaf(g)
        nxt = apply_rule_3(LobInstance(g, 1), app.locus)
        assert maxleaf(nxt.graph) == before


class TestRule4:
    def test_paper_pattern(self):
        # in-neighbors z and y of x, removing z cuts y: drop (y, x)
        d = RootedDigraph(4, 0, [(0, 1), (1, 2), (1, 3), (2, 3)])
        assert find_rule_4(d) == RuleApplication(4, (3, 2), DeleteArc((2, 3)))
        nxt = apply_rule_4(LobInstance(d, 1), (3, 2))
        assert not nxt.graph.has_arc(2, 3)

    def test_root_remark(self):
        d = RootedDigraph(3, 0, [(0, 1), (2, 1), (0, 2)])
        assert find_rule_4(d).locus == (1, 2)

    def test_guard_rejected(self):
        d = RootedDigraph(3, 0, [(0, 1), (0, 2), (1, 2)])
        with pytest.raises(ValueError):
            # y is the root itself: it can never be disconnected
            apply_rule_4(LobInstance(d, 1), (2, 0))

    def test_only_the_finders_choice_accepted(self):
        # both 1 and 2 satisfy rule 4 at x = 3 (the root feeds 3), but the
        # finder picks the first in-neighbor, and only that locus replays
        d = RootedDigraph(4, 0, [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)])
        assert find_rule_4(d).locus == (3, 1)
        assert not apply_rule_4(LobInstance(d, 1), (3, 1)).graph.has_arc(1, 3)
        with pytest.raises(ValueError):
            apply_rule_4(LobInstance(d, 1), (3, 2))

    def test_maxleaf_preserved(self, rng):
        checked = 0
        for _ in range(200):
            d = random_connected(rng, rng.randint(3, 8), 0.3, bidi=0.2)
            app = find_rule_4(d)
            if app is None:
                continue
            before = maxleaf(d)
            nxt = apply_rule_4(LobInstance(d, 1), app.locus)
            assert maxleaf(nxt.graph) == before
            checked += 1
        assert checked >= 40

    def test_guard_matches_literal_definition(self, rng):
        # at every x the finder's y must be the smallest y for which
        # literally removing N^-(x) - {y} cuts y off from the root
        for _ in range(150):
            d = random_connected(rng, rng.randint(2, 9), 0.35, bidi=0.3)
            for x in range(d.n):
                literal = []
                for y in d.in_adj[x]:
                    blockers = set(d.in_adj[x]) - {y}
                    if d.root in blockers:
                        literal.append(y)
                    elif y != d.root and y not in reachable(
                            d, d.root, removed_vertices=blockers):
                        literal.append(y)
                app = find_rule_4(d, [x])
                if not literal:
                    assert app is None, (d.arcs(), x)
                else:
                    y = min(literal)
                    assert app == RuleApplication(4, (x, y), DeleteArc((y, x))), (d.arcs(), x)


class TestRule5:
    def build(self):
        return RootedDigraph(7, 0, [(0, 1), (0, 2), (1, 3), (2, 4),
                                    (3, 4), (4, 3), (3, 5), (4, 6)])

    def test_reachable_through_priority(self):
        app = find_rule(LobInstance(self.build(), 1))
        assert app.rule_id == 5
        assert app.action.arc == (3, 4)

    def test_spec_example_maxleaf_two(self):
        d = RootedDigraph(5, 0, [(0, 1), (0, 2), (1, 2), (2, 1), (1, 3), (2, 4)])
        _, ce = cut_structure(d)
        app = find_rule_5(d, ce)
        assert app == RuleApplication(5, (1, 3, 2, 4), Contract((1, 2)))
        assert maxleaf(d) == 2
        nxt = apply_rule_5(LobInstance(d, 2), ((1, 3), (2, 4)))
        assert maxleaf(nxt.graph) == 2

    def test_no_match_without_linked_tails(self):
        d = RootedDigraph(4, 0, [(0, 1), (1, 2), (1, 3)])
        _, ce = cut_structure(d)
        assert find_rule_5(d, ce) is None

    def test_maxleaf_preserved_random(self, rng):
        checked = 0
        for _ in range(400):
            d = random_connected(rng, rng.randint(3, 8), 0.25, bidi=0.5)
            _, ce = cut_structure(d)
            app = find_rule_5(d, ce)
            if app is None:
                continue
            before = maxleaf(d)
            x1, y1, x2, y2 = app.locus
            nxt = apply_rule_5(LobInstance(d, 1), ((x1, y1), (x2, y2)))
            assert maxleaf(nxt.graph) == before
            checked += 1
        assert checked >= 15

    def test_matches_pair_loop(self, monkeypatch):
        # every rule-5 question reduce_to_fixpoint asks, on the pinned
        # corpus and on planar inputs, gets the pair loop's answer
        asked, fired = 0, 0

        def both(d, cut_e):
            nonlocal asked, fired
            app = find_rule_5(d, cut_e)
            assert app == _find_rule_5_pairs(d, cut_e)
            asked += 1
            fired += app is not None
            return app

        monkeypatch.setattr(lob_reducer, "find_rule_5", both)
        planar = [gen_planar(n, seed=7, both_prob=0.1, keep_prob=0.25) for n in (1600, 3200)]
        for d in _pinned_corpus() + planar:
            reduce_to_fixpoint(LobInstance(d, 2))
        assert fired >= 50 and asked >= 2 * fired


class TestRule6:
    def test_delete_reverse(self):
        d = RootedDigraph(3, 0, [(0, 1), (1, 2), (2, 1)])
        _, ce = cut_structure(d)
        assert find_rule_6(d, ce) == RuleApplication(6, (1, 2), DeleteArc((2, 1)))
        nxt = apply_rule_6(LobInstance(d, 1), (1, 2))
        assert nxt.graph.arcs() == [(0, 1), (1, 2)]

    def test_no_match(self):
        d = RootedDigraph(3, 0, [(0, 1), (1, 2)])
        _, ce = cut_structure(d)
        assert find_rule_6(d, ce) is None

    def test_maxleaf_preserved_random(self, rng):
        checked = 0
        for _ in range(400):
            d = random_connected(rng, rng.randint(3, 8), 0.3, bidi=0.5)
            _, ce = cut_structure(d)
            app = find_rule_6(d, ce)
            if app is None:
                continue
            before = maxleaf(d)
            nxt = apply_rule_6(LobInstance(d, 1), app.locus)
            assert maxleaf(nxt.graph) == before
            checked += 1
        assert checked >= 30

    def test_rule_4_preempts_rule_6(self, rng):
        # the lemma that keeps rule 6 out of the driver: wherever rule 6
        # matches (u, v), rule 4 fires at x = u
        matched = 0
        for _ in range(300):
            d = random_connected(rng, rng.randint(3, 7), 0.3, bidi=0.5)
            _, ce = cut_structure(d)
            app = find_rule_6(d, ce)
            if app is None:
                continue
            u, _ = app.locus
            assert find_rule_4(d, [u]) is not None
            matched += 1
        assert matched >= 50


class TestDriver:
    def test_path_reduces_and_replays(self):
        d = RootedDigraph(4, 0, [(0, 1), (1, 2), (2, 3)])
        inst = LobInstance(d, 1)
        out, trace = reduce_to_fixpoint(inst)
        assert isinstance(out, ReducedOutcome)
        assert out.instance.graph.n <= 2
        assert out.instance.k == 1
        replayed = replay_trace(inst, trace)
        assert replayed.graph == out.instance.graph

    def test_unreachable_no(self):
        out, trace = reduce_to_fixpoint(LobInstance(RootedDigraph(3, 0, [(0, 1)]), 1))
        assert isinstance(out, NoOutcome)
        assert len(trace) == 1

    def test_already_reduced_empty_trace(self):
        d = RootedDigraph(6, 0, [(0, 1), (0, 2), (1, 3), (2, 4),
                                 (3, 5), (5, 3), (4, 5), (5, 4)])
        out, trace = reduce_to_fixpoint(LobInstance(d, 1))
        assert isinstance(out, ReducedOutcome)
        assert len(trace) == 0
        assert out.instance.graph == d

    def test_trace_line_format(self):
        d = RootedDigraph(4, 0, [(0, 1), (1, 2), (2, 3)])
        _, trace = reduce_to_fixpoint(LobInstance(d, 1))
        pattern = re.compile(
            r"^RULE [1-6] LOCUS( \d+)+ ACTION (contract|delete) \d+ \d+$|"
            r"^RULE 1 LOCUS \d+ ACTION no$")
        for line in trace.serialize().splitlines():
            assert pattern.match(line), line

    def test_each_step_shrinks(self, rng):
        for _ in range(60):
            d = random_connected(rng, rng.randint(2, 9), 0.3, bidi=0.4)
            inst = LobInstance(d, 2)
            size = d.n + d.m
            while True:
                app = find_rule(inst)
                if app is None or app.rule_id == 1:
                    break
                inst = apply(inst, app)
                new_size = inst.graph.n + inst.graph.m
                assert new_size < size
                assert not inst.graph.in_adj[inst.graph.root]
                assert inst.k == 2
                size = new_size

    def test_forged_trace_rejected(self):
        d = RootedDigraph(4, 0, [(0, 1), (0, 2), (1, 3), (2, 3)])
        forged = ReductionTrace([RuleApplication(2, (1,), Contract((0, 1)))])
        with pytest.raises(ValueError):
            replay_trace(LobInstance(d, 1), forged)  # vertex 1 is no cut-vertex

    def test_wrong_action_rejected(self):
        # the locus is genuine (1 is a cut-vertex of in-degree one) but
        # the recorded action contracts the wrong arc
        d = RootedDigraph(3, 0, [(0, 1), (1, 2)])
        forged = ReductionTrace([RuleApplication(2, (1,), Contract((1, 2)))])
        with pytest.raises(ValueError):
            replay_trace(LobInstance(d, 1), forged)

    def test_locus_on_pre_contraction_ids_rejected(self):
        # the second step names vertex 2 on the ids before the first
        # contraction; that contraction renumbered it to 1, where it re-matches
        inst = LobInstance(RootedDigraph(4, 0, [(0, 1), (1, 2), (2, 3)]), 1)
        first = RuleApplication(2, (1,), Contract((0, 1)))
        genuine = ReductionTrace([first, RuleApplication(2, (1,), Contract((0, 1)))])
        assert reduce_to_fixpoint(inst)[1] == genuine
        replay_trace(inst, genuine)
        forged = ReductionTrace([first, RuleApplication(2, (2,), Contract((1, 2)))])
        with pytest.raises(ValueError, match="re-match"):
            replay_trace(inst, forged)

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(small_digraphs(max_n=8), small_digraphs(max_n=8, connected=False)),
           st.booleans())
    def test_fixpoint_is_idempotent_and_replays(self, d, relabel):
        if relabel:
            d = _relabelled(random.Random(d.n + d.m), d)
        inst = LobInstance(d, 2)
        out, trace = reduce_to_fixpoint(inst)
        replayed = replay_trace(inst, trace)
        if isinstance(out, NoOutcome):
            assert replayed == out
            return
        again, again_trace = reduce_to_fixpoint(out.instance)
        assert len(again_trace) == 0 and again.instance == out.instance
        assert replayed == out.instance

    @pytest.mark.parametrize("app", [
        RuleApplication(2, (1,), Contract((0, 1))),
        RuleApplication(5, (1, 3, 2, 3), Contract((1, 2))),
        RuleApplication(6, (1, 2), DeleteArc((2, 1))),
    ], ids=["rule2", "rule5", "rule6"])
    def test_forged_trace_rejected_with_cache(self, app):
        # 1 and 2 are joined both ways and both feed 3: the graph has no
        # cut-vertex and no cut-edge, so none of these loci is genuine
        d = RootedDigraph(4, 0, [(0, 1), (0, 2), (1, 2), (2, 1), (1, 3), (2, 3)])
        inst = LobInstance(d, 1)
        assert find_rule(inst) is not None  # fills the dominator cache
        assert cut_structure(d) == (set(), set())
        with pytest.raises(ValueError):
            replay_trace(inst, ReductionTrace([app]))

    def test_replay_holds_one_instance(self):
        # the 600-vertex chain reduces in hundreds of steps; holding every
        # step's instance peaks near 37 MB
        inst = LobInstance(gen_bipath_chain(600), 3)
        out, trace = reduce_to_fixpoint(inst)
        tracemalloc.start()
        try:
            replayed = replay_trace(inst, trace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert replayed == out.instance
        assert peak < 5 * 2**20

    def test_replay_random(self, rng):
        for _ in range(40):
            d = random_connected(rng, rng.randint(2, 9), 0.3, bidi=0.4)
            inst = LobInstance(d, 3)
            out, trace = reduce_to_fixpoint(inst)
            replayed = replay_trace(inst, trace)
            if isinstance(out, ReducedOutcome):
                assert replayed.graph == out.instance.graph
            else:
                assert isinstance(replayed, NoOutcome)

    def test_minor_closure_witness_on_planar(self, rng):
        for seed in range(8):
            g = gen_planar(40, seed=seed, both_prob=0.4, keep_prob=0.5)
            inst = LobInstance(g, 3)
            while True:
                app = find_rule(inst)
                if app is None or app.rule_id == 1:
                    break
                inst = apply(inst, app)
                assert euler_bound_holds(inst.graph)

    def test_bipath_chain_uses_rule_3(self):
        out, trace = reduce_to_fixpoint(LobInstance(gen_bipath_chain(20), 2))
        rules = [s.rule_id for s in trace]
        assert 3 in rules


class TestReferenceEquivalence:
    """Traces under the dominator-tree connectivity equal those under the
    BFS reference for the cut structure and rule 4."""

    def corpus(self):
        rng = random.Random(4242)
        graphs = []
        for _ in range(200):
            d = random_connected(rng, rng.randint(2, 25),
                                 rng.choice([0.03, 0.08, 0.2]), bidi=rng.random())
            graphs.append(_relabelled(rng, d))
        graphs.append(gen_planar(100, seed=3, both_prob=0.1, keep_prob=0.25))
        return graphs

    def test_traces_byte_identical(self, monkeypatch):
        graphs = self.corpus()
        fast = [reduce_to_fixpoint(LobInstance(d, 3))[1].serialize() for d in graphs]
        monkeypatch.setattr(lob_reducer, "cut_structure", _cut_structure_bfs)
        monkeypatch.setattr(lob_reducer, "find_rule_4", _find_rule_4_bfs)
        slow = [_reduce_rebuilding(LobInstance(d, 3))[1].serialize() for d in graphs]
        assert fast == slow
        assert sum(1 for t in fast if "RULE 4" in t) >= 20

    def test_rule_1_traces_byte_identical(self, monkeypatch):
        # rule 1 reads the dominator tree; the reference runs its own BFS.
        # Graphs with and without a spanning overlay, so many end in NO.
        rng = random.Random(1507)
        graphs = []
        for _ in range(1500):
            n = rng.randint(1, 20)
            arcs = set()
            if rng.random() < 0.6:
                arcs.update((rng.randrange(v), v) for v in range(1, n))
            for _ in range(rng.randint(0, 3 * n)):
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v and v != 0:
                    arcs.add((u, v))
            graphs.append(_relabelled(rng, RootedDigraph(n, 0, arcs)))
        fast = [reduce_to_fixpoint(LobInstance(d, 2))[1].serialize() for d in graphs]
        monkeypatch.setattr(lob_reducer, "find_rule_1", _find_rule_1_bfs)
        slow = [_reduce_rebuilding(LobInstance(d, 2))[1].serialize() for d in graphs]
        assert fast == slow
        assert sum(1 for t in fast if "RULE 1" in t) >= 300


def _pinned_corpus():
    """1500 seeded rooted digraphs, 1 to 40 vertices, relabelled so that
    the root is anywhere. Each is a random tree grown mostly as a path,
    with most tree arcs also reversed (long proper bipaths, so rule 3 fires,
    and tails joined both ways, so rule 5 does), a few vertices left
    unreached (rule 1), plus 0 to n random arcs."""
    rng = random.Random(20261018)
    graphs = []
    for _ in range(1500):
        n = rng.randint(1, 40)
        arcs = set()
        for v in range(1, n):
            if rng.random() < 0.97:
                p = v - 1 if rng.random() < 0.7 else rng.randrange(v)
                arcs.add((p, v))
                if rng.random() < 0.6:
                    arcs.add((v, p))
        for _ in range(int(rng.choice([0.0, 0.0, 0.1, 0.4, 1.0]) * n)):
            arcs.add((rng.randrange(n), rng.randrange(n)))
        perm = list(range(n))
        rng.shuffle(perm)
        graphs.append(RootedDigraph(n, perm[0], {(perm[u], perm[v]) for u, v in arcs
                                                 if u != v and v != 0}))
    return graphs


def _on_ids(g, app):
    """A rule application on the labels of ``g``, on current ids."""
    if app is None:
        return None
    return RuleApplication(app.rule_id, tuple(map(g.rank, app.locus)),
                           type(app.action)(tuple(map(g.rank, app.action.arc))))


def _assert_tree_is_fresh(g, vertices=None):
    """The dominator tree ``g`` carries equals a fresh pass over it; its
    vertices are its labels unless given."""
    vertices = g.labels if vertices is None else vertices
    carried = dominators(g)
    fresh = Dominators(g.n, g.root, g.out_adj, g.in_adj)
    assert carried.reached == fresh.reached == len(vertices)
    assert carried.cut_vertices == fresh.cut_vertices
    assert carried.cut_edges(g.in_adj) == fresh.cut_edges(g.in_adj)
    for a in vertices:
        for b in vertices:
            assert carried.dominates(a, b) == fresh.dominates(a, b), (a, b)


def _rule_2_answers(g):
    """Each surviving label's rule-2 answer, None off the cut-vertices."""
    cut_v = dominators(g).cut_vertices
    return {w: find_rule_2(g, cut_v & {w}) for w in g.labels}


class TestIncrementalDriver:
    """``reduce_to_fixpoint`` reduces one graph in place and carries its
    dominator tree and the finders' answers across steps; the
    rebuild-per-step driver is the reference."""

    def test_pinned_trace_digest(self):
        # the SHA-256 of the corpus's traces, every step's vertex mapping
        # (None unless it contracts) and the reduced graphs, as the
        # rebuild-per-step driver produced them
        h = hashlib.sha256()
        for d in _pinned_corpus():
            inst = LobInstance(d, 2)
            out, trace = reduce_to_fixpoint(inst)
            h.update(trace.serialize().encode())
            for current, app, _ in replay_steps(inst, trace):
                mapping = (contract_arc(current.graph, app.action.arc)[1]
                           if isinstance(app.action, Contract) else None)
                h.update(repr(mapping).encode())
            if isinstance(out, ReducedOutcome):
                g = out.instance.graph
                h.update(repr((g.n, g.root, g.arcs())).encode())
            else:
                h.update(out.reason.encode())
        assert h.hexdigest() == (
            "7f86edf4add4dc0a2c39486f35f97f0f28126f17a2170419421b1b37ea853c0f")

    def test_matches_rebuilding_driver(self):
        graphs = _pinned_corpus() + [
            gen_planar(150, seed=s, both_prob=0.1, keep_prob=0.25) for s in range(3)]
        fired = {i: 0 for i in range(1, 7)}
        for d in graphs:
            inst = LobInstance(d, 2)
            out, trace = reduce_to_fixpoint(inst)
            ref, ref_trace = _reduce_rebuilding(inst)
            assert trace.serialize() == ref_trace.serialize()
            assert out == ref
            if isinstance(out, ReducedOutcome):
                assert out.instance.graph.arcs() == ref.instance.graph.arcs()
            for step in trace:
                fired[step.rule_id] += 1
        assert fired[1] >= 300 and fired[3] >= 50 and fired[5] >= 30

    def test_carried_state_matches_fresh_every_step(self):
        # after every step the carried tree is what a fresh pass computes,
        # the carried rule-3 matches refreshed at the re-asked middles are
        # a fresh find_rule_3 at every middle, and every cut-vertex whose
        # rule-2 answer the step changed is re-asked; at every step the
        # rule-4 answer from the heads not known to miss is find_rule_4's
        # on the whole graph; the reduced graph gets the carried tree
        fired = {i: 0 for i in range(2, 7)}
        for d in _pinned_corpus()[:600] + [gen_bipath_chain(30)]:
            inst = LobInstance(d, 2)
            if find_rule_1(d) is not None:
                continue
            red = _Reduction(d)
            g = red.g
            while True:
                ask4 = set(red.ask4)
                assert _on_ids(g, red.ask_rule_4()) == find_rule_4(inst.graph)
                red.ask4 = ask4
                app = red.find()
                assert _on_ids(g, app) == find_rule(inst)
                if app is None:
                    break
                fired[app.rule_id] += 1
                before = _rule_2_answers(g)
                inst = apply(inst, red.apply(app))
                assert g.snapshot() == inst.graph
                _assert_tree_is_fresh(g)
                after = _rule_2_answers(g)
                assert {w for w in dominators(g).cut_vertices
                        if after[w] != before[w]} <= red.ask2
                fresh = {u2: find_rule_3(g, (u2,)) for u2 in g.labels}
                kept = {u2: a for u2, a in red.rule_3.items() if u2 not in red.ask3}
                assert kept == {u2: a for u2, a in fresh.items()
                                if a is not None and u2 not in red.ask3}
            reduced = g.snapshot()
            assert reduced == inst.graph
            _assert_tree_is_fresh(reduced, range(reduced.n))
        assert fired[3] >= 20 and fired[5] >= 10

    def test_direct_rule_6_deletions_keep_the_tree(self, rng):
        # rule 4 preempts rule 6 in the driver, so fire rule 6 directly
        checked = 0
        for _ in range(400):
            d = random_connected(rng, rng.randint(3, 12), 0.15, bidi=0.6)
            app = find_rule_6(d, cut_structure(d)[1])
            if app is None:
                continue
            red = _Reduction(d)
            red.apply(app)
            assert red.g.snapshot() == d.with_arcs_removed([app.action.arc])
            _assert_tree_is_fresh(red.g)
            checked += 1
        assert checked >= 50

    # (n, arcs, contractions), rooted at 0: after the contractions some
    # middle's carried rule-3 match has moved to a larger locus, and the
    # heap entry of its old locus, now stale, sits below every live one
    STALE_RULE_3 = [
        (15, [(0, 11), (0, 12), (2, 3), (2, 4), (3, 2), (3, 9), (4, 2), (4, 6),
              (5, 9), (5, 14), (6, 4), (6, 13), (8, 12), (9, 3), (9, 5), (10, 11),
              (11, 7), (11, 10), (12, 6), (12, 8), (13, 5), (14, 1)],
         [(14, 1), (4, 2)]),
        (11, [(0, 7), (1, 2), (1, 8), (2, 1), (2, 5), (5, 2), (6, 8), (6, 10),
              (7, 9), (7, 10), (8, 1), (8, 6), (9, 3), (9, 7), (10, 4), (10, 6)],
         [(9, 7), (7, 10), (2, 1), (7, 4)]),
        (11, [(0, 2), (1, 3), (1, 8), (2, 7), (2, 10), (3, 1), (3, 6), (4, 9),
              (5, 2), (5, 8), (5, 10), (6, 3), (6, 9), (8, 1), (8, 5), (9, 4),
              (9, 6), (10, 5)],
         [(5, 10), (3, 6)]),
    ]

    @staticmethod
    def _bipath_rich(rng):
        """A random tree on 6-30 vertices rooted at 0, most arcs also
        reversed, plus n // 3 random arcs, the non-root ids shuffled."""
        n = rng.randint(6, 30)
        arcs = set()

        def add(u, v, both):
            arcs.add((u, v))
            if u != 0 and rng.random() < both:
                arcs.add((v, u))

        for v in range(1, n):
            add(rng.randrange(v), v, 0.8)
        for _ in range(n // 3):
            u, v = rng.randrange(n), rng.randrange(1, n)
            if u != v:
                add(u, v, 0.7)
        perm = [0, *rng.sample(range(1, n), n - 1)]
        return RootedDigraph(n, 0, {(perm[u], perm[v]) for u, v in arcs})

    @staticmethod
    def _assert_find_fresh_under(d, next_arc):
        """Contract the arcs ``next_arc(g)`` names until it names None, each
        tagged as a rule-5 step (whose tree is recomputed; the re-asks do
        not depend on the rule). Before every step and after the last, the
        carried answer is ``find_rule``'s on a fresh graph."""
        red = _Reduction(d)
        g = red.g
        while True:
            assert _on_ids(g, red.find()) == find_rule(LobInstance(g.snapshot(), 2))
            arc = next_arc(g)
            if arc is None:
                return
            red.apply(RuleApplication(5, (*arc, *arc), Contract(arc)))

    def test_stale_rule_3_entries_are_skipped(self):
        # each pinned graph fails when a heap entry whose middle still has
        # a match is trusted without comparing its locus
        for n, arcs, contractions in self.STALE_RULE_3:
            self._assert_find_fresh_under(
                RootedDigraph(n, 0, arcs),
                lambda g, steps=iter(contractions): next(steps, None))

    def test_random_contractions_keep_find_fresh(self):
        rng = random.Random(0)

        def random_arc(g):
            arcs = sorted(a for a in g.arcs() if g.root not in a)
            return rng.choice(arcs) if arcs else None

        for _ in range(200):
            self._assert_find_fresh_under(self._bipath_rich(rng), random_arc)

    def test_work_guard_on_planar_400(self, monkeypatch):
        # deterministic work: the rebuild-per-step driver makes 258
        # dominator passes and 1185 rule-4 reachability searches here; one
        # pass serves rule 1 and the carried tree
        passes = searches = 0
        init = Dominators.__init__

        def counting_init(self, *args):
            nonlocal passes
            passes += 1
            init(self, *args)

        def counting_reachable(*args, **kwargs):
            nonlocal searches
            searches += 1
            return reachable(*args, **kwargs)

        monkeypatch.setattr(Dominators, "__init__", counting_init)
        monkeypatch.setattr(lob_reducer, "reachable", counting_reachable)
        g = gen_planar(400, seed=7, both_prob=0.1, keep_prob=0.25)
        _, trace = reduce_to_fixpoint(LobInstance(g, 3))
        rule_5 = sum(1 for s in trace if s.rule_id == 5)
        assert passes <= 1 + rule_5
        assert searches <= 100

    def test_work_guard_on_bipath_chain_2000(self, monkeypatch):
        # deterministic work: taking the least carried rule-3 match by a
        # scan of them all read 1,998,993 loci here; the heap keyed by
        # locus reads a few per re-ask, push and pop (27,934 in all)
        reads = 0

        class Counted(RuleApplication):
            def __getattribute__(self, name):
                nonlocal reads
                reads += name == "locus"
                return super().__getattribute__(name)

        real = lob_reducer.find_rule_3

        def counted(d, middles=None):
            app = real(d, middles)
            return app and Counted(app.rule_id, app.locus, app.action)

        monkeypatch.setattr(lob_reducer, "find_rule_3", counted)
        _, trace = reduce_to_fixpoint(LobInstance(gen_bipath_chain(2000), 2))
        assert sum(s.rule_id == 3 for s in trace) == 1996
        assert reads <= 20 * 2000

    @settings(max_examples=150, deadline=None)
    @given(small_digraphs(max_n=9))
    def test_rules_2_to_6_keep_every_vertex_reachable(self, d):
        # why rule 1 is checked once, before the loop: after any rule-2..6
        # step, fired in priority order or directly, the root still spans
        inst = LobInstance(d, 2)
        while True:
            direct = [app for app in (find_rule_5(inst.graph, cut_structure(inst.graph)[1]),
                                      find_rule_6(inst.graph, cut_structure(inst.graph)[1]))
                      if app is not None]
            for app in direct:
                assert is_connected(apply(inst, app).graph)
            app = find_rule(inst)
            if app is None:
                break
            assert app.rule_id != 1
            inst = apply(inst, app)
            assert is_connected(inst.graph)


class TestPipelineEquivalence:
    def test_reduction_preserves_maxleaf_end_to_end(self, rng):
        # composition of all rule firings keeps the exact optimum, hence
        # the decision for every k simultaneously
        for _ in range(120):
            d = random_connected(rng, rng.randint(2, 9), 0.3, bidi=0.4)
            before = maxleaf(d)
            out, _ = reduce_to_fixpoint(LobInstance(d, 1))
            assert isinstance(out, ReducedOutcome)
            assert maxleaf(out.instance.graph) == before

    def test_no_outcome_matches_reality(self, rng):
        for _ in range(40):
            n = rng.randint(2, 8)
            arcs = {(rng.randrange(n), rng.randrange(n)) for _ in range(2 * n)}
            arcs = {(u, v) for u, v in arcs if u != v and v != 0}
            d = RootedDigraph(n, 0, arcs)
            out, _ = reduce_to_fixpoint(LobInstance(d, 1))
            if isinstance(out, NoOutcome):
                assert not is_connected(d)
            else:
                assert is_connected(d)


class TestPostFixpointLemmas:
    def reduced_corpus(self, rng, count=40):
        corpus = []
        while len(corpus) < count:
            d = random_connected(rng, rng.randint(3, 10), 0.3, bidi=0.4)
            out, _ = reduce_to_fixpoint(LobInstance(d, 2))
            if isinstance(out, ReducedOutcome):
                corpus.append(out.instance.graph)
        return corpus

    def test_private_neighbors_have_indegree_one(self, rng):
        # a private neighbor of u is an out-neighbor that u dominates
        for g in self.reduced_corpus(rng):
            cut_v, _ = cut_structure(g)
            dom = dominators(g)
            for u in cut_v | {g.root}:
                for v in g.out_adj[u]:
                    if dom.dominates(u, v):
                        assert len(g.in_adj[v]) == 1

    def test_cut_edge_tails_not_heads(self, rng):
        for g in self.reduced_corpus(rng):
            _, ce = cut_structure(g)
            heads = {v for _, v in ce}
            tails = {u for u, _ in ce}
            assert not heads & tails

    def test_root_lemma(self, rng):
        for g in self.reduced_corpus(rng):
            if g.n < 3:
                continue
            _, ce = cut_structure(g)
            root_arcs = {(g.root, w) for w in g.out_adj[g.root]}
            assert len(root_arcs) >= 2
            assert root_arcs <= ce
