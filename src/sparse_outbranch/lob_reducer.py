"""Reduction rules for rooted maximum-leaf out-branching instances.

The driver applies five rules in strict priority order until none fires:

1. some vertex unreachable from the root        -> trivial no-instance
2. cut-vertex with a single in-arc (or out-arc) -> contract that arc
3. proper bipath of length 4                    -> contract its second arc
4. in-neighbor y of x whose co-in-neighbors
   N^-(x) - {y} separate y from the root        -> delete (y, x)
5. tails of two cut-edges joined both ways      -> contract the joining arc

Rule 6, a cut-edge (u, v) with (v, u) present -> delete (v, u), is a
lemma: wherever it applies, rule 4 fires at x = u. If the root feeds u,
rule 4 deletes a non-root in-arc of u. Otherwise every simple root path
to v enters it from u, so it reaches u first, from N^-(u) - {v}, and that
set separates v from the root. ``find_rule_6`` and ``apply_rule_6`` fire
it only on request.

None of the rules touches k, every rule only deletes or contracts (so the
underlying undirected graph only loses minors), and each application
shrinks n + m, which bounds the driver's work.

Matches are deterministic: the lowest-numbered rule fires at its
lexicographically smallest locus under the current vertex numbering, which
makes traces replayable byte for byte.

Each rule's condition lives only in its finder ``find_rule_i``, which
returns the whole application (rule, locus, action). ``find_rule``,
``apply``, ``apply_rule_i`` and ``replay_steps`` work on immutable graphs,
rebuilding after every step; ``replay_steps`` and ``apply_rule_i``
validate a step by running the rule's finder limited to the recorded locus
and requiring the same application back. They are the independent check
of the driver.

The driver ``reduce_to_fixpoint`` checks rule 1 once, on the input: rules
2-6 keep every vertex reachable. It then reduces one ``LabelledDigraph``
in place and asks each finder only about the vertices a step may have
changed (``_Reduction``). It carries the dominator tree across steps:

- a rule-4 deletion (y, x) leaves the dominance relation unchanged, because
  every root path to y meets some z in N^-(x) - {y}, so a path through
  (y, x) shortens to one through (z, x) on a subset of its vertices; for
  every vertex set C the root reaches the same vertices avoiding C. A
  rule-6 deletion (v, u) is on no simple root path, since u dominates v;
- a rule-2 contraction (a, b) has a = idom(b): b merges into a;
- a rule-3 contraction (u2, u3) keeps, for x outside the pair,
  u2 dom x <=> u3 dom x, so one is the other's only child or both are
  leaves under one immediate dominator: the two nodes merge;
- a rule-5 contraction recomputes the tree.

Cut-edges are built from the tree only when rules 2-4 all miss. Loci are
kept on labels and translated to current ids (ranks among the surviving
labels) when a trace step is written. A step is that application and
nothing more: replay derives a contraction's old -> new ids from the graph
it runs on (``contract_arc``), so a wrong renumbering fails a later re-match.
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import heappop, heappush
from typing import Iterable, Iterator, NamedTuple, Optional

from .digraph import (Arc, Dominators, LabelledDigraph, RootedDigraph, contract_arc,
                      cut_structure, dominators, heads_by_tail, reachable)
from .outcomes import (KernelOutcome, NoOutcome, ReducedOutcome, ReductionTrace,
                       RootedInstance, value_type)


@value_type
class LobInstance(RootedInstance):
    __slots__ = ()


@value_type
class Contract(NamedTuple):
    arc: Arc

    kind = "contract"


@value_type
class DeleteArc(NamedTuple):
    arc: Arc

    kind = "delete"


@value_type
class ResolveNo(NamedTuple):
    reason: str

    kind = "no"


@value_type
class RuleApplication(NamedTuple):
    rule_id: int
    locus: tuple[int, ...]
    action: Contract | DeleteArc | ResolveNo

    def line(self) -> str:
        locus = " ".join(str(x) for x in self.locus)
        if isinstance(self.action, ResolveNo):
            return f"RULE {self.rule_id} LOCUS {locus} ACTION no"
        u, v = self.action.arc
        return f"RULE {self.rule_id} LOCUS {locus} ACTION {self.action.kind} {u} {v}"


def find_rule_1(d: RootedDigraph) -> Optional[RuleApplication]:
    # the dominator tree is the one rules 2-6 read their cut structure from
    dom = dominators(d)
    if dom.reached == d.n:
        return None
    bad = next(v for v in range(d.n) if not dom.reaches(v))
    return RuleApplication(1, (bad,), ResolveNo(f"vertex {bad} unreachable from root"))


def find_rule_2(d: RootedDigraph, cut_v: set[int]) -> Optional[RuleApplication]:
    for v in sorted(cut_v):
        ins, outs = d.in_adj[v], d.out_adj[v]
        if len(ins) == 1:
            return RuleApplication(2, (v,), Contract((ins[0], v)))
        if len(outs) == 1:
            return RuleApplication(2, (v,), Contract((v, outs[0])))
    return None


def _proper_internal(d: RootedDigraph, v: int) -> Optional[list[int]]:
    """The sorted in-list [a, b] of v when N+(v) = N-(v) = {a, b}, else None."""
    ins = d.in_adj[v]
    return ins if len(ins) == 2 and ins == d.out_adj[v] else None


def find_rule_3(d: RootedDigraph, middles: Optional[Iterable[int]] = None
                ) -> Optional[RuleApplication]:
    """Lexicographically smallest length-4 proper bipath u1..u5 whose u2 is
    among ``middles`` (default: every vertex); contracts (u2, u3)."""
    best: Optional[tuple[int, ...]] = None
    for u2 in range(d.n) if middles is None else middles:
        nbrs = _proper_internal(d, u2)
        if nbrs is None:
            continue
        for u1, u3 in (nbrs, nbrs[::-1]):
            mid = _proper_internal(d, u3)
            if mid is None or u2 not in mid:
                continue
            u4 = mid[0] if mid[1] == u2 else mid[1]
            last = _proper_internal(d, u4)
            if last is None or u3 not in last:
                continue
            u5 = last[0] if last[1] == u3 else last[1]
            seq = (u1, u2, u3, u4, u5)
            if len(set(seq)) == 5 and (best is None or seq < best):
                best = seq
    return None if best is None else RuleApplication(3, best, Contract((best[1], best[2])))


def _separated_by_dominance(dom: Dominators, ins: list[int], y: int) -> bool:
    """Rule 4's test for an x with at most two in-neighbors, none the root:
    the other in-neighbor z separates y from the root exactly when z
    dominates y; with no other in-neighbor, y must already be unreachable."""
    others = [z for z in ins if z != y]
    return dom.dominates(others[0], y) if others else not dom.reaches(y)


def find_rule_4(d: RootedDigraph, heads: Optional[Iterable[int]] = None
                ) -> Optional[RuleApplication]:
    """The first x among ``heads`` (default: every vertex) with an
    in-neighbor y that N^-(x) - {y} cuts off from the root, and its first
    such y; deletes (y, x). At most one reachability search per x."""
    dom = dominators(d)
    for x in range(d.n) if heads is None else heads:
        ins = d.in_adj[x]
        if d.root in ins:
            # removing the root cuts everything, so every other in-arc goes
            for y in ins:
                if y != d.root:
                    return RuleApplication(4, (x, y), DeleteArc((y, x)))
            continue
        if len(ins) <= 2:
            for y in ins:
                if _separated_by_dominance(dom, ins, y):
                    return RuleApplication(4, (x, y), DeleteArc((y, x)))
            continue
        alive = reachable(d, d.root, removed_vertices=ins)
        for y in ins:
            if not any(w in alive for w in d.in_adj[y]):
                return RuleApplication(4, (x, y), DeleteArc((y, x)))
    return None


def find_rule_5(d: RootedDigraph, cut_e: set[Arc]) -> Optional[RuleApplication]:
    heads = heads_by_tail(cut_e)
    for x1 in sorted(heads):
        for x2 in d.out_adj[x1]:  # sorted: x1's first partner comes first
            if x2 in heads and d.has_arc(x2, x1):
                locus = (x1, min(heads[x1]), x2, min(heads[x2]))
                return RuleApplication(5, locus, Contract((x1, x2)))
    return None


def find_rule_6(d: RootedDigraph, cut_e: set[Arc]) -> Optional[RuleApplication]:
    for u, v in sorted(cut_e):
        if d.has_arc(v, u):
            return RuleApplication(6, (u, v), DeleteArc((v, u)))
    return None


def find_rule(inst: LobInstance) -> Optional[RuleApplication]:
    """The lowest-numbered applicable rule at its smallest locus, or None
    when rules 1-5 are all inapplicable (and hence rule 6 too)."""
    d = inst.graph
    app = find_rule_1(d)
    if app is not None:
        return app
    cut_v, cut_e = cut_structure(d)
    return (find_rule_2(d, cut_v) or find_rule_3(d) or find_rule_4(d)
            or find_rule_5(d, cut_e))


def _match_at(d: RootedDigraph, rule_id: int, locus: tuple[int, ...]
              ) -> Optional[RuleApplication]:
    """The rule's own finder, limited to the candidates named by locus."""
    if rule_id == 1:
        return find_rule_1(d)
    if rule_id == 3:
        return find_rule_3(d, locus[1:2])
    if rule_id == 4:
        return find_rule_4(d, locus[:1])
    if rule_id not in (2, 5, 6):
        raise ValueError(f"unknown rule id {rule_id}")
    cut_v, cut_e = cut_structure(d)
    if rule_id == 2:
        return find_rule_2(d, cut_v & set(locus))
    if rule_id == 5:
        return find_rule_5(d, cut_e & {locus[:2], locus[2:]})
    return find_rule_6(d, cut_e & {locus})


def _rematch(inst: LobInstance, rule_id: int, locus: tuple[int, ...]) -> RuleApplication:
    app = _match_at(inst.graph, rule_id, locus)
    if app is None or app.locus != locus:
        raise ValueError(f"rule {rule_id} does not apply at locus {locus}")
    return app


def apply_rule_2(inst: LobInstance, locus: int) -> LobInstance:
    return apply(inst, _rematch(inst, 2, (locus,)))


def apply_rule_3(inst: LobInstance, locus: tuple[int, ...]) -> LobInstance:
    return apply(inst, _rematch(inst, 3, tuple(locus)))


def apply_rule_4(inst: LobInstance, locus: tuple[int, int]) -> LobInstance:
    return apply(inst, _rematch(inst, 4, tuple(locus)))


def apply_rule_5(inst: LobInstance, locus: tuple[Arc, Arc]) -> LobInstance:
    (x1, y1), (x2, y2) = locus
    return apply(inst, _rematch(inst, 5, (x1, y1, x2, y2)))


def apply_rule_6(inst: LobInstance, locus: Arc) -> LobInstance:
    return apply(inst, _rematch(inst, 6, tuple(locus)))


def apply(inst: LobInstance, app: RuleApplication) -> KernelOutcome | LobInstance:
    """Carry out ``app.action`` without re-checking that its rule applies;
    returns the new instance, or the No outcome of rule 1."""
    action = app.action
    if isinstance(action, ResolveNo):
        return NoOutcome(action.reason)
    if isinstance(action, DeleteArc):
        return LobInstance(inst.graph.with_arcs_removed([action.arc]), inst.k)
    return LobInstance(contract_arc(inst.graph, action.arc)[0], inst.k)


class _Reduction:
    """Rules 2-5 on a ``LabelledDigraph``, with what each finder already
    knows carried across steps. Applications are on labels.

    - Rule 2 re-asks the vertices whose lists a step changed: a deletion's
      endpoints, or, contracting (a, b) into keep = min(a, b), gone = max(a,
      b) and its neighbours, which trade gone for keep. No other vertex c
      can become a cut-vertex: a deletion keeps the tree, and a contraction
      maps every root path avoiding c to one still avoiding c.
    - Rule 3's match at u2, old or new, reads only the lists of u2, u3 and
      u4. An unchanged u2 stays proper internal and next to u3, and an
      unchanged u3 next to u4, so every middle whose match can move lies
      within two proper-internal hops of a changed vertex; it re-asks those,
      reading ``_proper_internal`` only for in-lists of length two, and a
      hop that finds none ends the walk.
      The carried matches sit in a heap keyed by locus, so the least one
      costs O(log n) a step rather than a scan of them all.
    - Rule 4 re-asks, besides the vertices never answered, the head of a
      deletion (every other answer depends only on which vertices the root
      reaches avoiding a set, which the deletion keeps) and a
      contraction's merged vertex and its out-neighbours. For any other x,
      N^-(x) is unchanged and misses both endpoints, and a contraction
      maps every root path avoiding N^-(x) to one that still avoids it, so
      a miss stays a miss.

    None of this depends on the rule that contracted, so a rule-5 step,
    whose tree is recomputed, re-asks the same vertices.
    """

    def __init__(self, d: RootedDigraph):
        self.g = LabelledDigraph(d)
        self.ask2 = set(range(d.n))
        self.ask3 = set(range(d.n))
        self.ask4 = set(range(d.n))
        self.rule_3: dict[int, RuleApplication] = {}  # middle vertex -> its match
        # (locus, middle) for every carried match, and for some dropped or
        # replaced ones, which are skipped when they reach the top
        self.by_locus: list[tuple[tuple[int, ...], int]] = []

    def find(self) -> Optional[RuleApplication]:
        """What ``find_rule`` would return on the current graph, rule 1
        aside."""
        g = self.g
        dom = dominators(g)
        asked = sorted(self.ask2 & dom.cut_vertices)
        app = find_rule_2(g, asked)
        # the cut-vertices before the match, and all the others, miss
        self.ask2 = set(asked[bisect_left(asked, app.locus[0]):]) if app else set()
        if app is not None:
            return app
        for u2 in self.ask3:
            app = find_rule_3(g, (u2,))
            if app is None:
                self.rule_3.pop(u2, None)
            elif self.rule_3.get(u2) != app:
                self.rule_3[u2] = app
                heappush(self.by_locus, (app.locus, u2))
        self.ask3.clear()
        # loci are labels, which keep their order, so the least live entry
        # is the least carried match
        while self.by_locus:
            locus, u2 = self.by_locus[0]
            app = self.rule_3.get(u2)
            if app is not None and app.locus == locus:
                return app
            heappop(self.by_locus)
        app = self.ask_rule_4()
        if app is not None:
            return app
        return find_rule_5(g, dom.cut_edges(g.in_adj))

    def ask_rule_4(self) -> Optional[RuleApplication]:
        """``find_rule_4`` on the current graph, asking only the heads not
        yet known to miss."""
        asked = sorted(self.ask4)
        app = find_rule_4(self.g, asked)
        self.ask4 = set(asked[bisect_left(asked, app.locus[0]):]) if app else set()
        return app

    def apply(self, app: RuleApplication) -> RuleApplication:
        """Carry out ``app`` and return it on current ids, its trace step."""
        g = self.g
        action = app.action
        u, v = action.arc
        on_ids = RuleApplication(app.rule_id, tuple(map(g.rank, app.locus)),
                                 type(action)((g.rank(u), g.rank(v))))
        if isinstance(action, DeleteArc):
            g.delete(action.arc)
            changed = {u, v}
            self.ask4.add(v)
        else:
            gone = max(u, v)
            changed = {u, v, *g.in_adj[gone], *g.out_adj[gone]}
            keep = g.contract(action.arc, merge_tree=app.rule_id != 5)
            self.ask4 |= {keep, *g.out_adj[keep]}
        self.ask2 |= changed
        self.ask3 |= changed
        in_adj, out_adj = g.in_adj, g.out_adj
        for _ in range(2):
            near = set().union(*(in_adj[x] + out_adj[x] for x in changed))
            changed = {w for w in near
                       if len(in_adj[w]) == 2 and _proper_internal(g, w) is not None}
            if not changed:
                break
            self.ask3 |= changed
        return on_ids


def reduce_to_fixpoint(inst: LobInstance) -> tuple[KernelOutcome, ReductionTrace]:
    """Exhaustively apply rules 1-5. Returns No when rule 1 fires, else a
    Reduced outcome whose instance admits none of the six rules; k never
    changes."""
    trace = ReductionTrace()
    red = _Reduction(inst.graph)
    # labels are ids before the first step; rules 2-6 keep every vertex
    # reachable, so rule 1 is asked only here
    app = find_rule_1(red.g)
    if app is not None:
        trace.append(app)
        return apply(inst, app), trace
    for _ in range(inst.graph.n + inst.graph.m + 1):
        app = red.find()
        if app is None:
            reduced = LobInstance(red.g.snapshot(), inst.k) if trace else inst
            return ReducedOutcome(reduced), trace
        trace.append(red.apply(app))
    raise RuntimeError("reduction did not reach a fixpoint within n+m steps")


def replay_steps(inst: LobInstance, trace: ReductionTrace) -> Iterator[tuple]:
    """Re-run the recorded steps against the original instance, yielding
    each step's instance, its application and the result. Each step must
    equal (in rule, locus and action) what its rule's finder matches when
    limited to the recorded locus, so a forged trace fails loudly."""
    current = inst
    for app in trace:
        if _match_at(current.graph, app.rule_id, app.locus) != app:
            raise ValueError(f"trace step does not re-match: {app.line()}")
        result = apply(current, app)
        yield current, app, result
        if not isinstance(result, LobInstance):
            return
        current = result


def replay_trace(inst: LobInstance, trace: ReductionTrace) -> KernelOutcome | LobInstance:
    """Where ``replay_steps`` ends: the reduced instance or the No outcome."""
    result = inst
    for _, _, result in replay_steps(inst, trace):  # keeps the last result alone
        pass
    return result
