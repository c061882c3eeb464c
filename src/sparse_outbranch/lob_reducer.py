"""Reduction rules for rooted maximum-leaf out-branching instances.

Six rules are applied in strict priority order until none fires:

1. some vertex unreachable from the root        -> trivial no-instance
2. cut-vertex with a single in-arc (or out-arc) -> contract that arc
3. proper bipath of length 4                    -> contract its second arc
4. in-neighbor y of x whose co-in-neighbors
   N^-(x) - {y} separate y from the root        -> delete (y, x)
5. tails of two cut-edges joined both ways      -> contract the joining arc
6. cut-edge whose reverse arc is present        -> delete the reverse

None of the rules touches k, every rule only deletes or contracts (so the
underlying undirected graph only loses minors), and each application
shrinks n + m, which bounds the driver's work.

Matches are deterministic: the lowest-numbered rule fires at its
lexicographically smallest locus under the current vertex numbering, which
makes traces replayable byte for byte.

Each rule's condition lives only in its finder ``find_rule_i``, which
returns the whole application (rule, locus, action); the driver carries
out the action it matched without checking again. ``replay_trace`` and
``apply_rule_i`` validate a step by running the rule's finder limited to
the recorded locus and requiring the same application back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .digraph import (
    Arc,
    Dominators,
    RootedDigraph,
    contract_arc,
    cut_structure,
    dominators,
    reachable,
)
from .outcomes import KernelOutcome, NoOutcome, ReducedOutcome, ReductionTrace


@dataclass(frozen=True)
class LobInstance:
    graph: RootedDigraph
    k: int

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("k must be nonnegative")


@dataclass(frozen=True)
class Contract:
    arc: Arc

    kind = "contract"


@dataclass(frozen=True)
class DeleteArc:
    arc: Arc

    kind = "delete"


@dataclass(frozen=True)
class ResolveNo:
    reason: str

    kind = "no"


@dataclass(frozen=True)
class RuleApplication:
    rule_id: int
    locus: tuple[int, ...]
    action: Contract | DeleteArc | ResolveNo

    def line(self) -> str:
        locus = " ".join(str(x) for x in self.locus)
        if isinstance(self.action, ResolveNo):
            return f"RULE {self.rule_id} LOCUS {locus} ACTION no"
        u, v = self.action.arc
        return f"RULE {self.rule_id} LOCUS {locus} ACTION {self.action.kind} {u} {v}"


@dataclass(frozen=True)
class TraceStep:
    application: RuleApplication
    mapping: Optional[list[int]]  # old id -> new id, for contractions

    def line(self) -> str:
        return self.application.line()


def find_rule_1(d: RootedDigraph) -> Optional[RuleApplication]:
    # the dominator tree is the one rules 2-6 read their cut structure from
    dom = dominators(d)
    if dom.reached == d.n:
        return None
    bad = next(v for v in range(d.n) if not dom.reaches(v))
    return RuleApplication(1, (bad,), ResolveNo(f"vertex {bad} unreachable from root"))


def find_rule_2(d: RootedDigraph, cut_v: set[int]) -> Optional[RuleApplication]:
    for v in sorted(cut_v):
        if d.in_degree(v) == 1:
            arc = (d.in_adj[v][0], v)
            return RuleApplication(2, (v,), Contract(arc))
        if d.out_degree(v) == 1:
            arc = (v, d.out_adj[v][0])
            return RuleApplication(2, (v,), Contract(arc))
    return None


def _proper_internal(d: RootedDigraph, v: int) -> Optional[tuple[int, int]]:
    """The two neighbors of v when N+(v) = N-(v) = {a, b}, else None."""
    if d.in_degree(v) != 2 or d.out_degree(v) != 2:
        return None
    if d.in_adj[v] != d.out_adj[v]:
        return None
    a, b = d.in_adj[v]
    return a, b


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
    by_tail: dict[int, list[int]] = {}
    for u, v in cut_e:
        by_tail.setdefault(u, []).append(v)
    tails = sorted(by_tail)
    for x1 in tails:
        for x2 in tails:
            if x1 != x2 and d.has_arc(x1, x2) and d.has_arc(x2, x1):
                locus = (x1, min(by_tail[x1]), x2, min(by_tail[x2]))
                return RuleApplication(5, locus, Contract((x1, x2)))
    return None


def find_rule_6(d: RootedDigraph, cut_e: set[Arc]) -> Optional[RuleApplication]:
    for u, v in sorted(cut_e):
        if d.has_arc(v, u):
            return RuleApplication(6, (u, v), DeleteArc((v, u)))
    return None


def find_rule(inst: LobInstance) -> Optional[RuleApplication]:
    """The lowest-numbered applicable rule at its smallest locus, or None
    when rules 1-6 are all inapplicable."""
    d = inst.graph
    app = find_rule_1(d)
    if app is not None:
        return app
    cut_v, cut_e = cut_structure(d)
    return (find_rule_2(d, cut_v) or find_rule_3(d) or find_rule_4(d)
            or find_rule_5(d, cut_e) or find_rule_6(d, cut_e))


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


def apply_rule_2(inst: LobInstance, locus: int) -> tuple[LobInstance, list[int]]:
    return apply(inst, _rematch(inst, 2, (locus,)))


def apply_rule_3(inst: LobInstance, locus: tuple[int, ...]) -> tuple[LobInstance, list[int]]:
    return apply(inst, _rematch(inst, 3, tuple(locus)))


def apply_rule_4(inst: LobInstance, locus: tuple[int, int]) -> LobInstance:
    return apply(inst, _rematch(inst, 4, tuple(locus)))[0]


def apply_rule_5(inst: LobInstance, locus: tuple[Arc, Arc]) -> tuple[LobInstance, list[int]]:
    (x1, y1), (x2, y2) = locus
    return apply(inst, _rematch(inst, 5, (x1, y1, x2, y2)))


def apply_rule_6(inst: LobInstance, locus: Arc) -> LobInstance:
    return apply(inst, _rematch(inst, 6, tuple(locus)))[0]


def apply(inst: LobInstance, app: RuleApplication
          ) -> tuple[KernelOutcome | LobInstance, Optional[list[int]]]:
    """Carry out ``app.action`` without re-checking that its rule applies;
    returns the new instance (or the No outcome of rule 1) plus the vertex
    mapping when a contraction compacted the ids."""
    action = app.action
    if isinstance(action, ResolveNo):
        return NoOutcome(action.reason), None
    if isinstance(action, DeleteArc):
        return LobInstance(inst.graph.with_arcs_removed([action.arc]), inst.k), None
    g, mapping = contract_arc(inst.graph, action.arc)
    return LobInstance(g, inst.k), mapping


def reduce_to_fixpoint(inst: LobInstance) -> tuple[KernelOutcome, ReductionTrace]:
    """Exhaustively apply rules 1-6. Returns No when rule 1 fires, else a
    Reduced outcome whose instance admits none of the rules; k never
    changes."""
    trace = ReductionTrace()
    current = inst
    limit = inst.graph.n + inst.graph.m + 1
    for _ in range(limit):
        app = find_rule(current)
        if app is None:
            return ReducedOutcome(current, trace), trace
        result, mapping = apply(current, app)
        trace.append(TraceStep(app, mapping))
        if not isinstance(result, LobInstance):
            return result, trace
        current = result
    raise RuntimeError("reduction did not reach a fixpoint within n+m steps")


def replay_trace(inst: LobInstance, trace: ReductionTrace) -> KernelOutcome | LobInstance:
    """Re-run the recorded steps against the original instance. Each step
    must equal (in rule, locus and action) what its rule's finder matches
    when limited to the recorded locus, and its recorded vertex mapping
    must equal the one the action produces, so a forged trace fails
    loudly."""
    current = inst
    for step in trace:
        app = step.application
        if _match_at(current.graph, app.rule_id, app.locus) != app:
            raise ValueError(f"trace step does not re-match: {app.line()}")
        result, mapping = apply(current, app)
        if mapping != step.mapping:
            raise ValueError(f"trace step records a wrong vertex mapping: {app.line()}")
        if not isinstance(result, LobInstance):
            return result
        current = result
    return current
