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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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


def find_rule_1(d: RootedDigraph) -> Optional[int]:
    seen = reachable(d, d.root)
    if len(seen) == d.n:
        return None
    return min(v for v in range(d.n) if v not in seen)


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


def find_rule_3(d: RootedDigraph) -> Optional[tuple[int, ...]]:
    """Lexicographically smallest length-4 proper bipath u1..u5."""
    best: Optional[tuple[int, ...]] = None
    for u2 in range(d.n):
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
    return best


def _separated_by_dominance(dom: Dominators, ins: list[int], y: int) -> bool:
    """Rule 4's test for an x with at most two in-neighbors, none the root:
    the other in-neighbor z separates y from the root exactly when z
    dominates y; with no other in-neighbor, y must already be unreachable."""
    others = [z for z in ins if z != y]
    return dom.dominates(others[0], y) if others else not dom.reaches(y)


def _rule_4_guard(d: RootedDigraph, x: int, y: int) -> bool:
    """True when removing N^-(x) - {y} cuts y off from the root."""
    if y == d.root:
        return False
    ins = d.in_adj[x]
    if y not in ins:
        return False
    if d.root in ins:
        return True
    if len(ins) <= 2:
        return _separated_by_dominance(dominators(d), ins, y)
    alive = reachable(d, d.root, removed_vertices=ins)
    return not any(w in alive for w in d.in_adj[y])


def find_rule_4(d: RootedDigraph) -> Optional[tuple[int, int]]:
    dom = dominators(d)
    for x in range(d.n):
        ins = d.in_adj[x]
        if not ins:
            continue
        if d.root in ins:
            # removing the root cuts everything, so every other in-arc goes
            for y in ins:
                if y != d.root:
                    return (x, y)
            continue
        if len(ins) <= 2:
            for y in ins:
                if _separated_by_dominance(dom, ins, y):
                    return (x, y)
            continue
        alive = reachable(d, d.root, removed_vertices=ins)
        for y in ins:
            if not any(w in alive for w in d.in_adj[y]):
                return (x, y)
    return None


def find_rule_5(d: RootedDigraph, cut_e: set[Arc]) -> Optional[tuple[Arc, Arc]]:
    by_tail: dict[int, list[int]] = {}
    for u, v in cut_e:
        by_tail.setdefault(u, []).append(v)
    tails = sorted(by_tail)
    for x1 in tails:
        for x2 in tails:
            if x1 != x2 and d.has_arc(x1, x2) and d.has_arc(x2, x1):
                return ((x1, min(by_tail[x1])), (x2, min(by_tail[x2])))
    return None


def find_rule_6(d: RootedDigraph, cut_e: set[Arc]) -> Optional[Arc]:
    for u, v in sorted(cut_e):
        if d.has_arc(v, u):
            return (u, v)
    return None


def find_rule(inst: LobInstance) -> Optional[RuleApplication]:
    """The lowest-numbered applicable rule at its smallest locus, or None
    when rules 1-6 are all inapplicable."""
    d = inst.graph
    bad = find_rule_1(d)
    if bad is not None:
        return RuleApplication(1, (bad,), ResolveNo(f"vertex {bad} unreachable from root"))
    cut_v, cut_e = cut_structure(d)
    app = find_rule_2(d, cut_v)
    if app is not None:
        return app
    seq = find_rule_3(d)
    if seq is not None:
        return RuleApplication(3, seq, Contract((seq[1], seq[2])))
    xy = find_rule_4(d)
    if xy is not None:
        x, y = xy
        return RuleApplication(4, (x, y), DeleteArc((y, x)))
    pair = find_rule_5(d, cut_e)
    if pair is not None:
        (x1, y1), (x2, y2) = pair
        return RuleApplication(5, (x1, y1, x2, y2), Contract((x1, x2)))
    uv = find_rule_6(d, cut_e)
    if uv is not None:
        u, v = uv
        return RuleApplication(6, (u, v), DeleteArc((v, u)))
    return None


def apply_rule_1(inst: LobInstance) -> KernelOutcome:
    bad = find_rule_1(inst.graph)
    if bad is None:
        raise ValueError("rule 1 does not apply: graph is connected")
    return NoOutcome(f"vertex {bad} unreachable from root")


def apply_rule_2(inst: LobInstance, locus: int) -> tuple[LobInstance, list[int]]:
    d = inst.graph
    cut_v, _ = cut_structure(d)
    if locus not in cut_v:
        raise ValueError(f"rule 2 does not apply: {locus} is not a cut-vertex")
    if d.in_degree(locus) == 1:
        arc = (d.in_adj[locus][0], locus)
    elif d.out_degree(locus) == 1:
        arc = (locus, d.out_adj[locus][0])
    else:
        raise ValueError(f"rule 2 does not apply: {locus} has no forced arc")
    g, mapping = contract_arc(d, arc)
    return LobInstance(g, inst.k), mapping


def apply_rule_3(inst: LobInstance, locus: tuple[int, ...]) -> tuple[LobInstance, list[int]]:
    d = inst.graph
    if len(locus) != 5 or len(set(locus)) != 5:
        raise ValueError("rule 3 locus must be five distinct vertices")
    u1, u2, u3, u4, u5 = locus
    for prev, mid, nxt in ((u1, u2, u3), (u2, u3, u4), (u3, u4, u5)):
        nbrs = _proper_internal(d, mid)
        if nbrs is None or set(nbrs) != {prev, nxt}:
            raise ValueError(f"rule 3 does not apply: {mid} is not proper internal")
    g, mapping = contract_arc(d, (u2, u3))
    return LobInstance(g, inst.k), mapping


def apply_rule_4(inst: LobInstance, locus: tuple[int, int]) -> LobInstance:
    d = inst.graph
    x, y = locus
    if not _rule_4_guard(d, x, y):
        raise ValueError(f"rule 4 does not apply at x={x}, y={y}")
    return LobInstance(d.with_arcs_removed([(y, x)]), inst.k)


def apply_rule_5(inst: LobInstance, locus: tuple[Arc, Arc]) -> tuple[LobInstance, list[int]]:
    d = inst.graph
    (x1, y1), (x2, y2) = locus
    _, cut_e = cut_structure(d)
    if (x1, y1) not in cut_e or (x2, y2) not in cut_e:
        raise ValueError("rule 5 does not apply: loci are not cut-edges")
    if not (d.has_arc(x1, x2) and d.has_arc(x2, x1)):
        raise ValueError("rule 5 does not apply: tails not joined both ways")
    g, mapping = contract_arc(d, (x1, x2))
    return LobInstance(g, inst.k), mapping


def apply_rule_6(inst: LobInstance, locus: Arc) -> LobInstance:
    d = inst.graph
    u, v = locus
    _, cut_e = cut_structure(d)
    if (u, v) not in cut_e:
        raise ValueError(f"rule 6 does not apply: ({u},{v}) is not a cut-edge")
    if not d.has_arc(v, u):
        raise ValueError(f"rule 6 does not apply: ({v},{u}) absent")
    return LobInstance(d.with_arcs_removed([(v, u)]), inst.k)


def apply(inst: LobInstance, app: RuleApplication
          ) -> tuple[KernelOutcome | LobInstance, Optional[list[int]]]:
    """Apply one rule application; returns the new instance (or a final
    outcome for rule 1) plus the vertex mapping when ids were compacted."""
    if app.rule_id == 1:
        return apply_rule_1(inst), None
    if app.rule_id == 2:
        new, mapping = apply_rule_2(inst, app.locus[0])
        return new, mapping
    if app.rule_id == 3:
        new, mapping = apply_rule_3(inst, app.locus)
        return new, mapping
    if app.rule_id == 4:
        return apply_rule_4(inst, (app.locus[0], app.locus[1])), None
    if app.rule_id == 5:
        x1, y1, x2, y2 = app.locus
        new, mapping = apply_rule_5(inst, ((x1, y1), (x2, y2)))
        return new, mapping
    if app.rule_id == 6:
        return apply_rule_6(inst, (app.locus[0], app.locus[1])), None
    raise ValueError(f"unknown rule id {app.rule_id}")


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
        if app.rule_id == 1:
            trace.append(TraceStep(app, None))
            return NoOutcome(app.action.reason), trace
        result, mapping = apply(current, app)
        trace.append(TraceStep(app, mapping))
        current = result
    raise RuntimeError("reduction did not reach a fixpoint within n+m steps")


def replay_trace(inst: LobInstance, trace: ReductionTrace) -> KernelOutcome | LobInstance:
    """Re-run the recorded actions against the original instance. Guards
    are re-validated, so a forged trace fails loudly."""
    current = inst
    for step in trace:
        result, _ = apply(current, step.application)
        if not isinstance(result, LobInstance):
            return result
        current = result
    return current
