"""Randomized verification suites.

Each suite drives one family of correctness claims against the
brute-force oracles and reports a pass/fail result with counters. The
suites back both the ``verify`` CLI command and the acceptance test
module; the acceptance criteria call them at their contractual trial
counts, the CLI lets you dial the effort up or down.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Iterator, NamedTuple, Optional

from .digraph import (
    OutBranching,
    RootedDigraph,
    cut_structure,
    is_connected,
    remove_vertices,
    split_lonely_branching,
    underlying_adjacency,
)
from .generators import gen_iob_twins, gen_planar, gen_random
from .iob_kernel import (
    CrownStep,
    IobInstance,
    build_aux_graph,
    class_hood,
    crown_in_class,
    kernelize_iob,
    vc_or_solution,
)
from .lob_analyzer import analyze, decompose_bipaths
from .lob_reducer import (
    LobInstance,
    apply,
    find_rule_5,
    find_rule_6,
    reduce_to_fixpoint,
    replay_steps,
)
from .oracle import (
    SolveMode,
    brute_force_out_branchings,
    enumerate_out_branchings,
    solve_branch_and_bound,
)
from .outcomes import ReducedOutcome, value_type
from .sparsity import (
    class_count_bound_ok,
    classify_by_modulator,
    degeneracy,
    heavy_count_bound_ok,
    heavy_degree_sum_check,
)


@value_type
class SuiteResult(NamedTuple("SuiteResult", [("name", str), ("passed", bool), ("detail", dict)])):
    __slots__ = ()

    def __new__(cls, name: str, passed: bool, detail: Optional[dict] = None):
        # each result gets its own detail
        return super().__new__(cls, name, passed, {} if detail is None else detail)

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        inner = ", ".join(f"{k}={v}" for k, v in self.detail.items())
        return f"[{status}] {self.name}: {inner}"


def linear_fit(xs, ys, through_origin: bool = False) -> tuple[float, float, float]:
    """Least-squares line y = slope*x + intercept: (slope, intercept, R^2).
    Through the origin the slope is sum(xy)/sum(x^2) and the intercept 0.
    R^2 is taken against the mean of ys, and is 1.0 when ys are constant."""
    if through_origin:
        slope = sum(x * y for x, y in zip(xs, ys)) / sum(x * x for x in xs)
        intercept = 0.0
    else:
        slope, intercept = statistics.linear_regression(xs, ys)
    mean = statistics.fmean(ys)
    ss_tot = sum((y - mean) ** 2 for y in ys)
    ss_res = sum((y - slope * x - intercept) ** 2 for x, y in zip(xs, ys))
    return slope, intercept, 1.0 - ss_res / ss_tot if ss_tot else 1.0


def _exact_maxleaf(d: RootedDigraph) -> int:
    res = solve_branch_and_bound(d, None, SolveMode.LEAF)
    if not res.exact:
        raise RuntimeError("oracle failed to prove optimality on a small instance")
    return res.best_value


def _small_mixed_digraph(rng: random.Random, max_n: int) -> RootedDigraph:
    """Random small connected digraph; alternates plain, bidirected-heavy,
    and chain-with-chords shapes so every reduction rule sees traffic."""
    style = rng.randrange(3)
    n = rng.randint(2, max_n)
    if style == 0:
        return gen_random(n, rng.randint(n, 3 * n), rng.randrange(1 << 30))
    if style == 1:
        return gen_random(n, rng.randint(n, 3 * n), rng.randrange(1 << 30),
                          bidi_prob=rng.uniform(0.3, 0.9))
    arcs = {(0, 1)}
    for v in range(2, n):
        arcs.add((v - 1, v))
        arcs.add((v, v - 1))
    for _ in range(rng.randint(0, 3)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and v != 0:
            arcs.add((u, v))
    return RootedDigraph(n, 0, arcs)


def verify_rules(trials: int = 1000, max_n: int = 9, seed: int = 0) -> SuiteResult:
    """Every rule firing preserves the exact oracle maxleaf. The driver's
    own trace is replayed step by step on immutable graphs; rules 5 and 6
    additionally fire at their own matches, since rule 4 usually preempts
    rule 5 and always preempts rule 6."""
    rng = random.Random(seed)
    fired = {i: 0 for i in range(1, 7)}
    violations = []
    t0 = time.monotonic()
    for trial in range(trials):
        d = _small_mixed_digraph(rng, max_n)
        inst = LobInstance(d, 1)
        _, trace = reduce_to_fixpoint(inst)
        value = None  # maxleaf where the next step starts, once known
        for current, app, result in replay_steps(inst, trace):
            fired[app.rule_id] += 1
            if app.rule_id == 1:
                break
            before = _exact_maxleaf(current.graph) if value is None else value
            value = _exact_maxleaf(result.graph)
            if before != value:
                violations.append((trial, app.rule_id, before, value))
        # direct firings at their own matches for the low-priority rules
        if is_connected(d):
            _, ce = cut_structure(d)
            for direct in (find_rule_5(d, ce), find_rule_6(d, ce)):
                if direct is None:
                    continue
                before = _exact_maxleaf(d)
                nxt = apply(LobInstance(d, 1), direct)
                if _exact_maxleaf(nxt.graph) != before:
                    violations.append((trial, direct.rule_id, before, "direct"))
                fired[direct.rule_id] += 1
    detail = {"trials": trials, "violations": len(violations),
              "seconds": round(time.monotonic() - t0, 1)}
    detail.update({f"rule{i}": fired[i] for i in range(1, 7)})
    if violations:
        detail["first_violation"] = violations[0]
    return SuiteResult("rules", not violations, detail)


def verify_oracle(trials: int = 300, seed: int = 0) -> SuiteResult:
    """Enumeration agrees with the parent-vector brute force (n <= 7) and
    branch and bound agrees with the enumeration optimum (n <= 9). Each
    graph is enumerated once; a branching has n - leaf_count internal
    vertices."""
    rng = random.Random(seed)
    violations = 0
    checked_enum = checked_bb = 0
    for trial in range(trials):
        d = _small_mixed_digraph(rng, 7)
        trees = list(enumerate_out_branchings(d))
        brute = {tuple(sorted(t.parent.items())) for t in brute_force_out_branchings(d)}
        if {tuple(sorted(t.parent.items())) for t in trees} != brute:
            violations += 1
        checked_enum += 1
        for t in trees:
            if t.leaf_count() != 1 + sum(max(len(t.children[v]) - 1, 0)
                                         for v in range(d.n)):
                violations += 1
    for trial in range(trials):
        d = _small_mixed_digraph(rng, 9)
        leaves = [t.leaf_count() for t in enumerate_out_branchings(d)]
        optima = ((SolveMode.LEAF, max(leaves)), (SolveMode.INTERNAL, d.n - min(leaves)))
        for mode, optimum in optima:
            res = solve_branch_and_bound(d, None, mode)
            if not res.exact or res.best_value != optimum:
                violations += 1
            if res.witness is None or not res.witness.is_valid_for(d):
                violations += 1
        checked_bb += 1
    return SuiteResult("oracle", violations == 0,
                       {"enum_checked": checked_enum, "bb_checked": checked_bb,
                        "violations": violations})


def _reduced_planar_corpus(count: int, seed: int) -> list[LobInstance]:
    """Reduced instances of at most 12 vertices, within the oracle's reach,
    from small sparse planar inputs of 6 to 26 vertices."""
    rng = random.Random(seed)
    corpus: list[LobInstance] = []
    attempts = 0
    while len(corpus) < count and attempts < 60 * count:
        attempts += 1
        n = rng.randint(6, 26)
        g = gen_planar(n, rng.randrange(1 << 30),
                       both_prob=rng.uniform(0.0, 0.5),
                       keep_prob=rng.uniform(0.15, 0.5))
        out, _ = reduce_to_fixpoint(LobInstance(g, rng.randint(1, 4)))
        if isinstance(out, ReducedOutcome) and out.instance.graph.n <= 12:
            corpus.append(out.instance)
    if len(corpus) < count:
        raise RuntimeError(f"could not build corpus: {len(corpus)}/{count}")
    return corpus


def hub_chain_instance(npaths: int, seg: int = 1, pendants: tuple[int, ...] = ()) -> LobInstance:
    """Two special hubs, 3 and 4, with disjoint root access through 1 and 2,
    joined by ``npaths`` parallel bidirectional paths of ``seg`` internal
    vertices each. Each offset in ``pendants`` hangs a pendant leaf on that
    vertex of the first path, where offset 0 is hub 3; a pendant's cut-edge
    is lonely, so its bag is isolated unless its tail sends an arc into a
    special bag."""
    arcs = {(0, 1), (0, 2), (1, 3), (2, 4)}
    nxt = 5
    chains = []
    for _ in range(npaths):
        chains.append([3, *range(nxt, nxt + seg), 4])
        nxt += seg
    for chain in chains:
        arcs.update(zip(chain, chain[1:]))
        arcs.update(zip(chain[1:], chain))
    for i in pendants:
        arcs.add((chains[0][i], nxt))
        nxt += 1
    return LobInstance(RootedDigraph(nxt, 0, arcs), 1)


def verify_bounds(instances: int = 300, seed: int = 0) -> SuiteResult:
    """The three certificate lower bounds hold against oracle maxleaf on
    reduced planar cores, plus constructed multi-bipath instances where
    the slave count is positive."""
    corpus = _reduced_planar_corpus(instances, seed)
    for npaths in (3, 4, 5, 6):
        corpus.append(hub_chain_instance(npaths))
        if 5 + 2 * npaths <= 14:  # its vertices, at most the core bound plus 2
            corpus.append(hub_chain_instance(npaths, seg=2))
    # one chain whose every second internal vertex carries a pendant: the
    # mid-chain pendant bags see no special bag and are isolated
    corpus.append(hub_chain_instance(1, 3, (2,)))
    corpus.append(hub_chain_instance(1, 5, (2, 4)))
    violations = 0
    sp_total = iso_total = sl_total = 0
    for inst in corpus:
        ana = analyze(inst)
        ml = _exact_maxleaf(inst.graph)
        c = ana.cert
        sp_total += c.special_count
        iso_total += c.isolated_count
        sl_total += c.slave_count
        violations += sum(ml < bound for bound in c.implied_bounds)
        # contraction monotonicity and the cut-vertex bound on the core
        ml_dc = _exact_maxleaf(ana.contracted.graph)
        if ml < ml_dc:
            violations += 1
        cv_dc, ce_dc = cut_structure(ana.contracted.graph)
        # every tail of a cut-edge emits at least two
        if not split_lonely_branching(ce_dc)[0]:
            if ml_dc < len(cv_dc) + 1:
                violations += 1
        # certificate soundness for the instance's k
        if c.accepted and ml < inst.k:
            violations += 1
    return SuiteResult("bounds", violations == 0,
                       {"instances": len(corpus), "violations": violations,
                        "special_seen": sp_total, "isolated_seen": iso_total,
                        "slaves_seen": sl_total})


def verify_structure(instances: int = 300, seed: int = 0) -> SuiteResult:
    """Structural lemmas on reduced cores: bags of size <= 2, cut-edge
    heads of in-degree 1, linked bags with exactly one arc each way
    landing on tails, decomposition properties over random seeds, and the
    10|O|+6 hard-bipath length bound."""
    corpus = _reduced_planar_corpus(instances, seed)
    for npaths in (3, 5):
        corpus.append(hub_chain_instance(npaths))
    corpus.append(hub_chain_instance(1, 5, (2, 4)))
    rng = random.Random(seed + 1)
    violations = 0
    paths_seen = 0
    for inst in corpus:
        d = inst.graph
        ana = analyze(inst)
        dc = ana.contracted
        g = dc.graph
        _, ce = cut_structure(d)
        for u, v in ce:
            if len(d.in_adj[v]) != 1:
                violations += 1
        for v in range(g.n):
            if len(dc.bag_of[v].members) > 2:
                violations += 1
        for a in range(g.n):
            for b in g.out_adj[a]:
                A, B = dc.bag_of[a], dc.bag_of[b]
                ab = [(x, y) for x in A.members for y in B.members if d.has_arc(x, y)]
                if any(y != B.tail for _, y in ab):
                    violations += 1
                if g.has_arc(b, a) and len(ab) != 1:
                    violations += 1
        # decomposition over the easy seed (built inside analyze) and over
        # a random larger seed
        paths_seen += len(ana.decomposition.paths)
        base = {g.root} | ana.special
        extra = [v for v in range(g.n) if v not in base]
        rng.shuffle(extra)
        s = base | set(extra[:rng.randint(0, len(extra))])
        try:
            dec = decompose_bipaths(dc, s)
        except Exception:
            violations += 1
            continue
        for p in dec.paths:
            if p.extremities[0] == p.extremities[1]:
                violations += 1
            if any(w in s for w in p.internals):
                violations += 1
        if not ana.report["all_length_bounds_ok"]:
            violations += 1
    return SuiteResult("structure", violations == 0,
                       {"instances": len(corpus), "violations": violations,
                        "paths_seen": paths_seen})


def _iob_random_instance(rng: random.Random, max_n: int) -> IobInstance:
    style = rng.randrange(3)
    if style == 0:
        n = rng.randint(2, max_n)
        g = gen_random(n, rng.randint(n, 3 * n), rng.randrange(1 << 30),
                       bidi_prob=rng.uniform(0, 0.4))
    else:
        core = rng.randint(1, 3)
        g = gen_iob_twins(rng.randint(2, 5), rng.randint(1, 3),
                          rng.randrange(1 << 30), twin_factor=core)
        if g.n > max_n:
            g = gen_random(rng.randint(2, max_n), 2 * max_n, rng.randrange(1 << 30))
    k = rng.randint(0, max(1, g.n - 1))
    return IobInstance(g, k)


def verify_local_search(trials: int = 1000, max_n: int = 9, seed: int = 0) -> SuiteResult:
    """The search returns either a branching with >= k internal vertices
    (witness-checked) or a verified vertex cover of size <= 2k-1 that
    contains the root."""
    rng = random.Random(seed)
    violations = 0
    yes_count = vc_count = 0
    for _ in range(trials):
        inst = _iob_random_instance(rng, max_n)
        res = vc_or_solution(inst)
        if isinstance(res, OutBranching):
            yes_count += 1
            if not res.is_valid_for(inst.graph) or res.internal_count() < inst.k:
                violations += 1
        else:
            vc_count += 1
            if inst.graph.root not in res:
                violations += 1
            if len(res) > max(2 * inst.k - 1, 1):
                violations += 1
            if any(u not in res and v not in res for u, v in inst.graph.arcs()):
                violations += 1
    return SuiteResult("local-search", violations == 0,
                       {"trials": trials, "yes": yes_count, "vc": vc_count,
                        "violations": violations})


def _first_crown(d: RootedDigraph, cover: set[int]) -> Optional[CrownStep]:
    """The crown of the first class, in key order, larger than twice its
    auxiliary neighborhood, built member by member on the whole auxiliary
    graph (``build_aux_graph``, ``class_hood``, ``crown_in_class``); None
    when no class is that large."""
    b = build_aux_graph(d, cover)
    classes = classify_by_modulator(d, cover, 4).classes
    for key in sorted(classes):
        members = set(classes[key])
        hood = class_hood(b, members)
        if len(members) > 2 * len(hood):
            return CrownStep(key, tuple(sorted(crown_in_class(b, members, hood).c_u)))
    return None


def verify_crown(firings: int = 500, max_n: int = 9, seed: int = 0) -> SuiteResult:
    """Fixed-k equivalence of every crown removal, oracle-checked, plus
    structural validity of each crown (checked once, when it is built).
    Each trace step must equal the first crown that the member-by-member
    reference builds on the graph left so far: over the carried cover,
    else over a new local search's. The reference shares only the
    augmenting search (``augmenting_matching``) with the pass."""
    rng = random.Random(seed)
    fired = 0
    violations = 0
    trials = 0
    while fired < firings and trials < 400 * firings:
        trials += 1
        rng.randint(2, 4)  # unused draw, kept so the seeded corpus stays the same
        k0, d0, s0 = rng.randint(2, 4), rng.randint(1, 3), rng.randrange(1 << 30)
        g = gen_iob_twins(k0, d0, s0, twin_factor=2)
        if g.n > max_n:
            continue
        perm = random.Random(s0).sample(range(g.n), g.n)  # so that key ranks shift too
        g = RootedDigraph(g.n, perm[g.root], [(perm[u], perm[v]) for u, v in g.arcs()])
        k = rng.randint(1, 5)
        _, trace = kernelize_iob(IobInstance(g, k), threshold=4)
        current, cover = g, None
        for step in trace:
            fresh = cover and _first_crown(current, cover)
            if not fresh:  # the pass is over; a new local search starts the next one
                cover = vc_or_solution(IobInstance(current, k))
                fresh = _first_crown(current, cover)
            fired += 1
            if fresh != step:
                violations += 1
                break
            nxt, mapping = remove_vertices(current, step.removed)
            before = solve_branch_and_bound(current, None, SolveMode.INTERNAL)
            after = solve_branch_and_bound(nxt, None, SolveMode.INTERNAL)
            if not (before.exact and after.exact):
                raise RuntimeError("oracle budget exceeded in crown check")
            if (before.best_value >= k) != (after.best_value >= k):
                violations += 1
            current, cover = nxt, {mapping[x] for x in cover}
    return SuiteResult("crown", violations == 0 and fired >= firings,
                       {"firings": fired, "violations": violations})


def verify_iob_kernel_size(seed: int = 0) -> SuiteResult:
    """Kernelize the twin-heavy family at d = 2, 3, three inputs for each
    even k from 4 to 16, and check the size accounting: cover <= 2k-1,
    every retained class within its structural bound (asserted inside the
    kernelizer), and a per-d linear fit of size against k, R^2 >= 0.6."""
    rng = random.Random(seed)
    violations = 0
    detail: dict = {}
    runs = 0
    for d in (2, 3):
        xs, ys = [], []
        for k in range(4, 17, 2):
            for rep in range(3):
                g = gen_iob_twins(k, d, rng.randrange(1 << 30))
                out, _ = kernelize_iob(IobInstance(g, k))
                runs += 1
                if not isinstance(out, ReducedOutcome):
                    violations += 1
                    continue
                if len(out.classing.modulator) > max(2 * k - 1, 1):
                    violations += 1
                xs.append(float(k))
                ys.append(float(out.instance.graph.n))
        slope, _, r2 = linear_fit(xs, ys)
        detail[f"slope_d{d}"] = round(slope, 2)
        detail[f"r2_d{d}"] = round(r2, 3)
        if r2 < 0.6:
            violations += 1
    detail.update({"runs": runs, "violations": violations})
    return SuiteResult("iob-kernel-size", violations == 0, detail)


def verify_lob_kernel_size(seed: int = 0, timeout: float = 30.0) -> SuiteResult:
    """Empirical stand-in for the linear-kernel theorem: reduced size
    against oracle maxleaf fits a line through the origin with high R^2
    over sparse planar inputs of 10k vertices, three for k = 2..10. Every
    core must be solved exactly within ``timeout``; an inexact one fails."""
    rng = random.Random(seed)
    ks = range(2, 11)
    points = []
    inexact = 0
    violations = 0
    for k in ks:
        for keep in (0.2, 0.25, 0.3):
            g = gen_planar(10 * k, rng.randrange(1 << 30), both_prob=0.1, keep_prob=keep)
            out, _ = reduce_to_fixpoint(LobInstance(g, k))
            if not isinstance(out, ReducedOutcome):
                violations += 1
                continue
            red = out.instance.graph
            res = solve_branch_and_bound(red, None, SolveMode.LEAF, timeout=timeout)
            if not res.exact:
                inexact += 1
                continue
            points.append((res.best_value, red.n))
    if len(points) < max(6, len(ks)):
        return SuiteResult("lob-kernel-size", False,
                           {"points": len(points), "inexact": inexact,
                            "reason": "too few exact points"})
    c, _, r2 = linear_fit([p[0] for p in points], [p[1] for p in points],
                          through_origin=True)
    ratio_max = max(y / max(1.0, x) for x, y in points)
    passed = violations == 0 and inexact == 0 and r2 >= 0.9
    return SuiteResult("lob-kernel-size", passed,
                       {"points": len(points), "inexact": inexact,
                        "fitted_constant": round(c, 3), "r2": round(r2, 3),
                        "max_ratio": round(ratio_max, 3)})


def verify_counting(graphs: int = 30, seed: int = 0) -> SuiteResult:
    """Counting lemmas on planar corpora: the heavy-degree sum bound on
    bipartite views (with exact degeneracy) and both neighborhood-
    diversity bounds at p = 3."""
    rng = random.Random(seed)
    p = 3
    violations = 0
    checks = 0
    for _ in range(graphs):
        n = rng.randint(30, 150)
        g = gen_planar(n, rng.randrange(1 << 30),
                       both_prob=rng.uniform(0, 0.5),
                       keep_prob=rng.uniform(0.3, 1.0))
        adj = underlying_adjacency(g)
        for _ in range(3):
            size = rng.randint(max(1, n // 10), max(2, n // 3))
            x = set(rng.sample(range(n), size))
            classing = classify_by_modulator(g, x, threshold=2 * p)
            if not heavy_count_bound_ok(classing):
                violations += 1
            if not class_count_bound_ok(classing, p):
                violations += 1
            # bipartite view between x and the rest
            bip = [set() for _ in range(n)]
            for u in range(n):
                for v in adj[u]:
                    if (u in x) != (v in x):
                        bip[u].add(v)
            d_view = degeneracy(bip).d
            y_degs = [len(bip[v]) for v in range(n) if v not in x]
            if not heavy_degree_sum_check(len(x), y_degs, d_view):
                violations += 1
            checks += 3
    return SuiteResult("counting", violations == 0,
                       {"graphs": graphs, "checks": checks,
                        "violations": violations})


# Each suite: its function, the keywords that --trials t sets (None where
# the suite reads no --trials), and whether --max-n sets its max_n.
SUITES = {
    "rules": (verify_rules, lambda t: {"trials": t}, True),
    "oracle": (verify_oracle, lambda t: {"trials": max(10, t // 3)}, False),
    "bounds": (verify_bounds, lambda t: {"instances": t}, False),
    "structure": (verify_structure, lambda t: {"instances": t}, False),
    "local-search": (verify_local_search, lambda t: {"trials": t}, True),
    "crown": (verify_crown, lambda t: {"firings": t}, True),
    "iob-kernel-size": (verify_iob_kernel_size, None, False),
    "lob-kernel-size": (verify_lob_kernel_size, None, False),
    "counting": (verify_counting, lambda t: {"graphs": max(5, t // 30)}, False),
}


def run_suites(names, trials=None, max_n=None, seed=0) -> Iterator[SuiteResult]:
    """The named suites' results, each suite run when its result is asked
    for, --trials and --max-n set as SUITES says. Raises ValueError at the
    call, before any suite runs, for an unknown name or an unread option."""
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; available: {', '.join(SUITES)}")
    calls = []
    for name in names:
        fn, trials_kwargs, reads_max_n = SUITES[name]
        kwargs = {"seed": seed}
        if trials is not None:
            if trials_kwargs is None:
                raise ValueError(f"suite {name!r} does not read --trials")
            kwargs.update(trials_kwargs(trials))
        if max_n is not None:
            if not reads_max_n:
                raise ValueError(f"suite {name!r} does not read --max-n")
            kwargs["max_n"] = max_n
        calls.append((fn, kwargs))
    return (fn(**kwargs) for fn, kwargs in calls)
