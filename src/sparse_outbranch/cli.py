"""Command-line surface: generate, reduce, kernelize, solve, verify, bench.

Exit codes are a stable contract: 0 for reduced/solved output, 10 for a
YES resolution, 20 for a NO resolution, 1 for input errors, failed
structural or contract checks and running out of memory (one ``error:``
line, no traceback). All randomness flows from --seed (or the
SPARSE_OUTBRANCH_SEED environment variable), so identical invocations
produce identical artifacts up to the timing fields of reports.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from typing import Callable, Optional

from .digraph import UnreachableError
from .generators import FAMILIES, RANGES, family_reads, generate
from .instance_io import InstanceFile, load_instance, save_instance, serialize_instance
from .iob_kernel import IobInstance, iob_report, kernelize_iob
from .lob_analyzer import analyze
from .lob_reducer import LobInstance, reduce_to_fixpoint
from .oracle import SolveMode, solve_branch_and_bound
from .outcomes import NoOutcome, ReducedOutcome, YesOutcome

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_YES = 10
EXIT_NO = 20
OUTCOME_EXIT = {"yes": EXIT_YES, "no": EXIT_NO, "reduced": EXIT_OK}
# value types that both JSON encoders write alike, whatever the separators
_SCALARS = {str, int, float, bool, type(None)}


def _default_seed() -> int:
    env = os.environ.get("SPARSE_OUTBRANCH_SEED")
    try:
        return int(env) if env else 0
    except ValueError:
        raise ValueError(
            f"SPARSE_OUTBRANCH_SEED must be an integer, got {env!r}") from None


def _number(low: float, kind: type = int, noun: str = "an integer",
            above: bool = False) -> Callable[[str], float]:
    """Type of a number option: ``kind`` of the text, below infinity and at
    least ``low`` (above ``low`` when ``above``). Any other text, NaN
    included, is a bad command line."""
    def parse(text: str) -> float:
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        if not (low < value if above else low <= value) or not value < math.inf:
            raise argparse.ArgumentTypeError(
                f"expected {noun} {'>' if above else '>='} {low}, got {text!r}")
        return value
    return parse


def _write_json(path: Optional[str], payload: dict) -> None:
    """Write ``json.dumps(payload, indent=2, sort_keys=True)`` and a newline
    to `path` ('-' for stdout). ``indent`` takes the pure-Python encoder,
    so a top-level ``vertex_map`` of scalars, one entry per input vertex,
    goes through the C encoder instead: its separators give the entries
    the layout that ``indent`` gives them at that depth, and the entries
    are spliced into the text of the rest of the report."""
    if path is None:
        return
    vertex_map = payload.get("vertex_map")
    if (isinstance(vertex_map, dict) and vertex_map
            and set(map(type, vertex_map.values())) <= _SCALARS):
        text = json.dumps({**payload, "vertex_map": {}}, indent=2, sort_keys=True)
        entries = json.dumps(vertex_map, sort_keys=True, separators=(",\n    ", ": "))
        # a line that opens with two spaces and a quote holds a top-level key
        text = text.replace('\n  "vertex_map": {}',
                            '\n  "vertex_map": {\n    ' + entries[1:-1] + "\n  }", 1)
    else:
        text = json.dumps(payload, indent=2, sort_keys=True)
    if path == "-":
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _finish(args, report: dict, outcome: str, line: str, **fields) -> int:
    """End a pipeline command: record ``outcome`` and ``fields`` in the
    report, write it to ``--json``, print the verdict line and return the
    outcome's exit code."""
    report.update(outcome=outcome, **fields)
    _write_json(args.json, report)
    print(line)
    return OUTCOME_EXIT[outcome]


def _trace_summary(trace) -> dict:
    counts: dict[str, int] = {}
    for step in trace:
        tag = getattr(step, "rule_id", None)
        key = f"rule{tag}" if tag is not None else "crown"
        counts[key] = counts.get(key, 0) + 1
    return counts


def _dot_export(path: str, inst: LobInstance, ana) -> None:
    dc = ana.contracted
    colors = {}
    for v in ana.special:
        colors[v] = "tomato"
    for v in ana.isolated:
        colors[v] = "skyblue"
    for p in ana.decomposition.paths:
        for w in p.internals:
            colors.setdefault(w, "palegreen")
    lines = ["digraph reduced {"]
    g = inst.graph
    for v in range(g.n):
        attrs = []
        cls = colors.get(dc.origin[v])
        if cls:
            attrs.append(f'style=filled fillcolor="{cls}"')
        if v == g.root:
            attrs.append("shape=doublecircle")
        lines.append(f'  {v} [{" ".join(attrs)}];' if attrs else f"  {v};")
    for u, v in g.arcs():
        lines.append(f"  {u} -> {v};")
    lines.append("}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _load(path: str, expect_kind: Optional[str] = None) -> InstanceFile:
    inst = load_instance(path)
    for w in inst.warnings:
        print(f"warning: {w}", file=sys.stderr)
    if expect_kind is not None and inst.kind != expect_kind:
        raise ValueError(f"expected a {expect_kind} instance, got {inst.kind}")
    return inst


def cmd_reduce_lob(args) -> int:
    f = _load(args.file, "lob")
    inst = LobInstance(f.graph, f.k)
    report: dict = {
        "command": "reduce-lob",
        "input": {"n": f.graph.n, "m": f.graph.m, "root": f.graph.root, "k": f.k},
    }
    t0 = time.monotonic()
    outcome, trace = reduce_to_fixpoint(inst)
    report["timing"] = {"reduce_s": round(time.monotonic() - t0, 3)}
    report["trace_summary"] = _trace_summary(trace)
    if isinstance(outcome, NoOutcome):
        return _finish(args, report, "no", f"NO: {outcome.reason}", reason=outcome.reason)
    reduced = outcome.instance
    report["reduced"] = {"n": reduced.graph.n, "m": reduced.graph.m}
    t1 = time.monotonic()
    ana = analyze(reduced, check=False)
    report["timing"]["analyze_s"] = round(time.monotonic() - t1, 3)
    report["certificate"] = ana.report["certificate"]
    report["size_report"] = ana.report
    if args.dot:
        _dot_export(args.dot, reduced, ana)
    if ana.cert.accepted:
        return _finish(args, report, "yes",
                       f"YES: certificate {ana.cert.decision} "
                       f"(sp={ana.cert.special_count}, iso={ana.cert.isolated_count}, "
                       f"sl={ana.cert.slave_count}, k={f.k})",
                       decision_source="certificate")
    if args.accept_constant is not None and reduced.graph.n > args.accept_constant * f.k:
        return _finish(args, report, "yes",
                       f"YES: size {reduced.graph.n} exceeds c*k = {args.accept_constant * f.k}",
                       decision_source="accept-constant")
    if reduced.graph.n <= args.solve_max_n:
        t2 = time.monotonic()
        res = solve_branch_and_bound(reduced.graph, f.k, SolveMode.LEAF,
                                     timeout=args.budget)
        report["timing"]["solve_s"] = round(time.monotonic() - t2, 3)
        if res.best_value >= f.k:
            return _finish(args, report, "yes",
                           f"YES: reduced core solved, maxleaf >= {res.best_value}",
                           decision_source="exact-solve")
        if res.exact:
            return _finish(args, report, "no",
                           f"NO: reduced core solved, maxleaf = {res.best_value} < k = {f.k}",
                           decision_source="exact-solve")
    out_path = args.out or (args.file + ".reduced")
    save_instance(out_path, "lob", reduced.graph, reduced.k,
                  comments=[f"reduced from {os.path.basename(args.file)}"])
    return _finish(args, report, "reduced",
                   f"REDUCED: {f.graph.n} -> {reduced.graph.n} vertices, written to {out_path}",
                   output_file=out_path)


def cmd_kernelize_iob(args) -> int:
    f = _load(args.file, "iob")
    inst = IobInstance(f.graph, f.k)
    report: dict = {
        "command": "kernelize-iob",
        "input": {"n": f.graph.n, "m": f.graph.m, "root": f.graph.root, "k": f.k},
    }
    t0 = time.monotonic()
    outcome, trace = kernelize_iob(inst, threshold=args.threshold)
    report["timing"] = {"kernelize_s": round(time.monotonic() - t0, 3)}
    report["trace_summary"] = _trace_summary(trace)
    if isinstance(outcome, YesOutcome):
        tree = outcome.certificate
        lines = [f"YES: branching with {tree.internal_count()} internal vertices"]
        lines += [f"  parent[{v}] = {tree.parent[v]}" for v in sorted(tree.parent)]
        return _finish(args, report, "yes", "\n".join(lines),
                       internal_count=tree.internal_count())
    if isinstance(outcome, NoOutcome):
        return _finish(args, report, "no", f"NO: {outcome.reason}", reason=outcome.reason)
    reduced = outcome.instance
    new_id: list[Optional[int]] = [None] * f.graph.n
    for i, x in enumerate(outcome.origin):
        new_id[x] = i
    report["kernel"] = iob_report(reduced, outcome.classing)
    report["vertex_map"] = dict(zip(map(str, range(f.graph.n)), new_id))
    out_path = args.out or (args.file + ".kernel")
    comments = [f"kernel of {os.path.basename(args.file)}"]
    comments += [f"map {x} {i}" for i, x in enumerate(outcome.origin)]
    save_instance(out_path, "iob", reduced.graph, reduced.k, comments=comments)
    return _finish(args, report, "reduced",
                   f"REDUCED: {f.graph.n} -> {reduced.graph.n} vertices, written to {out_path}",
                   output_file=out_path)


def cmd_solve(args) -> int:
    inst = _load(args.file)
    if args.mode == "auto":
        mode = SolveMode.LEAF if inst.kind == "lob" else SolveMode.INTERNAL
    else:
        mode = SolveMode(args.mode)
    t0 = time.monotonic()
    try:
        res = solve_branch_and_bound(inst.graph, None, mode, timeout=args.budget)
    except UnreachableError:
        return _finish(args, {"command": "solve"}, "no",
                       "NO: vertex unreachable from root (no out-branching exists)",
                       reason="vertex unreachable from root")
    elapsed = time.monotonic() - t0
    report = {
        "command": "solve",
        "mode": mode.value,
        "input": {"n": inst.graph.n, "m": inst.graph.m, "k": inst.k},
        "best_value": res.best_value,
        "exact": res.exact,
        "stats": {"nodes": res.nodes},
        "timing": {"solve_s": round(elapsed, 3)},
    }
    _write_json(args.json, report)
    print(f"{mode.value} optimum{'' if res.exact else ' (lower bound: timed out)'}: "
          f"{res.best_value}")
    if res.witness is not None:
        arcs = " ".join(f"{p}->{v}" for v, p in sorted(res.witness.parent.items()))
        print(f"witness: {arcs}")
    if not res.exact:
        return EXIT_OK
    return OUTCOME_EXIT["yes" if res.best_value >= inst.k else "no"]


def cmd_verify(args) -> int:
    from . import verify as verify_mod
    names = list(verify_mod.SUITES) if args.suite == "all" else args.suite.split(",")
    ok = True
    # each line is printed as its suite finishes, so a suite that raises
    # leaves the lines of those before it
    for res in verify_mod.run_suites(names, args.trials, args.max_n, args.seed):
        print(res.summary(), flush=True)
        ok = ok and res.passed
    print("ALL SUITES PASS" if ok else "SUITE FAILURES PRESENT")
    return EXIT_OK if ok else EXIT_ERROR


def cmd_gen(args) -> int:
    # the family options set on the command line; generate refuses any the family does not read
    params = {name: value for name, value in vars(args).items()
              if name in RANGES.keys() - {"n", "k"} and value is not None}
    g = generate(args.family, args.n, args.k, args.seed, **params)
    kind = args.kind or ("iob" if args.family == "iob-twins" else "lob")
    reads = family_reads(args.family)
    sized = [f"n={reads['n'] if args.n is None else args.n}"] if "n" in reads else []
    comment = " ".join([f"family={args.family}", *sized, f"k={args.k}", f"seed={args.seed}",
                        *(f"{name}={value}" for name, value in sorted(params.items()))])
    if args.out in (None, "-"):
        sys.stdout.write(serialize_instance(kind, g, args.k, comments=[comment]))
    else:
        save_instance(args.out, kind, g, args.k, comments=[comment])
    return EXIT_OK


def cmd_bench(args) -> int:
    import csv
    if args.k_max < args.k_min:
        raise ValueError(f"--k-max {args.k_max} is below --k-min {args.k_min}")
    lob = args.family in ("planar", "bipath-chain")
    # the workload's planar inputs are sparser than gen's; d keeps gen's default
    params = {"both_prob": 0.1, "keep_prob": 0.25} if args.family == "planar" else {}
    params.update({} if args.d is None else {"d": args.d})
    reads_n = "n" in family_reads(args.family)
    if args.scale is not None and not reads_n:
        raise ValueError(f"family {args.family!r} does not read scale")
    rows = []
    for k in range(args.k_min, args.k_max + 1):
        for rep in range(args.reps):
            seed = args.seed * 1_000_003 + 101 * k + rep
            n = max(8, (args.scale or 10) * k) if reads_n else None
            g = generate(args.family, n, k, seed, **params)
            t0 = time.monotonic()
            outcome, _ = (reduce_to_fixpoint(LobInstance(g, k)) if lob
                          else kernelize_iob(IobInstance(g, k)))
            row = {"family": args.family, "kind": "lob" if lob else "iob", "k": k,
                   "rep": rep, "seed": seed, "n_input": g.n, "m_input": g.m,
                   "outcome": outcome.status, "n_out": "", "m_out": "",
                   "cover_size": "", "elapsed_s": round(time.monotonic() - t0, 3)}
            if isinstance(outcome, ReducedOutcome):
                red = outcome.instance.graph
                row.update(n_out=red.n, m_out=red.m)
                if not lob:
                    row["cover_size"] = len(outcome.classing.modulator)
            rows.append(row)
    out = sys.stdout if args.csv in (None, "-") else open(args.csv, "w", newline="")
    try:
        writer = csv.DictWriter(out, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if out is not sys.stdout:
            out.close()
    sized = [(r["k"], r["n_out"]) for r in rows if r["outcome"] == "reduced"]
    if len(sized) >= 3 and len({k for k, _ in sized}) > 1:
        from . import verify as verify_mod
        slope, intercept, r2 = verify_mod.linear_fit([k for k, _ in sized],
                                                     [n for _, n in sized])
        print(f"fit: kernel_size ~ {slope:.2f}*k + {intercept:.2f} (R^2 = {r2:.3f})",
              file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparse-outbranch",
        description="Kernelization toolkit for rooted out-branching problems "
                    "on sparse digraphs.")
    sub = parser.add_subparsers(dest="command", required=True)
    # a NaN or infinite deadline never passes, so it would mean no budget
    budget = _number(0, float, "a finite number of seconds")

    p = sub.add_parser("reduce-lob", help="apply the leaf-out-branching reduction rules")
    p.add_argument("file")
    p.add_argument("--json", help="write a JSON report here ('-' for stdout)")
    p.add_argument("--dot", help="write a colored DOT rendering of the reduced graph")
    p.add_argument("--out", help="path for the reduced instance file")
    # at 0 or below every reduced instance would pass c*k, and at NaN none
    p.add_argument("--accept-constant", type=_number(0, float, "a finite number", above=True),
                   default=None,
                   help="accept when the reduced size exceeds this constant times k")
    p.add_argument("--solve-max-n", type=int, default=12,
                   help="solve reduced cores up to this size exactly")
    p.add_argument("--budget", type=budget, default=60.0,
                   help="time budget for the exact solve, seconds")
    p.set_defaults(fn=cmd_reduce_lob)

    p = sub.add_parser("kernelize-iob", help="run the internal-out-branching crown kernel")
    p.add_argument("file")
    p.add_argument("--json")
    p.add_argument("--out")
    # at 1 all of W is heavy, since every W vertex has a cover neighbor,
    # and no crown can fire
    p.add_argument("--threshold", type=_number(2), default=None,
                   help="degree threshold separating small/heavy remainder "
                        "vertices, at least 2 (default: twice the degeneracy, "
                        "at least 2)")
    p.set_defaults(fn=cmd_kernelize_iob)

    p = sub.add_parser("solve", help="solve an instance exactly by branch and bound")
    p.add_argument("file")
    p.add_argument("--mode", choices=["leaf", "internal", "auto"], default="auto")
    p.add_argument("--budget", type=budget, default=60.0,
                   help="time budget for the exact solve, seconds")
    p.add_argument("--json")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("verify", help="run randomized verification suites")
    p.add_argument("--suite", default="all",
                   help="comma-separated suite names, or 'all'")
    # at --trials 0 a suite checks nothing and still passes; --max-n 1
    # leaves the local search an empty range of sizes
    p.add_argument("--trials", type=_number(1), default=None)
    p.add_argument("--max-n", type=_number(2), default=None)
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("gen", help="generate a seeded instance")
    p.add_argument("family", choices=sorted(FAMILIES))
    p.add_argument("--n", type=int, help="vertex count (default 20; iob-twins reads k instead)")
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--seed", type=int)
    p.add_argument("--kind", choices=["lob", "iob"], default=None)
    p.add_argument("--out", help="output file (default stdout)")
    p.add_argument("--d", type=int, default=None, help="degeneracy parameter")
    p.add_argument("--m", type=int, default=None, help="arc count for the random family")
    p.add_argument("--both-prob", type=float, default=None)
    p.add_argument("--keep-prob", type=float, default=None)
    p.add_argument("--twin-factor", type=int, default=None)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("bench", help="kernel size versus k as CSV")
    p.add_argument("--family", default="planar",
                   choices=["planar", "bipath-chain", "degenerate", "iob-twins"])
    p.add_argument("--k-min", type=int, default=2)
    p.add_argument("--k-max", type=int, default=10)
    # at --reps 0 only a header, and below --scale 1 every n is 8
    p.add_argument("--reps", type=_number(1), default=3)
    p.add_argument("--scale", type=_number(1), default=None,
                   help="input size per unit of k (default 10; iob-twins reads k alone)")
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--seed", type=int)
    p.add_argument("--csv", help="CSV output path (default stdout)")
    p.set_defaults(fn=cmd_bench)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    try:
        seed = _default_seed()  # read on every call, so a bad value fails every command
        args = _parser().parse_args(argv)
        if getattr(args, "seed", 0) is None:
            args.seed = seed
        return args.fn(args)
    except (ValueError, OSError, RuntimeError) as exc:
        # RuntimeError covers lob_analyzer.StructureError, the reducers'
        # missing fixpoint and broken contract checks
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError:  # its message is empty
        print("error: out of memory", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
