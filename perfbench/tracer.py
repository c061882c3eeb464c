"""Per-layer tracing from outside the program.

``Tracer.install`` replaces each traced public function, by object
identity, in every ``sparse_outbranch.*`` module namespace that binds it,
so calls made through ``from .x import f`` names are caught too. Each call
becomes a span (name, start, end, parent span, instance id) on a span
stack; a span's self time is its duration minus that of its traced
children. Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import json
import sys
import time

LAYERS = {
    "digraph": ["cut_structure", "reachable", "is_connected", "contract_arc",
                "remove_vertices", "with_arcs_removed", "bfs_out_branching"],
    "lob_reducer": [f"find_rule_{i}" for i in range(1, 7)]
    + [f"apply_rule_{i}" for i in range(2, 7)] + ["reduce_to_fixpoint"],
    "lob_analyzer": ["analyze", "build_contracted", "special_vertices",
                     "isolated_vertices", "decompose_bipaths",
                     "classify_masters_slaves", "size_report"],
    "iob_kernel": ["kernelize_iob", "vc_or_solution", "build_aux_graph",
                   "small_degree_classes", "crown_in_class", "validate_crown",
                   "apply_crown_rule", "iob_report"],
    "sparsity": ["degeneracy"],
    "oracle": ["solve_branch_and_bound"],
    "instance_io": ["load_instance", "save_instance"],
    "cli": ["main"],
}
SPAN_NAMES = [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]

# Derived per-layer metrics, with their units and which way is better.
DERIVED = [
    ("lob_reducer.revalidate_share", "ratio", "lower"),
    ("iob_kernel.removed_per_round", "count", "higher"),
    ("oracle.exact_solve_s", "s", "lower"),
    ("oracle.inexact.calls", "count", "lower"),
    ("trace_overhead_ratio", "ratio", "lower"),
]


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) for every per-layer metric."""
    specs = []
    for name in SPAN_NAMES:
        specs.append((f"{name}.calls", "count", "lower"))
        specs.append((f"{name}.self_s", "s", "lower"))
    return specs + DERIVED


class Tracer:
    def __init__(self):
        self.instance = ""
        self.spans: list[tuple] = []   # (name, start, end, parent index, instance)
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self.stack: list[list] = []    # [name, start, child seconds, span index]
        self.revalidations = 0
        self.crown_removed = 0
        self.exact_solve_s = 0.0
        self.inexact = 0
        self.solves: list[dict] = []   # one row per exact-solver call

    def _wrap(self, name: str, fn):
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1][3] if stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            frame = [name, clock(), 0.0, index]
            stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                tracer.calls[name] += 1
                tracer.self_s[name] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                tracer.spans[index] = (name, frame[1], end, parent, tracer.instance)
                tracer._observe(name, args, kwargs, result, dur)

        traced.__wrapped__ = fn
        return traced

    def _observe(self, name, args, kwargs, result, dur) -> None:
        if name == "digraph.cut_structure":
            if any(f[0].startswith("lob_reducer.apply_rule_") for f in self.stack):
                self.revalidations += 1
        elif name == "iob_kernel.apply_crown_rule":
            self.crown_removed += len(args[1].c_u)
        elif name == "oracle.solve_branch_and_bound" and result is not None:
            k = args[1] if len(args) > 1 else kwargs.get("k")
            decided = k is not None and result.best_value >= k
            if result.exact:
                self.exact_solve_s += dur
            elif not decided:
                self.inexact += 1
            self.solves.append({"instance": self.instance, "n": args[0].n,
                                "m": args[0].m, "solve_s": round(dur, 6),
                                "exact": result.exact or decided})

    def install(self) -> None:
        """Swap every traced function for its wrapper, everywhere it is bound."""
        pkg = [m for name, m in sys.modules.items()
               if name.startswith("sparse_outbranch.") and m is not None]
        digraph = sys.modules["sparse_outbranch.digraph"]
        for mod, fns in LAYERS.items():
            home = sys.modules[f"sparse_outbranch.{mod}"]
            for fn in fns:
                name = f"{mod}.{fn}"
                if fn == "with_arcs_removed":
                    cls = digraph.RootedDigraph
                    cls.with_arcs_removed = self._wrap(name, cls.with_arcs_removed)
                    continue
                original = getattr(home, fn)
                wrapper = self._wrap(name, original)
                for m in pkg:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)

    def metrics(self, overhead_ratio: float) -> dict[str, float]:
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        cuts = self.calls["digraph.cut_structure"]
        rounds = self.calls["iob_kernel.apply_crown_rule"]
        out["lob_reducer.revalidate_share"] = self.revalidations / cuts if cuts else 0.0
        out["iob_kernel.removed_per_round"] = self.crown_removed / rounds if rounds else 0.0
        out["oracle.exact_solve_s"] = self.exact_solve_s
        out["oracle.inexact.calls"] = self.inexact
        out["trace_overhead_ratio"] = overhead_ratio
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, inst in self.spans:
                fh.write(json.dumps([name, round(start, 7), round(end, 7), parent, inst]))
                fh.write("\n")
