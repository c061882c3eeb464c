"""Benchmark entry point: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload lob-reduce --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/``. Workloads, metrics and their predicted moves are described in
``perfbench/DESIGN.md``. Each step runs in a fresh interpreter
(``worker.py``): eight set-up-only children and then the measuring child,
whose own set-up is the ninth ``setup_s`` sample. With ``--trace 0`` the
result holds the end-to-end metrics; with ``--trace 1`` the per-layer
ones from a traced pass. Human-readable lines precede the result, which is
the last line of stdout. The exit code is 1 when any output check fails
and 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_ONLY_CHILDREN = 8
RUN_TIMEOUT_S = 170  # all children together; the result must come within 180 s


def _provenance(root: str) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    head = os.path.join(root, ".git", "HEAD")
    if os.path.exists(head):
        with open(head, encoding="ascii") as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(root, ".git", ref[5:])
            if os.path.exists(ref_path):
                with open(ref_path, encoding="ascii") as fh:
                    commit = fh.read().strip()
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "commit": commit}


def _child(root: str, args, mode: str, deadline: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", root,
           "--workload", args.workload, "--seed", str(args.seed), "--mode", mode,
           "--seconds", str(args.seconds)]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"perfbench: {mode} child failed with exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _per_instance(names: list[str], passes: list[dict]) -> list[dict]:
    """One row per instance over all passes: median time (measured and at
    reference speed), failures, the distinct output digests, and the exact
    optima and lower bounds found."""
    rows = []
    for i, name in enumerate(names):
        runs = [rows_of_pass[i] for rows_of_pass in passes]
        solved = [r["optimum"] for r in runs if r["optimum"] is not None]
        rows.append({"instance": name,
                     "median_s": statistics.median(r["s"] for r in runs),
                     "median_ref_s": statistics.median(r["ref_s"] for r in runs),
                     "runs": len(runs),
                     "failures": [r["failure"] for r in runs if r["failure"]],
                     "verdicts": sum(r["verdict"] for r in runs),
                     "digests": sorted({r["digest"] for r in runs if r["digest"]}),
                     "optima": sorted({value for value, exact in solved if exact}),
                     "bounds": [value for value, exact in solved if not exact]})
    return rows


def _problems(rows: list[dict], digest: str, reference: dict, seed: int) -> list[str]:
    """Failed checks, outputs that differ between passes, and differences
    from the recorded reference (digest per seed, optimum per core)."""
    problems = [f for r in rows for f in r["failures"] if f.startswith("check:")]
    problems += [f"{r['instance']}: passes disagree" for r in rows
                 if len(r["digests"]) > 1 or len(r["optima"]) > 1]
    expected = reference.get(str(seed), reference.get("*"))
    if expected is not None and expected != digest:
        problems.append(f"output digest {digest} differs from reference {expected}")
    for r in rows:
        best = reference.get("optima", {}).get(r["instance"])
        if best is not None and (any(v != best for v in r["optima"])
                                 or any(v > best for v in r["bounds"])):
            problems.append(f"{r['instance']}: optimum differs from reference {best}")
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "sparse_outbranch", "cli.py")):
        print("perfbench: run from a checkout root holding src/sparse_outbranch",
              file=sys.stderr)
        return 2

    prov = _provenance(root)
    mode = "trace" if args.trace else "run"
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        setups = [_child(root, args, "setup", deadline)
                  for _ in range(SETUP_ONLY_CHILDREN)]
        res = _child(root, args, mode, deadline)
    except (SystemExit, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    setups.append(res)
    setup_ref = [s["setup_s"] for s in setups]

    names = [name for name, _ in res["instances"]]
    rows = _per_instance(names, res["passes"])
    attempted = sum(r["runs"] for r in rows)
    failed = sum(len(r["failures"]) for r in rows)
    digest = checks.digest(sorted([r["instance"], r["digests"]] for r in rows))
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh).get(args.workload, {})
    problems = _problems(rows, digest, reference, args.seed)
    correct = not problems

    print(f"perfbench {args.workload} seed={args.seed} mode={mode} "
          f"provenance={json.dumps(prov, sort_keys=True)}")
    for r in rows:
        fails = f" FAILED: {r['failures'][0]}" if r["failures"] else ""
        print(f"  {r['instance']:<16} {r['median_s']:9.4f} s {r['median_ref_s']:9.4f} "
              f"ref s  verdicts "
              f"{r['verdicts']}/{r['runs']}{fails}")
    print(f"  output digest {digest}; "
          + ("; ".join(problems) if problems else "all output checks passed"))

    if args.trace:
        layer = res["per_layer"]
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit, _ in tracer.metric_specs()}
        print("  exact-solver calls (instance, n, m, solve_s, exact):")
        for s in res["solves"]:
            print(f"    {s['instance']:<16} {s['n']:4d} {s['m']:4d} "
                  f"{s['solve_s']:9.4f} {s['exact']}")
        top = sorted((k for k in layer if k.endswith(".self_s")), key=layer.get)[-6:]
        shown = top[::-1] + ["lob_reducer.revalidate_share", "trace_overhead_ratio"]
        print(f"  {res['spans']} spans written; largest self times first:")
    else:
        times = [r["median_ref_s"] for r in rows]
        sizes = [n for _, n in res["instances"]]
        out_sizes = [row["out_n"] for row in res["passes"][0]]
        metrics = {
            "setup_s": {"value": statistics.median(setup_ref), "unit": "s"},
            "wall_ref_s": {"value": sum(times), "unit": "s"},
            "verdict_p50_ref_s": {"value": statistics.median(times), "unit": "s"},
            "verdict_ratio": {"value": sum(r["verdicts"] for r in rows) / attempted,
                              "unit": "ratio"},
            "kernel_ratio": {"value": sum(out_sizes) / sum(sizes), "unit": "ratio"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        shown = list(metrics)
        walls = ", ".join(f"{sum(r['s'] for r in p):.3f}" for p in res["passes"])
        print(f"  verdict_p50_ref_s is the median of {len(times)} instances, each "
              f"the median of {len(res['passes'])} passes (measured pass walls "
              f"{walls} s; measured one-pass wall from instance medians "
              f"{sum(r['median_s'] for r in rows):.4f} s)\n  setup samples "
              f"{[round(s, 4) for s in setup_ref]} ref s, measured "
              f"{[round(s['setup_measured_s'], 4) for s in setups]} s")
    for name in shown:
        print(f"  {name} = {metrics[name]['value']:.6g} {metrics[name]['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
