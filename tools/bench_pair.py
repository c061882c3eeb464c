"""Paired benchmark of two checkouts on one workload.

    python3 tools/bench_pair.py OLD_DIR NEW_DIR --workload iob-kernel \\
        --seed 17 --pairs 10 --label iob-kernel-ranks

Runs ``perfbench/run.py`` (``--trace 0``) from the root of each checkout,
one run of each per pair, for ``--pairs`` pairs (at least 2, so that each
side has quartiles); the side that runs first alternates from pair to
pair. Both sides run for ``run_seconds`` from the new checkout's
``BENCHMARK.json``. Writes ``BENCH_<label>.json`` into the
current directory with, for every end-to-end metric that ``BENCHMARK.json``
declares: each side's runs, median and quartiles, the pairs the new side
wins (ties count for neither side), and whether the medians differ by more
than the old side's interquartile range. The provenance line of each side
(commit, Python, CPU) is kept. Exits 1 when a run fails its output checks.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(result, provenance) of one benchmark run from ``checkout``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 2 or not lines:
        raise SystemExit(f"bench_pair: {checkout}: benchmark did not run\n{proc.stderr[-2000:]}")
    prov = json.loads(lines[0].split("provenance=", 1)[1])
    return json.loads(lines[-1]), prov


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"runs": values, "median": median, "q1": q1, "q3": q3}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", help="checkout of the parent commit")
    ap.add_argument("new", help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--label", required=True)
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error("--pairs must be at least 2: quartiles need two runs a side")
    with open(os.path.join(args.new, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]

    results: dict[str, list[dict]] = {"old": [], "new": []}
    provenance: dict[str, dict] = {}
    for i in range(args.pairs):
        order = ("old", "new") if i % 2 == 0 else ("new", "old")
        for side in order:
            res, provenance[side] = run_once(getattr(args, side), args.workload,
                                             args.seed, seconds)
            results[side].append(res)
            print(f"pair {i + 1}/{args.pairs} {side}: correct={res['correct']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
                  flush=True)

    metrics = {}
    for spec in bench["end_to_end"]:
        name = spec["name"]
        old = [r["metrics"][name]["value"] for r in results["old"]]
        new = [r["metrics"][name]["value"] for r in results["new"]]
        sign = 1 if spec["better"] == "lower" else -1
        wins = sum(sign * (o - n) > 0 for o, n in zip(old, new))
        losses = sum(sign * (o - n) < 0 for o, n in zip(old, new))
        old_s, new_s = summary(old), summary(new)
        metrics[name] = {
            "unit": spec["unit"], "better": spec["better"], "old": old_s, "new": new_s,
            "new_wins": wins, "new_losses": losses,
            "median_change": new_s["median"] - old_s["median"],
            "exceeds_old_iqr": abs(new_s["median"] - old_s["median"]) > old_s["q3"] - old_s["q1"],
        }
    correct = all(r["correct"] for side in results.values() for r in side)
    report = {
        "label": args.label, "workload": args.workload, "seed": args.seed,
        "pairs": args.pairs, "seconds": seconds, "order": "old first in odd pairs",
        "correct": correct,
        "failed": {side: sum(r["failed"] for r in runs) for side, runs in results.items()},
        "attempted": {side: sum(r["attempted"] for r in runs) for side, runs in results.items()},
        "provenance": provenance, "metrics": metrics,
    }
    out = f"BENCH_{args.label}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    for name, m in metrics.items():
        print(f"{name}: old {m['old']['median']:.4g} [{m['old']['q1']:.4g}, {m['old']['q3']:.4g}]"
              f" new {m['new']['median']:.4g} [{m['new']['q1']:.4g}, {m['new']['q3']:.4g}]"
              f" wins {m['new_wins']}/{args.pairs}")
    print(f"wrote {out}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
