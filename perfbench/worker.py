"""One workload in one fresh interpreter: set up, then run timed passes.

    python3 perfbench/worker.py --root DIR --workload W --seed N --mode setup
    python3 perfbench/worker.py --root DIR --workload W --seed N --mode run --seconds S
    python3 perfbench/worker.py --root DIR --workload W --seed N --mode trace

Set-up imports ``sparse_outbranch`` from ``DIR/src`` and writes the
workload's instance files; its time is measured from before the imports
of this file and scaled to reference speed like the instance times.
``run`` then calls ``sparse_outbranch.cli.main(argv)`` on every instance,
pass after pass, until the next pass would overrun ``--seconds`` (at least
one pass). ``trace`` runs one untraced pass and one traced pass. The last
stdout line is a JSON object that ``run.py`` reads.

Every instance's time is also given at reference host speed (``ref_s``):
a fixed calibration loop is timed before and after each instance, and the
CLI time is scaled by ``REFERENCE_CALIBRATION_S`` / the mean of those two
times. The host is shared, and its speed drifts by 10-40 % over minutes;
the program and the loop slow down together, so the scaled time is steady
while a slower program still shows in full. A solve that stopped at its
wall-clock budget takes the budget whatever the host speed, so that step
is not scaled.
"""

from __future__ import annotations

import time

# The calibration loop's median time on the reference host (Intel Xeon,
# 2 vCPUs, Python 3); a scaled time is in seconds as that host would take.
CALIBRATION_LOOPS = 200_000
REFERENCE_CALIBRATION_S = 0.040


def calibration_s() -> float:
    """Time a fixed loop of integer arithmetic and dict stores."""
    start = time.perf_counter()
    total, table = 0, {}
    for i in range(CALIBRATION_LOOPS):
        total += i * i % 7
        table[i % 1000] = total
    return time.perf_counter() - start


_CALIBRATION_BEFORE_SETUP_S = calibration_s()
_T0 = time.perf_counter()

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import sys

import checks
import workloads


def setup(root: str, workload: str, seed: int, workdir: str):
    """Import the package and write the instance files; returns
    (cli module, instances, seconds since this file started importing,
    the same at reference speed)."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    from sparse_outbranch import cli
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"sparse_outbranch imported from {cli.__file__}, not {src}")
    instances = workloads.WORKLOADS[workload](seed)
    os.makedirs(workdir, exist_ok=True)
    for inst in instances:
        with open(os.path.join(workdir, inst.file), "w", encoding="utf-8") as fh:
            fh.write(inst.text)
    elapsed = time.perf_counter() - _T0
    scale = 2 * REFERENCE_CALIBRATION_S / (_CALIBRATION_BEFORE_SETUP_S + calibration_s())
    return cli, instances, elapsed, elapsed * scale


def _clean(inst) -> None:
    for suffix in (".reduced", ".kernel"):
        with contextlib.suppress(FileNotFoundError):
            os.remove(inst.file + suffix)


def _failure(elapsed: float, why: str) -> dict:
    return {"s": elapsed, "budget_s": 0.0, "verdict": False, "digest": None,
            "failure": why[:300], "out_n": 0, "optimum": None}


def _check_step(argv, code, stdout, inst, source, parts, problems):
    """Check one CLI step's outputs, appending its deterministic outputs to
    ``parts`` and what is wrong to ``problems``. Returns what the step found:
    the vertex count ``out_n`` of the core or kernel it wrote, or for
    ``solve`` the ``optimum`` as [value, exact]."""
    report = argv[argv.index("--json") + 1]
    if argv[0] == "solve":
        problems += checks.check_solve(argv[1], code, stdout, report)
        solved = json.loads(checks.read(report))
        return {"optimum": [solved["best_value"], solved["exact"]]}
    parts += [code, checks.stable_report(report)]
    if argv[0] == "reduce-lob":
        out_n = parts[-1].get("reduced", {}).get("n", 0)
        output = inst.file + ".reduced"
        if code == checks.EXIT_OK:
            problems += checks.check_reduced(source, output)
    else:
        problems += checks.check_kernel(source, code, report, inst.file + ".kernel")
        out_n = parts[-1]["kernel"]["n"] if code == checks.EXIT_OK else 0
        output = inst.file + ".kernel"
    if code == checks.EXIT_OK:
        parts.append(checks.read(output))
    return {"out_n": out_n}


def run_instance(cli, workload: str, inst) -> dict:
    """Run one instance's CLI steps, timing only the ``cli.main`` calls.
    Returns the elapsed time and the part of it spent in solves that
    stopped at their budget, whether an exact verdict came out, the failure
    (exception type, bad exit or failed check) if any, a digest of the
    deterministic outputs, the vertex count of the core or kernel written,
    and for ``solve`` its [value, exact] pair. The solve report is kept out
    of the digest: a faster solver may turn a budgeted lower bound into an
    exact optimum, which ``run.py`` checks against the reference optima."""
    _clean(inst)
    gc.collect()
    elapsed = budget_s = 0.0
    parts: list = []
    problems: list[str] = []
    found = {"out_n": 0, "optimum": None}
    source = checks.Graph(inst.text)
    for argv in workloads.steps(workload, inst):
        if argv[0] == "solve" and not os.path.exists(argv[1]):
            break  # reduce-lob decided the instance itself
        out = io.StringIO()
        t = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
        except (Exception, SystemExit) as exc:  # a crash is a counted failure
            elapsed += time.perf_counter() - t
            return _failure(elapsed, f"{argv[0]} raised {type(exc).__name__}: {exc}")
        step = time.perf_counter() - t
        elapsed += step
        if code == checks.EXIT_ERROR:
            return _failure(elapsed, f"{argv[0]} exited 1")
        try:
            found.update(_check_step(argv, code, out.getvalue(), inst, source,
                                     parts, problems))
        except (OSError, ValueError, LookupError, TypeError) as exc:
            problems.append(f"{argv[0]} output unreadable: {type(exc).__name__}: {exc}")
        if argv[0] == "solve" and found["optimum"] and not found["optimum"][1]:
            budget_s += step
    if problems:
        return _failure(elapsed, "check: " + "; ".join(problems))
    verdict = found["optimum"] is None or found["optimum"][1]
    return {"s": elapsed, "budget_s": budget_s, "verdict": verdict,
            "digest": checks.digest(parts), "failure": None, **found}


def run_pass(cli, workload: str, instances, tracer=None) -> list[dict]:
    """Run every instance once, with a calibration before, between and
    after them; adds each instance's time at reference speed (``ref_s``)."""
    rows = []
    before = calibration_s()
    for inst in instances:
        if tracer is not None:
            tracer.instance = inst.name
        row = run_instance(cli, workload, inst)
        after = calibration_s()
        scale = 2 * REFERENCE_CALIBRATION_S / (before + after)
        row["ref_s"] = (row["s"] - row["budget_s"]) * scale + row["budget_s"]
        rows.append(row)
        before = after
    return rows


def peak_rss_mb() -> float:
    """High-water resident set of this process, from /proc when available."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    args = ap.parse_args()
    workdir = os.path.join(args.root, ".perfbench", f"{args.workload}-seed{args.seed}")
    cli, instances, measured_s, setup_s = setup(args.root, args.workload, args.seed,
                                                workdir)
    result: dict = {"setup_s": setup_s, "setup_measured_s": measured_s,
                    "instances": [[i.name, i.n] for i in instances]}
    if args.mode != "setup":
        os.chdir(workdir)
        if args.mode == "run":
            passes, durations = [], []
            begin = time.perf_counter()
            while True:
                start = time.perf_counter()
                passes.append(run_pass(cli, args.workload, instances))
                durations.append(time.perf_counter() - start)
                if time.perf_counter() - begin + statistics.median(durations) > args.seconds:
                    break
            result["passes"] = passes
        else:
            from tracer import Tracer
            plain = run_pass(cli, args.workload, instances)
            tracer = Tracer()
            tracer.install()
            traced = run_pass(cli, args.workload, instances, tracer)
            result["passes"] = [plain, traced]
            overhead = sum(r["s"] for r in traced) / sum(r["s"] for r in plain)
            result["per_layer"] = tracer.metrics(overhead)
            result["solves"] = tracer.solves
            tracer.write_spans(os.path.join(workdir, "spans.jsonl"))
            result["spans"] = len(tracer.spans)
    result["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
