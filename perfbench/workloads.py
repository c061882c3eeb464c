"""The benchmark's three workloads: which instances each one generates and
which CLI pipeline each instance runs through.

Every instance is a file the workload writes itself (see ``gen``) plus a
list of CLI steps. A step that depends on an earlier one (``solve`` on the
``.reduced`` core) runs only when the earlier step wrote that core.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import gen

# Budget, in seconds, for every exact solve in lob-solve. The fixed corpus
# has a wide gap around it: its easy cores solve in under 0.1 s and its
# hard ones need more than 7 s, so the set of inexact cores does not depend
# on machine speed.
SOLVE_BUDGET_S = 1.0


@dataclass(frozen=True)
class Instance:
    name: str      # file stem, unique within the workload
    kind: str      # "lob" | "iob"
    n: int
    k: int
    text: str      # instance file contents

    @property
    def file(self) -> str:
        return f"{self.name}.{self.kind}"


def _lob_reduce(seed: int) -> list[Instance]:
    """Sparse planar digraphs (keep 0.25, both-ways 0.1) of two sizes,
    plus one bipath chain."""
    rng = random.Random(f"perfbench/lob-reduce/{seed}")
    out = []
    for n, count in ((100, 20), (150, 5)):
        for i in range(count):
            arcs = gen.planar(n, rng.randrange(1 << 30), both_prob=0.1, keep_prob=0.25)
            out.append(Instance(f"planar{n}-{i}", "lob", n, n // 10,
                                gen.instance_text("lob", n, arcs, n // 10, f"planar n={n}")))
    length = 150 + rng.randrange(11)
    arcs = gen.bipath_chain(length)
    out.append(Instance("chain", "lob", length + 1, 5,
                        gen.instance_text("lob", length + 1, arcs, 5, f"chain {length}")))
    return out


def _iob_kernel(seed: int) -> list[Instance]:
    """iob-twins no-instances with degeneracy 3 (n = 12k + core). One
    instance's time varies by about 18 % from seed to seed, so many small
    instances keep a pass's total steady; one larger instance keeps the
    crown rounds of a bigger k in the mix."""
    rng = random.Random(f"perfbench/iob-kernel/{seed}")
    out = []
    for k, count in ((64, 36), (128, 1)):
        for i in range(count):
            n, arcs = gen.iob_twins(k, 3, rng.randrange(1 << 30))
            out.append(Instance(f"twins{k}-{i}", "iob", n, k,
                                gen.instance_text("iob", n, arcs, k, f"iob-twins k={k} d=3")))
    return out


def _lob_solve(seed: int) -> list[Instance]:
    """The recipe of acceptance criterion 7 at its seed 707: planar
    n = 10k for k = 2..10, three reps with keep 0.2/0.25/0.3. The corpus is
    fixed because exact-solve times are heavy-tailed (from 1 ms to past any
    budget), so a corpus drawn per seed could not give steady totals;
    ``seed`` only sets the order in which the 27 instances run."""
    rng = random.Random(707)
    out = []
    for k in range(2, 11):
        for rep, keep in enumerate((0.2, 0.25, 0.3)):
            n = 10 * k
            arcs = gen.planar(n, rng.randrange(1 << 30), both_prob=0.1, keep_prob=keep)
            out.append(Instance(f"crit7-k{k}-r{rep}", "lob", n, k,
                                gen.instance_text("lob", n, arcs, k, f"planar n={n} keep={keep}")))
    random.Random(f"perfbench/lob-solve/{seed}").shuffle(out)
    return out


WORKLOADS = {
    "lob-reduce": _lob_reduce,
    "iob-kernel": _iob_kernel,
    "lob-solve": _lob_solve,
}


def steps(workload: str, inst: Instance) -> list[list[str]]:
    """CLI argument lists for one instance, in order."""
    if workload == "lob-reduce":
        return [["reduce-lob", inst.file, "--json", f"{inst.name}.reduce.json"]]
    if workload == "iob-kernel":
        return [["kernelize-iob", inst.file, "--json", f"{inst.name}.kernel.json"]]
    budget = str(SOLVE_BUDGET_S)
    return [["reduce-lob", inst.file, "--solve-max-n", "0",
             "--json", f"{inst.name}.reduce.json"],
            ["solve", f"{inst.file}.reduced", "--mode", "leaf", "--budget", budget,
             "--json", f"{inst.name}.solve.json"]]
