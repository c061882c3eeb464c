"""Acceptance criteria, one test per criterion.

Each test drives the matching verification suite at its contractual trial
count and prints a single PASS/FAIL line (run pytest with -s to see them
live; they also appear in captured output on failure).
"""

import pytest

from sparse_outbranch import verify as V


def report(num, res):
    line = f"CRITERION {num} {'PASS' if res.passed else 'FAIL'}: {res.summary()}"
    print(line)
    assert res.passed, line


def test_criterion_1_rule_soundness_sweep():
    # >= 1000 seeded random connected rooted digraphs, n <= 9, every rule
    # firing preserves oracle maxleaf exactly (equality, no tolerance)
    res = V.verify_rules(trials=1000, max_n=9, seed=101)
    assert res.detail["rule2"] > 0 and res.detail["rule3"] > 0
    assert res.detail["rule4"] > 0 and res.detail["rule5"] > 0
    assert res.detail["rule6"] > 0
    report(1, res)


def test_criterion_2_lower_bound_certificates():
    # >= 300 reduced planar cores with n <= 12: oracle maxleaf dominates
    # ceil(sp/60), ceil(iso/180), and the slave count; zero violations
    res = V.verify_bounds(instances=300, seed=202)
    assert res.detail["instances"] >= 300
    report(2, res)


def test_criterion_3_structural_lemmas():
    # same corpus: bag sizes, head in-degrees, linked-bag arc counts,
    # decomposition properties, 10|O|+6 length bound; zero violations
    res = V.verify_structure(instances=300, seed=202)
    assert res.detail["instances"] >= 300
    report(3, res)


def test_criterion_4_local_search_contract():
    # >= 1000 instances: witness-checked branching or verified cover of
    # size <= 2k-1 including the root; zero violations
    res = V.verify_local_search(trials=1000, seed=404)
    assert res.detail["yes"] > 0 and res.detail["vc"] > 0
    report(4, res)


def test_criterion_5_crown_equivalence():
    # >= 500 crown firings on n <= 9, fixed-k equivalence oracle-checked
    res = V.verify_crown(firings=500, max_n=9, seed=505)
    assert res.detail["firings"] >= 500
    report(5, res)


def test_criterion_6_iob_kernel_size():
    # degenerate families d in {2,3}, k = 4, 6, ..., 16, three runs each:
    # cover <= 2k-1 and class bounds asserted per run; the size-vs-k fit
    # is reported
    res = V.verify_iob_kernel_size(seed=606)
    assert res.detail["runs"] == 2 * 7 * 3
    report(6, res)


def test_criterion_7_lob_kernel_size():
    # planar family over k = 2..10: reduced size vs oracle maxleaf fits a
    # line through the origin with R^2 >= 0.9 at desk scale (n = 10k,
    # three inputs per k)
    res = V.verify_lob_kernel_size(seed=707, timeout=45.0)
    assert res.detail.get("r2", 0) >= 0.9
    report(7, res)


def test_criterion_8_counting_lemmas():
    # planar corpora at p = 3: heavy-degree sum bound and both
    # neighborhood-diversity bounds; zero violations
    res = V.verify_counting(graphs=30, seed=808)
    report(8, res)


def test_criterion_9_oracle_self_consistency():
    # enumeration equals parent-vector brute force (n <= 7); branch and
    # bound equals the enumeration optimum (n <= 9)
    res = V.verify_oracle(trials=300, seed=909)
    report(9, res)
