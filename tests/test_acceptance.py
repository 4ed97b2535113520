"""Acceptance suite: the exit criteria for the whole package.

Each test checks one criterion at its stated tolerance (all comparisons are
exact; tolerances here are wall-clock bounds) and prints a single
PASS/FAIL line. Run with `pytest tests/test_acceptance.py -v -s` to see the
lines as they happen.
"""

import time

from treextremal.caterpillars import caterpillar_build
from treextremal.canonical import canonical_form
from treextremal.counting import brute_force_count, count_subtrees
from treextremal.degrees import degree_sequence, parse_degree_sequence
from treextremal.enumeration import enumerate_degree_sequences, enumerate_trees
from treextremal.extremal import predict_min_k5
from treextremal.trees import Tree, path_tree, star_tree
from treextremal.verify import (
    explore_wiener_correspondence,
    verify_caterpillar_minimality,
    verify_closed_forms,
    verify_mountain_shape,
    verify_trichotomy,
    verify_transformation_monotonicity,
    verify_valley_shape,
)


class _Criterion:
    def __init__(self, number: int, label: str, bound_seconds: float):
        self.number = number
        self.label = label
        self.bound = bound_seconds
        self.start = None

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None and elapsed < self.bound else "FAIL"
        print(
            f"{verdict} [criterion {self.number}] {self.label}: "
            f"{elapsed:.2f}s (bound {self.bound:g}s)"
        )
        if exc_type is None:
            assert elapsed < self.bound, (
                f"criterion {self.number} exceeded its {self.bound:g}s bound "
                f"({elapsed:.2f}s)"
            )
        return False


def test_criterion_1_golden_values():
    with _Criterion(1, "exact golden values", 1.0):
        fork = caterpillar_build((1, 0))
        assert degree_sequence(map(len, fork.adjacency)).degrees == (3, 2, 1, 1, 1)
        assert count_subtrees(fork) == 17
        c = caterpillar_build((1, 0, 0))
        assert degree_sequence(map(len, c.adjacency)).degrees == (3, 2, 2, 1, 1, 1)
        assert count_subtrees(c) == 24


def test_criterion_2_oracle_equivalence_n10():
    with _Criterion(2, "DP equals subset-growth oracle on all 201 trees n<=10", 10.0):
        trees = [Tree(1, [])]
        for n in range(2, 11):
            for ds in enumerate_degree_sequences(n):
                trees.extend(enumerate_trees(ds))
        assert len(trees) == 201
        for t in trees:
            assert count_subtrees(t) == brute_force_count(t)


def test_criterion_3_minimizers_are_caterpillars_n9():
    with _Criterion(3, "every minimizer with n<=9 is a caterpillar", 60.0):
        report = verify_caterpillar_minimality(9)
        assert report.status == "pass"
        assert report.failures == []


def test_criterion_4_closed_forms_n12():
    with _Criterion(4, "k in {2,3,4} closed forms match search, n<=12", 60.0):
        report = verify_closed_forms(12)
        assert report.status == "pass"
        assert report.failures == []


def test_criterion_5_trichotomy_n13():
    with _Criterion(5, "k=5 trichotomy matches search, n<=13", 60.0):
        report = verify_trichotomy(13)
        assert report.status == "pass"
        assert report.failures == []
        _, ys = predict_min_k5(parse_degree_sequence("8,3,3,3,2,1*11"))
        assert ys == {(6, 0, 1, 1, 1)}
        _, ys = predict_min_k5(parse_degree_sequence("3,3,3,3,2,1*6"))
        assert ys == {(1, 1, 0, 1, 1)}


def test_criterion_6_shapes_n13():
    with _Criterion(6, "valley and mountain shapes, k<=6, n<=13", 120.0):
        valley = verify_valley_shape(13, 6)
        assert valley.status == "pass"
        assert valley.failures == []
        mountain = verify_mountain_shape(13, 6)
        assert mountain.status == "pass"
        assert mountain.failures == []


def test_criterion_7_transformation_monotonicity_n9():
    with _Criterion(7, "branch shift strictly decreases under its gate, n<=9", 60.0):
        report = verify_transformation_monotonicity(9)
        assert report.status == "pass"
        assert report.failures == []
        assert report.findings["applicable_instances"] > 0


def test_criterion_8_path_and_star_extremes_n9():
    with _Criterion(8, "path unique min, star unique max, n<=9", 30.0):
        for n in range(2, 10):
            counts = {}
            for ds in enumerate_degree_sequences(n):
                for t in enumerate_trees(ds):
                    counts[canonical_form(t)] = count_subtrees(t)
            low, high = min(counts.values()), max(counts.values())
            minimizers = [c for c, v in counts.items() if v == low]
            maximizers = [c for c, v in counts.items() if v == high]
            assert minimizers == [canonical_form(path_tree(n))]
            assert maximizers == [canonical_form(star_tree(n))]


def test_criterion_9_report_only_findings():
    with _Criterion(9, "report-only findings: equality scan and Wiener table", 120.0):
        trichotomy = verify_trichotomy(13)
        scan = trichotomy.findings["equality_branch_count"]
        print(f"  equality branch instances with d4 != d5 over n<=13: {scan}")
        assert scan == 0
        wiener = explore_wiener_correspondence(9)
        assert wiener.status == "report-only"
        print(
            "  wiener correspondence n<=9: max-side "
            f"{wiener.findings['max_side_agreement']}, min-side "
            f"{wiener.findings['min_side_agreement']}, "
            f"{len(wiener.findings['disagreements'])} disagreement(s)"
        )
        assert "table" in wiener.findings
        assert len(wiener.findings["table"]) == wiener.instances_checked
