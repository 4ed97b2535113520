"""Extremal search, closed forms, the k = 5 trichotomy and the two
improving transformations.

Derived expectations were computed with the subset-growth oracle (or the
DP already proven equal to it) and frozen.
"""

import itertools

import pytest

from treextremal.canonical import canonical_form
from treextremal.caterpillars import Caterpillar, caterpillar_build
from treextremal.counting import _down_counts, brute_force_count, component_counts, count_subtrees
from treextremal.degrees import DegreeSequence, parse_degree_sequence
from treextremal.enumeration import EnumerationBudget, enumerate_degree_sequences, enumerate_trees
from treextremal.errors import (
    ClosedFormUnavailable,
    IndexOutOfRange,
    InternalInconsistency,
    NotApplicable,
    WrongK,
)
from treextremal.extremal import (
    branch_shift_context,
    branch_shift_inequality,
    closed_form_phi,
    extremes,
    find_max_subtrees,
    find_min_subtrees,
    predict_min_k5,
    reverse_segment,
    shift_branch_to_end,
)
from treextremal.trees import Tree, is_caterpillar, path_tree

SPIDER = Tree(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])


def test_extremes_keeps_every_tie_in_input_order():
    words = ["bb", "a", "cc", "d", "ee"]
    assert extremes(words, len) == (1, ["a", "d"], 5)
    assert extremes(words, len, maximize=True) == (2, ["bb", "cc", "ee"], 5)
    assert extremes(iter([]), len) == (None, [], 0)


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def test_closed_form_reference_values():
    assert closed_form_phi(DegreeSequence((3, 2, 1, 1, 1))) == (17, (1, 0))
    assert closed_form_phi(DegreeSequence((3, 2, 2, 1, 1, 1))) == (24, (1, 0, 0))
    value, y = closed_form_phi(DegreeSequence((3, 3, 2, 2, 1, 1, 1, 1)))
    assert value == 47 and y == (1, 0, 0, 1)
    # 47 re-verified by the oracle
    assert brute_force_count(caterpillar_build(y)) == 47


def test_closed_form_on_paths():
    # All-twos sequences force a path; the formulas must return n(n+1)/2.
    for k in (2, 3, 4):
        n = k + 2
        ds = DegreeSequence((2,) * k + (1, 1))
        value, y = closed_form_phi(ds)
        assert value == n * (n + 1) // 2
        assert y == (0,) * k


def test_closed_form_wrong_k():
    with pytest.raises(WrongK):
        closed_form_phi(DegreeSequence((2, 2, 2, 2, 2, 1, 1)))
    with pytest.raises(WrongK):
        closed_form_phi(DegreeSequence((3, 1, 1, 1)))


def test_closed_form_matches_full_enumeration():
    # Stronger than the caterpillar sweep: minimize over all realizations.
    for n in range(4, 13):
        for ds in enumerate_degree_sequences(n):
            if ds.k not in (2, 3, 4):
                continue
            value, stated = closed_form_phi(ds)
            counts = {}
            for t in enumerate_trees(ds):
                counts[canonical_form(t)] = count_subtrees(t)
            best = min(counts.values())
            winners = {c for c, v in counts.items() if v == best}
            assert value == best
            assert winners == {canonical_form(caterpillar_build(stated))}


# ---------------------------------------------------------------------------
# k = 5 trichotomy
# ---------------------------------------------------------------------------


def test_trichotomy_reference_cases():
    case, ys = predict_min_k5(parse_degree_sequence("8,3,3,3,2,1*11"))
    assert case.tag == "I" and case.lhs == 256 and case.rhs == 20
    assert not case.d4_equals_d5
    assert ys == {(6, 0, 1, 1, 1)}

    case, ys = predict_min_k5(parse_degree_sequence("3,3,3,3,2,1*6"))
    assert case.tag == "III" and case.lhs == 8 and case.rhs == 20
    assert ys == {(1, 1, 0, 1, 1)}

    case, ys = predict_min_k5(parse_degree_sequence("4,3,3,2,2,1*6"))
    assert case.tag == "II" and case.d4_equals_d5
    assert ys == {(2, 0, 0, 1, 1)}  # the two stated arrangements coincide

    with pytest.raises(WrongK):
        predict_min_k5(DegreeSequence((3, 2, 1, 1, 1)))


def test_trichotomy_difference_identity():
    # The exact difference between the two candidate arrangements factors as
    # (2^(d5-2) - 2^(d4-2)) * (2^(d1-1) - 2^(d3-2) * (1 + 2^(d2-1))), i.e.
    # half of (lhs - rhs) times the leading factor; in particular its sign is
    # the sign the trichotomy tests. Verified against the DP (itself
    # oracle-checked) on every k = 5 sequence with n <= 13.
    for n in range(7, 14):
        for ds in enumerate_degree_sequences(n):
            if ds.k != 5:
                continue
            d1, d2, d3, d4, d5 = ds.internal
            a = count_subtrees(
                caterpillar_build((d1 - 2, d5 - 2, d4 - 2, d3 - 2, d2 - 2))
            )
            b = count_subtrees(
                caterpillar_build((d1 - 2, d4 - 2, d5 - 2, d3 - 2, d2 - 2))
            )
            factored = (2 ** (d5 - 2) - 2 ** (d4 - 2)) * (
                2 ** (d1 - 1) - 2 ** (d3 - 2) * (1 + 2 ** (d2 - 1))
            )
            assert a - b == factored
            case, _ = predict_min_k5(ds)
            if case.tag == "I":
                assert a < b
            elif case.tag == "III":
                assert a > b
            else:
                assert a == b


# ---------------------------------------------------------------------------
# Searches
# ---------------------------------------------------------------------------


def test_find_min_brute_reference():
    report = find_min_subtrees(DegreeSequence((3, 2, 2, 1, 1, 1)), "brute")
    assert report.optimum == 24
    assert report.optimizer_y_set() == {(1, 0, 0)}
    assert report.method == "brute"
    assert report.trees_examined == 2


def test_find_min_path_sequences():
    for n in (4, 6, 9):
        ds = DegreeSequence((2,) * (n - 2) + (1, 1))
        report = find_min_subtrees(ds)
        assert report.optimum == n * (n + 1) // 2
        assert report.optimizer_codes() == [canonical_form(path_tree(n))]


def test_find_min_big_instance_all_methods_agree():
    ds = parse_degree_sequence("8,3,3,3,2,1*11")
    cat = find_min_subtrees(ds, "caterpillar")
    auto = find_min_subtrees(ds, "auto")
    closed = find_min_subtrees(ds, "closed-form")
    assert cat.optimum == auto.optimum == closed.optimum == 3142  # oracle-derived
    for report in (cat, auto, closed):
        assert report.optimizer_y_set() == {(6, 0, 1, 1, 1)}
    assert auto.method == "closed-form"
    assert cat.method == "caterpillar"
    assert cat.trees_examined == 10


def test_find_min_methods_agree_everywhere_small():
    for n in range(2, 10):
        for ds in enumerate_degree_sequences(n):
            brute = find_min_subtrees(ds, "brute")
            cats = find_min_subtrees(ds, "caterpillar") if ds.k >= 1 else brute
            auto = find_min_subtrees(ds)
            assert brute.optimum == cats.optimum == auto.optimum
            assert brute.optimizer_codes() == cats.optimizer_codes()
            assert brute.optimizer_codes() == auto.optimizer_codes()


def test_find_max_reference():
    report = find_max_subtrees(DegreeSequence((3, 2, 2, 1, 1, 1)))
    assert report.optimum == 25
    assert report.optimizer_y_set() == {(0, 1, 0)}
    assert report.method == "brute"


def test_find_max_single_realization_equals_min():
    # k = 2 sequences have a unique realization, so min = max.
    for d1, d2 in [(3, 2), (4, 4), (5, 2)]:
        n = d1 + d2
        ds = DegreeSequence((d1, d2) + (1,) * (n - 2))
        mn = find_min_subtrees(ds)
        mx = find_max_subtrees(ds)
        assert mn.optimum == mx.optimum == closed_form_phi(ds)[0]


def test_find_max_can_beat_every_caterpillar():
    # For (3,2,2,2,1,1,1) the unique maximizer over all trees is the spider
    # with three legs of length two, which is not a caterpillar; the
    # caterpillar-restricted maximum is strictly smaller. Oracle-derived.
    ds = DegreeSequence((3, 2, 2, 2, 1, 1, 1))
    full = find_max_subtrees(ds, "brute")
    assert full.optimum == 36
    assert [o.y_vector for o in full.optimizers] == [None]
    assert canonical_form(full.optimizers[0].tree) == canonical_form(SPIDER)
    restricted = find_max_subtrees(ds, "caterpillar")
    assert restricted.optimum < full.optimum


def test_auto_max_falls_back_only_when_enumeration_refuses():
    # The star is its sequence's only tree; enumerate_trees yields it under
    # any budget, so auto max reports the full search, not a restriction.
    star = find_max_subtrees(parse_degree_sequence("7,1*7"), budget=EnumerationBudget(max_labeled=1))
    assert star.method == "brute"
    assert star.optimum == 2**7 + 7
    ds = DegreeSequence((3, 2, 2, 1, 1, 1))
    assert find_max_subtrees(ds, budget=EnumerationBudget(max_labeled=5)).method == "caterpillar"
    assert find_max_subtrees(ds, budget=EnumerationBudget(max_n=5)).method == "caterpillar"
    assert find_max_subtrees(ds, budget=EnumerationBudget(max_labeled=6)).method == "brute"


def test_caterpillar_search_recounts_winners(monkeypatch):
    from treextremal import extremal

    ds = parse_degree_sequence("4,4,3,3,2,1*8")
    real = extremal.caterpillar_phi
    monkeypatch.setattr(extremal, "caterpillar_phi", lambda y: real(y) + 1)
    for search in (find_min_subtrees, find_max_subtrees):
        with pytest.raises(InternalInconsistency, match="count_subtrees"):
            search(ds, method="caterpillar")


def test_find_max_closed_form_unavailable():
    with pytest.raises(ClosedFormUnavailable):
        find_max_subtrees(DegreeSequence((3, 2, 2, 1, 1, 1)), "closed-form")


def test_find_min_closed_form_unavailable_for_large_k():
    ds = DegreeSequence((3,) * 6 + (1,) * 8)
    with pytest.raises(ClosedFormUnavailable):
        find_min_subtrees(ds, "closed-form")
    # auto falls back to the caterpillar search
    report = find_min_subtrees(ds)
    assert report.method == "caterpillar"


def test_degenerate_sequences():
    one = find_min_subtrees(DegreeSequence((0,)))
    assert one.optimum == 1 and one.optimizers[0].tree.n == 1
    two = find_max_subtrees(DegreeSequence((1, 1)))
    assert two.optimum == 3
    star = find_min_subtrees(DegreeSequence((4, 1, 1, 1, 1)))
    assert star.optimum == 20 and star.optimizer_y_set() == {(2,)}


def test_optimizers_are_sorted_and_consistent():
    for ds in [
        DegreeSequence((3, 3, 2, 2, 1, 1, 1, 1)),
        parse_degree_sequence("4,3,3,2,2,1*6"),
    ]:
        for report in (find_min_subtrees(ds, "brute"), find_max_subtrees(ds, "brute")):
            codes = report.optimizer_codes()
            assert codes == sorted(codes)
            assert len(set(codes)) == len(codes)
            for opt in report.optimizers:
                assert opt.tree.degrees() == ds.degrees
                assert count_subtrees(opt.tree) == report.optimum


# ---------------------------------------------------------------------------
# Branch shift
# ---------------------------------------------------------------------------


def test_branch_shift_on_spider():
    phi = count_subtrees(SPIDER)
    shifted = shift_branch_to_end(SPIDER, 1, 4)
    assert sorted(shifted.degrees()) == sorted(SPIDER.degrees())
    assert is_caterpillar(shifted)
    assert count_subtrees(shifted) < phi
    ctx = branch_shift_context(SPIDER, 1, 4)
    weight, tail, branch = branch_shift_inequality(SPIDER, ctx)
    assert weight > tail and branch > 1


def test_branch_shift_not_applicable():
    with pytest.raises(NotApplicable):
        shift_branch_to_end(caterpillar_build((1, 0, 0)), 1, 0)  # caterpillar
    with pytest.raises(NotApplicable):
        shift_branch_to_end(SPIDER, 2, 4)  # y is a leaf
    with pytest.raises(NotApplicable):
        shift_branch_to_end(SPIDER, 1, 0)  # v_r is not a leaf


def test_branch_shift_tail_weight_telescopes():
    # Each returned quantity is a containment count in one component, which
    # a down count from another root gives directly. In particular the
    # a-product series must telescope to the count through the first
    # far-side spine vertex, which is what the gating inequality compares.
    checked = 0
    for n in range(7, 10):
        for ds in enumerate_degree_sequences(n):
            for t in enumerate_trees(ds):
                if is_caterpillar(t):
                    continue
                for y in range(t.n):
                    for v_r in range(t.n):
                        try:
                            ctx = branch_shift_context(t, y, v_r)
                        except NotApplicable:
                            continue
                        weight, tail, branch = branch_shift_inequality(t, ctx)
                        path, l = ctx.path, ctx.l
                        assert tail == _down_counts(t, path[0])[0][path[l + 1]]
                        assert branch == _down_counts(t, path[l])[0][y]
                        assert weight * (1 + branch) == _down_counts(t, path[l + 1])[0][path[l]]
                        checked += 1
    assert checked == 95  # every applicable instance with 7 <= n <= 9


def test_branch_shift_preserves_degrees_everywhere():
    for n in range(7, 10):
        for ds in enumerate_degree_sequences(n):
            for t in enumerate_trees(ds):
                if is_caterpillar(t):
                    continue
                for y in range(t.n):
                    for v_r in range(t.n):
                        try:
                            shifted = shift_branch_to_end(t, y, v_r)
                        except NotApplicable:
                            continue
                        assert shifted.degrees() == t.degrees()


# ---------------------------------------------------------------------------
# Segment reversal
# ---------------------------------------------------------------------------


def test_reverse_segment_basics():
    assert reverse_segment(Caterpillar((2, 0, 1)), 2, 1).y == (1, 0, 2)
    assert reverse_segment(Caterpillar((1, 0, 1)), 2, 1).y == (1, 0, 1)  # palindrome
    assert reverse_segment(Caterpillar((3, 1, 2, 0)), 2, 1).y == (2, 1, 3, 0)
    assert reverse_segment(Caterpillar((3, 1, 2, 0)), 3, 1).y == (3, 0, 2, 1)
    with pytest.raises(IndexOutOfRange):
        reverse_segment(Caterpillar((2, 0, 1)), 1, 1)
    with pytest.raises(IndexOutOfRange):
        reverse_segment(Caterpillar((2, 0, 1)), 2, 2)


def test_reverse_segment_decreases_under_hypotheses():
    # Whenever the symmetric component inequalities hold around a pivot with
    # a strictly heavier left tail, reversing the segment must strictly
    # lower the subtree count.
    held = 0
    for k in range(3, 6):
        for y in itertools.product(range(3), repeat=k):
            cat = Caterpillar(y)
            rows = component_counts(cat)
            phi = count_subtrees(cat.build())
            for p in range(2, k):
                for q in range(1, min(k - p, p - 1) + 1):
                    diffs = [rows[p - i][0] - rows[p + i][0] for i in range(1, q + 1)]
                    hypotheses = (
                        all(d >= 0 for d in diffs)
                        and any(d > 0 for d in diffs)
                        and rows[p - q - 1][1] > rows[p + q + 1][2]
                    )
                    if not hypotheses:
                        continue
                    held += 1
                    flipped = reverse_segment(cat, p, q)
                    assert count_subtrees(flipped.build()) < phi
    assert held > 100  # the sweep actually exercised the hypothesis
