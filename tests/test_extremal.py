"""Extremal search, closed forms, the k = 5 trichotomy and the branch
shift.

Derived expectations were computed with the subset-growth oracle (or the
DP already proven equal to it) and frozen.
"""

import gc
import hashlib
import itertools
import json
import random

import pytest

from treextremal import extremal
from treextremal.canonical import canonical_form
from treextremal.caterpillars import caterpillar_build, caterpillar_from_tree
from treextremal.counting import (
    _down_counts,
    brute_force_count,
    caterpillar_phi,
    count_subtrees,
)
from treextremal.degrees import DegreeSequence, degree_sequence, parse_degree_sequence
from treextremal.enumeration import (
    DEFAULT_BUDGET,
    EnumerationBudget,
    count_caterpillar_arrangements,
    enumerate_all_trees,
    enumerate_caterpillars,
    enumerate_degree_sequences,
    enumerate_trees,
    lexicographic_multiset_permutations,
)
from treextremal.errors import (
    BudgetExceeded,
    ClosedFormUnavailable,
    InternalInconsistency,
    NotApplicable,
    WrongK,
)
from treextremal.extremal import (
    _branch_shifts,
    _caterpillar_search,
    _phi_bound,
    _seed_arrangement,
    branch_shift_context,
    branch_shift_inequality,
    closed_form_phi,
    extremes,
    find_max_subtrees,
    find_min_subtrees,
    predict_min_k5,
    shift_branch_to_end,
)
from treextremal.trees import Tree, is_caterpillar, path_tree, star_tree
from treextremal.verify import _orientations, _valley_ok

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
    assert {o.y_vector for o in report.optimizers} == {(1, 0, 0)}
    assert report.method == "brute"
    assert report.trees_examined == 2


def test_unknown_method_is_refused():
    with pytest.raises(ValueError, match="^unknown method 'nope'$"):
        find_min_subtrees(DegreeSequence((2, 1, 1)), "nope")


def test_find_min_path_sequences():
    for n in (4, 6, 9):
        ds = DegreeSequence((2,) * (n - 2) + (1, 1))
        report = find_min_subtrees(ds)
        assert report.optimum == n * (n + 1) // 2
        assert [o.canonical_code for o in report.optimizers] == [canonical_form(path_tree(n))]


def test_find_min_big_instance_all_methods_agree():
    ds = parse_degree_sequence("8,3,3,3,2,1*11")
    cat = find_min_subtrees(ds, "caterpillar")
    auto = find_min_subtrees(ds, "auto")
    closed = find_min_subtrees(ds, "closed-form")
    assert cat.optimum == auto.optimum == closed.optimum == 3142  # oracle-derived
    for report in (cat, auto, closed):
        assert {o.y_vector for o in report.optimizers} == {(6, 0, 1, 1, 1)}
    assert auto.method == "closed-form"
    assert cat.method == "caterpillar"
    assert cat.trees_examined == 6  # of the 10 mirror classes; the seed is not counted


def test_find_min_methods_agree_everywhere_small():
    for n in range(2, 10):
        for ds in enumerate_degree_sequences(n):
            brute = find_min_subtrees(ds, "brute")
            cats = find_min_subtrees(ds, "caterpillar") if ds.k >= 1 else brute
            auto = find_min_subtrees(ds)
            assert brute.optimum == cats.optimum == auto.optimum
            codes = [o.canonical_code for o in brute.optimizers]
            assert codes == [o.canonical_code for o in cats.optimizers]
            assert codes == [o.canonical_code for o in auto.optimizers]


def test_brute_reports_equal_scoring_every_tree():
    # The brute search scores parent arrays and builds Trees only for its
    # winners; scoring every Tree of enumerate_trees must give the same
    # optimum, the same winners (in report order) and the same count.
    for n in range(1, 12):
        for ds in enumerate_degree_sequences(n):
            for search, maximize in ((find_min_subtrees, False), (find_max_subtrees, True)):
                report = search(ds, "brute")
                best, winners, examined = extremes(enumerate_trees(ds), count_subtrees, maximize)
                assert report.optimum == best, ds
                assert [o.tree.edges for o in report.optimizers] == [
                    t.edges for t in sorted(winners, key=canonical_form)
                ], ds
                assert report.trees_examined == examined, ds


def test_find_max_reference():
    report = find_max_subtrees(DegreeSequence((3, 2, 2, 1, 1, 1)))
    assert report.optimum == 25
    assert {o.y_vector for o in report.optimizers} == {(0, 1, 0)}
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
    # Past the order cap too.
    star = find_max_subtrees(parse_degree_sequence("17,1*17"))
    assert (star.method, star.optimum, star.trees_examined) == ("brute", 131_089, 1)
    ds = DegreeSequence((3, 2, 2, 1, 1, 1))
    assert find_max_subtrees(ds, budget=EnumerationBudget(max_labeled=5)).method == "caterpillar"
    assert find_max_subtrees(ds, budget=EnumerationBudget(max_labeled=6)).method == "brute"
    # Any other sequence with n = 17 is past the order cap, whatever the budget.
    assert find_max_subtrees(parse_degree_sequence("3,2*13,1*3")).method == "caterpillar"


def test_caterpillar_search_recounts_winners(monkeypatch):
    from treextremal import extremal

    ds = parse_degree_sequence("4,4,3,3,2,1*8")
    real = extremal._rooted_counts
    monkeypatch.setattr(extremal, "_rooted_counts", lambda order, parent: real(order, parent) + [1])
    for search in (find_min_subtrees, find_max_subtrees):
        with pytest.raises(InternalInconsistency, match="count_subtrees"):
            search(ds, method="caterpillar")


def _pendant_sequence(pendants) -> DegreeSequence:
    return DegreeSequence(tuple(y + 2 for y in pendants) + (1,) * (sum(pendants) + 2))


def _random_pendants(rng, max_k):
    return [rng.randint(0, 6) for _ in range(rng.randint(1, max_k))]


def test_caterpillar_search_equals_exhaustive_scoring():
    rng = random.Random(20121)
    sequences = [ds for n in range(3, 15) for ds in enumerate_degree_sequences(n) if ds.k]
    sequences += [_pendant_sequence(_random_pendants(rng, 9)) for _ in range(500)]
    for ds in sequences:
        pendants = [d - 2 for d in ds.internal]
        # The oracle scores every class once, for both objectives.
        phi = {y: caterpillar_phi(y) for y in enumerate_caterpillars(ds)}
        for maximize in (False, True):
            best, winners, classes = extremes(phi, phi.__getitem__, maximize)
            found, found_winners, examined = _caterpillar_search(pendants, maximize)
            assert (found, found_winners) == (best, winners), (ds, maximize)
            assert 1 <= examined <= classes


def test_a_prefix_led_by_a_strict_maximum_leads_only_to_mirrors():
    # The search pushes no child whose first value exceeds every value still
    # left: each arrangement under it is greater than its mirror, whose
    # class is scored elsewhere.
    for k in range(1, 8):
        for pendants in itertools.combinations_with_replacement(range(4), k):
            for perm in lexicographic_multiset_permutations(pendants):
                for j in range(1, k):
                    if perm[0] > max(perm[j:]):
                        assert perm > perm[::-1], (perm, j)


@pytest.mark.parametrize("pendants", [(1, 0, 1), (2, 0, 1, 2), (1, 1)])
def test_mirror_rule_keeps_a_first_value_equal_to_the_largest_left(pendants, monkeypatch):
    # A first value equal to the largest value left can still start an
    # arrangement not greater than its mirror, so the rule is > and not >=.
    ds = _pendant_sequence(pendants)
    phi = {y: caterpillar_phi(y) for y in enumerate_caterpillars(ds)}
    for maximize in (False, True):
        assert _caterpillar_search(list(pendants), maximize)[:2] == extremes(
            phi, phi.__getitem__, maximize
        )[:2]
        # With a bound that never cuts, the search scores every class once.
        never = 10**100 if maximize else 0
        monkeypatch.setattr(extremal, "_phi_bound", lambda *_: never)
        assert _caterpillar_search(list(pendants), maximize) == extremes(
            phi, phi.__getitem__, maximize
        )
        monkeypatch.undo()


def test_phi_bound_brackets_every_completion():
    rng = random.Random(20122)
    for _ in range(200):
        pendants = _random_pendants(rng, 7)
        tail = sum(pendants) + 2
        for perm in lexicographic_multiset_permutations(pendants):
            phi = caterpillar_phi(perm)
            s, total = 1, 0
            for j, v in enumerate(perm):
                rest = sorted(perm[j:])
                low = _phi_bound(s, total, rest, tail)
                high = _phi_bound(s, total, rest[::-1], tail)
                assert low <= phi <= high, (perm, j)
                if j == len(perm) - 1:
                    assert low == phi == high  # one value left: exact
                s = (s + 1) << v
                total += s


def test_caterpillar_search_k5_tag_ii():
    # With d4 = d5 the trichotomy's two candidates are one arrangement, and
    # lhs = rhs cannot happen (1 + 2^(d2-1) is odd for d2 >= 2), so every
    # tag II sequence has a single minimizing class, which the search finds.
    checked = 0
    for n in range(7, 17):
        for ds in enumerate_degree_sequences(n, 5, 5):
            case, predicted = predict_min_k5(ds)
            if case.tag != "II":
                continue
            assert case.d4_equals_d5 and case.lhs != case.rhs
            best, winners, _ = _caterpillar_search([d - 2 for d in ds.internal], False)
            assert set(winners) == predicted and len(winners) == 1
            assert best == caterpillar_phi(winners[0])
            checked += 1
    assert checked > 50


DISTINCT_12 = "13,12,11,10,9,8,7,6,5,4,3,2,1*68"


def test_seed_is_a_permutation_of_the_pendants():
    assert _seed_arrangement([0, 1, 2, 3, 4, 5], False) == (5, 3, 1, 0, 2, 4)
    assert _seed_arrangement([0, 1, 2, 3, 4, 5], True) == (0, 2, 4, 5, 3, 1)
    rng = random.Random(20123)
    for _ in range(300):
        pendants = _random_pendants(rng, 8)
        for maximize in (False, True):
            seed = _seed_arrangement(pendants, maximize)
            assert sorted(seed) == sorted(pendants)
            # One real arrangement: never better than the optimum.
            best = _caterpillar_search(pendants, maximize)[0]
            assert caterpillar_phi(seed) <= best if maximize else caterpillar_phi(seed) >= best


def test_distinct_k12_min_is_answered_with_valley_winners():
    ds = parse_degree_sequence(DISTINCT_12)
    # 12! arrangements, far past the budget the search is capped by.
    assert count_caterpillar_arrangements(ds) > DEFAULT_BUDGET.max_labeled
    report = find_min_subtrees(ds)
    assert report.method == "caterpillar"
    assert {o.y_vector for o in report.optimizers} == {(11, 8, 7, 4, 3, 0, 1, 2, 5, 6, 9, 10)}
    assert report.trees_examined == 990
    for y in {o.y_vector for o in report.optimizers}:
        for z in _orientations(y):
            assert _valley_ok(z)


def test_node_cap_refuses_without_a_partial_optimum():
    ds = parse_degree_sequence(DISTINCT_12)
    # The seeded min search enters 3,692 prefixes, the root included.
    report = find_min_subtrees(ds, budget=EnumerationBudget(max_labeled=3_692))
    assert {o.y_vector for o in report.optimizers} == {(11, 8, 7, 4, 3, 0, 1, 2, 5, 6, 9, 10)}
    tight = EnumerationBudget(max_labeled=3_691)
    with pytest.raises(
        BudgetExceeded,
        match="^caterpillar search exceeds budget 3691 after entering 3692 prefixes$",
    ):
        find_min_subtrees(ds, budget=tight)
    with pytest.raises(BudgetExceeded):
        find_min_subtrees(ds, method="caterpillar", budget=tight)


def _frozen_search_vectors():
    """2,000 seeded pendant vectors (k 1-9, entries 0-5), then range(k) for
    k = 1..10."""
    rng = random.Random(20123_23)
    vectors = [[rng.randint(0, 5) for _ in range(rng.randint(1, 9))] for _ in range(2000)]
    return vectors + [list(range(k)) for k in range(1, 11)]


def _prefixes_entered(pendants, maximize) -> int:
    """The smallest node cap under which _caterpillar_search answers."""

    def answers(cap):
        try:
            _caterpillar_search(pendants, maximize, EnumerationBudget(max_labeled=cap))
        except BudgetExceeded:
            return False
        return True

    refused, hi = 0, 1
    while not answers(hi):
        refused, hi = hi, 2 * hi
    while hi - refused > 1:
        mid = (refused + hi) // 2
        refused, hi = (refused, mid) if answers(mid) else (mid, hi)
    return hi


# Per objective: sha256 of json.dumps of [str(optimum), winners in order,
# examined] per vector of _frozen_search_vectors, frozen from the recursive
# search, then of the node caps of _prefixes_entered for the first 100
# vectors (with their sum), frozen from the search that pushes no
# mirror-only child and drops a child whose bound is already worse (the
# recursive search entered 3,071 and 2,183).
FROZEN_SEARCH = {
    "min": (
        "3c44036f821688296d2cafee21e607d2f86b2d3f091200c721cae1bc5b6d1a56",
        "7a6ff7821a88cfbd96916e9db5ed54aa7667cc740381e97ed9ec396850c35a31",
        1243,
    ),
    "max": (
        "48ddb251932a273f5e26bab1627703fdf4f09e914ec81e21c5ae2ca8c6ed36c8",
        "e01ad66ffeaeab714aaa7171572be8028ec4b02a8842938c5f168e57cf74486f",
        978,
    ),
}


@pytest.mark.parametrize("objective", sorted(FROZEN_SEARCH))
def test_caterpillar_search_is_frozen(objective):
    maximize = objective == "max"
    vectors = _frozen_search_vectors()
    rows = []
    for pendants in vectors:
        best, winners, examined = _caterpillar_search(pendants, maximize)
        rows.append([str(best), [list(w) for w in winners], examined])
    caps = [_prefixes_entered(pendants, maximize) for pendants in vectors[:100]]
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    cap_digest = hashlib.sha256(json.dumps(caps).encode()).hexdigest()
    assert (digest, cap_digest, sum(caps)) == FROZEN_SEARCH[objective]


def test_search_depth_is_limited_only_by_the_node_cap():
    # 1,500 spine vertices, past the default recursion limit of 1,000.
    path = find_min_subtrees(parse_degree_sequence("2*1500,1*2"))
    assert path.optimum == 1502 * 1503 // 2
    assert [o.y_vector for o in path.optimizers] == [(0,) * 1500]
    ladder = find_max_subtrees(parse_degree_sequence("3*1500,1*1502"), method="caterpillar")
    assert ladder.optimum == caterpillar_phi((1,) * 1500)
    assert [o.y_vector for o in ladder.optimizers] == [(1,) * 1500]


def test_search_leaves_no_garbage_cycle():
    gc.collect()
    gc.disable()
    try:
        for maximize in (False, True):
            for _ in range(50):
                _caterpillar_search([3, 1, 4, 1, 5, 2], maximize)
        try:
            _caterpillar_search([3, 1, 4, 1, 5, 2], False, EnumerationBudget(max_labeled=2))
        except BudgetExceeded:
            pass
        assert gc.collect() == 0
    finally:
        gc.enable()


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
    assert star.optimum == 20 and {o.y_vector for o in star.optimizers} == {(2,)}
    for n in range(3, 41):
        ds = DegreeSequence((n - 1,) + (1,) * (n - 1))
        value, code = 2 ** (n - 1) + n - 1, canonical_form(star_tree(n))
        assert count_subtrees(star_tree(n)) == value
        reports = [
            find_min_subtrees(ds, method)
            for method in ("closed-form", "caterpillar", "auto", "brute")
        ]
        reports += [find_max_subtrees(ds, method) for method in ("caterpillar", "auto")]
        for report in reports:
            assert report.optimum == value, (n, report.objective, report.method)
            assert [o.canonical_code for o in report.optimizers] == [code]


def test_optimizers_are_sorted_and_consistent():
    for ds in [
        DegreeSequence((3, 3, 2, 2, 1, 1, 1, 1)),
        parse_degree_sequence("4,3,3,2,2,1*6"),
    ]:
        for report in (find_min_subtrees(ds, "brute"), find_max_subtrees(ds, "brute")):
            codes = [o.canonical_code for o in report.optimizers]
            assert codes == sorted(codes)
            assert len(set(codes)) == len(codes)
            for opt in report.optimizers:
                assert degree_sequence(map(len, opt.tree.adjacency)).degrees == ds.degrees
                assert count_subtrees(opt.tree) == report.optimum


def test_every_optimizer_y_vector_is_read_off_its_tree():
    # Caterpillar and closed-form reports pass on the y their search holds;
    # it must be the pendant vector the reported tree itself has.
    small = [ds for n in range(1, 12) for ds in enumerate_degree_sequences(n)]
    large = [parse_degree_sequence(s) for s in (DISTINCT_12, "3,2*13,1*3")]
    large.append(DegreeSequence((3,) * 6 + (1,) * 8))
    for ds in small + large:
        for search, maximize in ((find_min_subtrees, False), (find_max_subtrees, True)):
            methods = ["auto", "caterpillar"]
            if ds.n <= 11:
                methods.append("brute")
            if not maximize and ds.k <= 5:
                methods.append("closed-form")
            for method in methods:
                for opt in search(ds, method).optimizers:
                    assert opt.y_vector == caterpillar_from_tree(opt.tree), (ds, method)


# sha256 of json.dumps of one row per degree sequence with n <= 12, in
# enumerate_degree_sequences order: [degrees, objective, optimum (decimal
# string), method, trees_examined, [[code, y or None, edges], ...] per
# optimizer in report order], frozen from the implementation that coded
# every optimizer with canonical_form on its validated Tree.
FROZEN_REPORTS_N12 = {
    "auto-min": "09d80e687c913a0c299b591964794f064d6f466f39ae682be89290e1c2070d3c",
    "caterpillar-max": "b549e0b1892fe4245b490294ce48ad7ad89dd3a75775e48ee41be661ba8ddee2",
    "brute-min": "d5e7a7d1146058f88b77fae00fab4def26e9759ac13fd8585e2b87849deac10a",
    "brute-max": "2aaedcef8ad8dea387a64e31f7824a31db36d8aec40aa6ede5a4bf0a07737666",
}


@pytest.mark.parametrize("name", sorted(FROZEN_REPORTS_N12))
def test_reports_are_frozen(name):
    # The bench checks optimizers with its own isomorphism codes, so only
    # this digest sees a wrong canonical_code, y_vector or edge list.
    search = {
        "auto-min": lambda ds: find_min_subtrees(ds),
        "caterpillar-max": lambda ds: find_max_subtrees(ds, "caterpillar"),
        "brute-min": lambda ds: find_min_subtrees(ds, "brute"),
        "brute-max": lambda ds: find_max_subtrees(ds, "brute"),
    }[name]
    rows = []
    for n in range(1, 13):
        for ds in enumerate_degree_sequences(n):
            r = search(ds)
            optimizers = [
                [o.canonical_code, None if o.y_vector is None else list(o.y_vector),
                 [list(e) for e in o.tree.edges]]
                for o in r.optimizers
            ]
            rows.append([list(ds.degrees), r.objective, str(r.optimum), r.method,
                         r.trees_examined, optimizers])
    assert len(rows) == 140
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == FROZEN_REPORTS_N12[name]


# ---------------------------------------------------------------------------
# Branch shift
# ---------------------------------------------------------------------------


def test_branch_shift_on_spider():
    phi = count_subtrees(SPIDER)
    shifted = shift_branch_to_end(SPIDER, 1, 4)
    assert sorted(map(len, shifted.adjacency)) == sorted(map(len, SPIDER.adjacency))
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
    no_path = "no longest path ending at"
    # Leaf 7 of the spider with one short leg is 3 from every vertex but
    # the diameter is 4.
    short_leg = Tree(8, list(SPIDER.edges) + [(0, 7)])
    with pytest.raises(NotApplicable, match=no_path):
        branch_shift_context(short_leg, 1, 7)
    # From v_r = 2, y = 0 hangs off v_l = 1, next to the end.
    with pytest.raises(NotApplicable, match=no_path):
        branch_shift_context(SPIDER, 0, 2)
    # The one longest path from 4, 7-2-1-0-3-4, runs through y = 1; y = 5
    # hangs off the same v_l = 0 beside it.
    long_leg = Tree(8, [(0, 1), (1, 2), (2, 7), (0, 3), (3, 4), (0, 5), (5, 6)])
    with pytest.raises(NotApplicable, match=no_path):
        branch_shift_context(long_leg, 1, 4)
    assert branch_shift_context(long_leg, 5, 4).path == (7, 2, 1, 0, 3, 4)


# sha256 of json.dumps([[list(path), l, y, v_r, list(moved_children)], ...])
# over every context branch_shift_context returns for every non-caterpillar
# tree with n <= 10, in enumerate_all_trees order and y-major, frozen from
# the implementation that validated one (y, v_r) pair per call.
CONTEXTS_N10 = (318, "9c25e51bd807ea243b4b30967e824b5d45aff123a9e62617d0362c8ea92305eb")


def test_branch_shift_pairs_agree_with_the_public_validator():
    rows = []
    for n in range(2, 11):
        for _, trees in enumerate_all_trees(n):
            for t in trees:
                if is_caterpillar(t):
                    continue
                public = []
                for y in range(t.n):
                    for v_r in range(t.n):
                        try:
                            public.append(branch_shift_context(t, y, v_r))
                        except NotApplicable:
                            pass
                shifts = list(_branch_shifts(t, range(t.n), t.leaves()))
                assert [ctx for ctx, _ in shifts] == public
                for ctx, down in shifts:
                    assert down == _down_counts(t, ctx.v_r)[0]
                rows += [[list(c.path), c.l, c.y, c.v_r, list(c.moved_children)] for c in public]
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert (len(rows), digest) == CONTEXTS_N10


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
                        assert sorted(map(len, shifted.adjacency)) == sorted(map(len, t.adjacency))
