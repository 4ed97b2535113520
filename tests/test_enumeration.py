import math

import pytest

from treextremal import enumeration
from treextremal.canonical import canonical_form
from treextremal.caterpillars import caterpillar_build
from treextremal.degrees import DegreeSequence, degree_sequence, parse_degree_sequence
from treextremal.enumeration import (
    EnumerationBudget,
    count_caterpillar_arrangements,
    count_free_trees,
    enumerate_all_trees,
    enumerate_caterpillars,
    enumerate_degree_sequences,
    enumerate_trees,
    free_level_sequences,
    lexicographic_multiset_permutations,
)
from treextremal.errors import BudgetExceeded, NoInternalVertices
from treextremal.extremal import find_max_subtrees, find_min_subtrees
from treextremal.prufer import prufer_decode
from treextremal.trees import _tree_from_parents, is_caterpillar, star_tree

# Unlabeled trees of order 1..16 (OEIS A000055).
UNLABELED_COUNTS = [
    1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159, 7741, 19320,
]


def test_degree_sequence_universes():
    assert [ds.degrees for ds in enumerate_degree_sequences(3)] == [(2, 1, 1)]
    assert [ds.degrees for ds in enumerate_degree_sequences(4)] == [
        (3, 1, 1, 1),
        (2, 2, 1, 1),
    ]
    assert [ds.degrees for ds in enumerate_degree_sequences(5)] == [
        (4, 1, 1, 1, 1),
        (3, 2, 1, 1, 1),
        (2, 2, 2, 1, 1),
    ]
    assert [ds.degrees for ds in enumerate_degree_sequences(1)] == [(0,)]
    assert [ds.degrees for ds in enumerate_degree_sequences(2)] == [(1, 1)]


# Partitions of 0..38 (OEIS A000041): the tree sequences of order 2..40.
PARTITION_COUNTS = [
    1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176, 231, 297,
    385, 490, 627, 792, 1002, 1255, 1575, 1958, 2436, 3010, 3718, 4565, 5604,
    6842, 8349, 10143, 12310, 14883, 17977, 21637, 26015,
]


def test_degree_sequence_counts_are_partition_numbers():
    for n, want in zip(range(2, 41), PARTITION_COUNTS):
        degrees = [ds.degrees for ds in enumerate_degree_sequences(n)]
        assert len(degrees) == want
        assert degrees == sorted(set(degrees), reverse=True)


def test_degree_sequence_k_windows_filter_the_full_list():
    for n in range(1, 23):
        full = [(ds, ds.k) for ds in enumerate_degree_sequences(n)]
        for lo in range(n + 1):
            for hi in [None, *range(lo - 1, n + 1)]:  # lo - 1: an empty window
                window = list(enumerate_degree_sequences(n, lo, hi))
                assert window == [
                    ds for ds, k in full if lo <= k and (hi is None or k <= hi)
                ], (n, lo, hi)
    assert list(enumerate_degree_sequences(2, 1)) == []
    assert list(enumerate_degree_sequences(1, 0, 0)) == [DegreeSequence((0,))]
    assert list(enumerate_degree_sequences(9, 5, 5))[0].degrees == (4, 2, 2, 2, 2, 1, 1, 1, 1)


def test_generated_sequences_equal_validated_ones():
    # The partition walk's sequences skip DegreeSequence's re-sort and
    # re-validation; they must be indistinguishable from validated ones.
    windows = [(0, None)] + [(lo, hi) for lo in range(1, 7) for hi in (lo, lo + 2, None)]
    for n in range(1, 23):
        for lo, hi in windows:
            for ds in enumerate_degree_sequences(n, lo, hi):
                ref = DegreeSequence(ds.degrees)
                assert ds == ref and hash(ds) == hash(ref) and repr(ds) == repr(ref)
                assert (ds.k, ds.internal) == (ref.k, ref.internal)


def test_unlabeled_totals_match_known_counts():
    for n in range(1, 17):
        assert count_free_trees(n) == UNLABELED_COUNTS[n - 1]
        generated = sum(1 for _ in free_level_sequences(n))
        assert generated == UNLABELED_COUNTS[n - 1]
        # Every tree has one degree sequence, so the realizations of all
        # sequences partition the free trees (checked where that is quick).
        if n <= 12:
            total = 0
            for ds in enumerate_degree_sequences(n):
                total += sum(1 for _ in enumerate_trees(ds))
            assert total == UNLABELED_COUNTS[n - 1]


def _pruefer_codes(ds):
    """Oracle: the canonical codes of all labeled trees in which vertex i
    has degree d_i, decoded from every Pruefer word for ds."""
    word = []
    for i, d in enumerate(ds.degrees):
        word.extend([i] * (d - 1))
    return {
        canonical_form(prufer_decode(list(seq), ds.n))
        for seq in lexicographic_multiset_permutations(word)
    }


def test_generator_matches_pruefer_oracle():
    for n in range(3, 11):
        for ds in enumerate_degree_sequences(n):
            codes = [canonical_form(t) for t in enumerate_trees(ds)]
            assert len(codes) == len(set(codes))
            assert set(codes) == _pruefer_codes(ds)


def test_enumerated_trees_have_right_degrees_and_unique_codes():
    for n in range(2, 10):
        for ds in enumerate_degree_sequences(n):
            codes = set()
            for t in enumerate_trees(ds):
                assert degree_sequence(map(len, t.adjacency)).degrees == ds.degrees
                code = canonical_form(t)
                assert code not in codes
                codes.add(code)


def test_reference_enumerations():
    assert sum(1 for _ in enumerate_trees(DegreeSequence((2, 2, 1, 1)))) == 1
    assert sum(1 for _ in enumerate_trees(DegreeSequence((3, 2, 1, 1, 1)))) == 1
    trees = list(enumerate_trees(DegreeSequence((3, 2, 2, 1, 1, 1))))
    assert len(trees) == 2
    assert all(is_caterpillar(t) for t in trees)


def test_enumeration_is_deterministic():
    ds = parse_degree_sequence("4,3,3,2,1*6")
    first = [canonical_form(t) for t in enumerate_trees(ds)]
    second = [canonical_form(t) for t in enumerate_trees(ds)]
    assert first == second


def test_budget_refusal():
    with pytest.raises(BudgetExceeded, match="^n=22 exceeds full-enumeration cap 16$"):
        list(enumerate_trees(parse_degree_sequence("2*20,1,1")))  # n over cap
    tiny = EnumerationBudget(max_labeled=5)
    assert count_free_trees(6) == 6
    with pytest.raises(
        BudgetExceeded, match="^predicted 6 free trees on 6 vertices exceeds budget 5$"
    ):
        list(enumerate_trees(DegreeSequence((2, 2, 2, 2, 1, 1)), tiny))
    # The 16-vertex path has 14! labeled words; the budget predicts the
    # 19320 free trees on 16 vertices, well inside the default cap, though
    # the walk skips most of them.
    assert len(list(enumerate_trees(parse_degree_sequence("2*14,1,1")))) == 1


def _filtered_trees(ds):
    """Reference: every free tree on ds.n whose sorted degrees are ds's."""
    return [
        _tree_from_parents(parent).edges
        for parent, degree in enumeration._free_trees(ds.n)
        if sorted(degree, reverse=True) == list(ds.degrees)
    ]


def test_pruned_walk_matches_the_filter_over_all_free_trees():
    for n in range(1, 14):
        for ds in enumerate_degree_sequences(n):
            assert [t.edges for t in enumerate_trees(ds)] == _filtered_trees(ds), ds


def _rest_after_send(walk, j):
    try:
        first = list(walk.send(j))
    except StopIteration:
        return []
    return [first] + [list(levels) for levels in walk]


def test_sent_prefix_skips_exactly_its_block():
    for n in range(2, 11):
        plain = [list(levels) for levels in free_level_sequences(n)]
        for t, current in enumerate(plain):
            for j in range(n):
                walk = free_level_sequences(n)
                for _ in range(t + 1):
                    next(walk)
                kept = [s for s in plain[t + 1 :] if s[: j + 1] != current[: j + 1]]
                assert _rest_after_send(walk, j) == kept, (n, t, j)


def test_one_sequence_walks_only_its_blocks(monkeypatch):
    steps = 0
    step = enumeration._successor

    def counted(levels, p):
        nonlocal steps
        steps += 1
        step(levels, p)

    monkeypatch.setattr(enumeration, "_successor", counted)
    assert len(list(enumerate_trees(parse_degree_sequence("3*7,1*9")))) == 6
    # The unpruned walk takes 20541 steps for the 19320 free trees on 16.
    assert steps < count_free_trees(16) // 20
    # Mostly degree 2: a prefix fails once more of its vertices reach a
    # degree than the sequence has room for (1,058 steps when it failed only
    # past the largest degree).
    steps = 0
    assert len(list(enumerate_trees(parse_degree_sequence("3,2*12,1*3")))) == 19
    assert steps <= 507


def test_budget_cap_must_be_a_positive_integer():
    for cap in (2.5, "5", None):
        with pytest.raises(ValueError, match="^max_labeled must be an integer, got "):
            EnumerationBudget(cap)
    for cap in (0, -1):
        with pytest.raises(ValueError, match="^budget caps must be positive$"):
            EnumerationBudget(cap)
    assert EnumerationBudget(5).max_labeled == 5


def test_all_trees_match_per_sequence_enumeration():
    for n in range(1, 13):
        passes = list(enumerate_all_trees(n))
        assert [ds for ds, _ in passes] == list(enumerate_degree_sequences(n))
        for ds, trees in passes:
            assert [t.edges for t in trees] == [t.edges for t in enumerate_trees(ds)]


def test_one_vertex_is_one_level_sequence():
    assert list(free_level_sequences(1)) == [[0]]
    assert list(enumerate_trees(DegreeSequence((0,)))) == [star_tree(1)]


def test_star_is_listed_past_the_order_cap(monkeypatch):
    def no_generation(n):
        raise AssertionError("generation started")

    monkeypatch.setattr(enumeration, "free_level_sequences", no_generation)
    star = parse_degree_sequence("17,1*17")
    assert list(enumerate_trees(star)) == [star_tree(18)]
    assert list(enumerate_trees(star, EnumerationBudget(max_labeled=1))) == [star_tree(18)]


def test_all_trees_refuse_before_generating(monkeypatch):
    def no_generation(n):
        raise AssertionError("generation started")

    monkeypatch.setattr(enumeration, "free_level_sequences", no_generation)
    with pytest.raises(BudgetExceeded, match="n=17 exceeds full-enumeration cap 16"):
        enumerate_all_trees(17)
    with pytest.raises(
        BudgetExceeded, match="^predicted 6 free trees on 6 vertices exceeds budget 5$"
    ):
        enumerate_all_trees(6, EnumerationBudget(max_labeled=5))


def test_caterpillar_budget_refusal():
    ds = parse_degree_sequence("4,3,2,1*5")
    assert count_caterpillar_arrangements(ds) == 6
    with pytest.raises(
        BudgetExceeded, match="^predicted 6 caterpillar arrangements exceeds budget 5$"
    ):
        list(enumerate_caterpillars(ds, EnumerationBudget(max_labeled=5)))
    assert len(list(enumerate_caterpillars(ds, EnumerationBudget(max_labeled=6)))) == 3


def test_free_tree_counts():
    # UNLABELED_COUNTS covers n <= 16; Otter's formula has no table limit.
    assert count_free_trees(20) == 823065
    with pytest.raises(ValueError, match="^n must be >= 1, got 0$"):
        count_free_trees(0)
    for n in (2.5, "4"):
        with pytest.raises(ValueError, match=f"^n must be an integer, got {n!r}$"):
            count_free_trees(n)


def test_free_tree_count_is_computed_once_per_order():
    count_free_trees(16)
    computed = enumeration._otter.cache_info().misses
    for ds in enumerate_degree_sequences(16, 7, 7):
        next(enumerate_trees(ds))
    assert enumeration._otter.cache_info().misses == computed


def test_generators_refuse_orders_below_their_range():
    with pytest.raises(ValueError, match="^free-tree generation needs n >= 1, got 0$"):
        next(free_level_sequences(0))
    with pytest.raises(ValueError, match="^n must be >= 1, got 0$"):
        list(enumerate_degree_sequences(0))


def test_labeled_count_equals_word_count():
    for n in range(3, 9):
        for ds in enumerate_degree_sequences(n):
            word = []
            labeled = math.factorial(n - 2)
            for i, d in enumerate(ds.degrees):
                word.extend([i] * (d - 1))
                labeled //= math.factorial(d - 1)
            generated = sum(1 for _ in lexicographic_multiset_permutations(word))
            assert generated == labeled


def test_caterpillar_enumeration():
    cats = list(enumerate_caterpillars(DegreeSequence((3, 2, 2, 1, 1, 1))))
    assert cats == [(1, 0, 0), (0, 1, 0)]
    # k = 2 always gives exactly one class (mirror pair)
    for d1, d2 in [(3, 2), (5, 5), (4, 2)]:
        n = d1 + d2
        ds = DegreeSequence((d1, d2) + (1,) * (n - 2))
        assert sum(1 for _ in enumerate_caterpillars(ds)) == 1
    # five distinct pendant values: 5!/2 classes
    ds = DegreeSequence((7, 6, 5, 4, 3) + (1,) * 17)
    assert sum(1 for _ in enumerate_caterpillars(ds)) == 60
    assert count_caterpillar_arrangements(ds) == 120
    with pytest.raises(NoInternalVertices):
        list(enumerate_caterpillars(DegreeSequence((1, 1))))


def _seen_set_caterpillars(ds):
    """Reference: canonical orientation of each permutation, first-seen order."""
    seen = []
    for perm in lexicographic_multiset_permutations([d - 2 for d in ds.internal]):
        canon = max(perm, perm[::-1])
        if canon not in seen:
            seen.append(canon)
    return seen


def test_caterpillar_order_matches_seen_set_reference():
    for n in range(3, 13):
        for ds in enumerate_degree_sequences(n):
            if ds.k == 0:
                continue
            assert list(enumerate_caterpillars(ds)) == _seen_set_caterpillars(ds)


def test_caterpillar_search_examines_each_class_once():
    # (mirror classes, classes the min search scores, classes the max
    # search scores): the branch and bound, seeded with the zig-zag
    # arrangement (not counted), scores each class at most once.
    pinned = {
        "4,4,3,3,2,1*8": (16, 2, 8),
        "3*7,1*9": (1, 1, 1),
        "5,4,3,3,2,2,1*9": (90, 5, 17),
        "6,5,4,3,3,2,2,1*13": (630, 18, 11),
        "4,4,3,3,3,2,2,2,2,1*9": (636, 3, 5),
    }
    for text, (classes, scored_min, scored_max) in pinned.items():
        ds = parse_degree_sequence(text)
        assert len(list(enumerate_caterpillars(ds))) == classes
        assert find_min_subtrees(ds, method="caterpillar").trees_examined == scored_min
        assert find_max_subtrees(ds, method="caterpillar").trees_examined == scored_max
        assert max(scored_min, scored_max) <= classes


def test_caterpillars_match_filtered_tree_enumeration():
    for n in range(3, 11):
        for ds in enumerate_degree_sequences(n):
            if ds.k == 0:
                continue
            cat_codes = sorted(
                canonical_form(caterpillar_build(y)) for y in enumerate_caterpillars(ds)
            )
            tree_codes = sorted(
                canonical_form(t) for t in enumerate_trees(ds) if is_caterpillar(t)
            )
            assert cat_codes == tree_codes


def test_multiset_permutations_order_and_count():
    perms = list(lexicographic_multiset_permutations([1, 0, 0]))
    assert perms == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert list(lexicographic_multiset_permutations([])) == [()]
    assert len(list(lexicographic_multiset_permutations([1, 1, 2, 2]))) == 6
