import math

import pytest

from treextremal.canonical import canonical_form
from treextremal.degrees import DegreeSequence, parse_degree_sequence
from treextremal.enumeration import (
    EnumerationBudget,
    count_caterpillar_arrangements,
    count_free_trees,
    enumerate_caterpillars,
    enumerate_degree_sequences,
    enumerate_trees,
    free_level_sequences,
    lexicographic_multiset_permutations,
)
from treextremal.errors import BudgetExceeded, NoInternalVertices
from treextremal.extremal import find_max_subtrees, find_min_subtrees
from treextremal.prufer import prufer_decode
from treextremal.trees import is_caterpillar

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


def test_degree_sequence_counts_are_partition_numbers():
    # Partitions of n - 2: p(0..7) = 1 1 2 3 5 7 11 15
    expected = [1, 1, 2, 3, 5, 7, 11, 15]
    for n, want in zip(range(2, 10), expected):
        assert sum(1 for _ in enumerate_degree_sequences(n)) == want


def test_unlabeled_totals_match_known_counts():
    for n in range(1, 17):
        assert count_free_trees(n) == UNLABELED_COUNTS[n - 1]
        if n >= 2:
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
                assert t.degrees() == ds.degrees
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
    with pytest.raises(BudgetExceeded) as err:
        list(enumerate_trees(parse_degree_sequence("2*20,1,1")))  # n over cap
    assert err.value.predicted == 22
    tiny = EnumerationBudget(max_labeled=5, max_n=16)
    with pytest.raises(BudgetExceeded) as err:
        list(enumerate_trees(DegreeSequence((2, 2, 2, 2, 1, 1)), tiny))
    assert err.value.predicted == count_free_trees(6) == 6
    # The 16-vertex path has 14! labeled words but only 19320 free trees
    # are generated for it, well inside the default budget.
    assert len(list(enumerate_trees(parse_degree_sequence("2*14,1,1")))) == 1


def test_caterpillar_budget_refusal():
    ds = parse_degree_sequence("4,3,2,1*5")
    assert count_caterpillar_arrangements(ds) == 6
    with pytest.raises(BudgetExceeded) as err:
        list(enumerate_caterpillars(ds, EnumerationBudget(max_labeled=5)))
    assert err.value.predicted == 6
    assert len(list(enumerate_caterpillars(ds, EnumerationBudget(max_labeled=6)))) == 3


def test_free_tree_counts():
    # UNLABELED_COUNTS covers n <= 16; Otter's formula has no table limit.
    assert count_free_trees(20) == 823065
    with pytest.raises(ValueError):
        count_free_trees(0)


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
    assert [c.y for c in cats] == [(1, 0, 0), (0, 1, 0)]
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
            assert [c.y for c in enumerate_caterpillars(ds)] == _seen_set_caterpillars(ds)


def test_caterpillar_search_examines_each_class_once():
    pinned = {
        "4,4,3,3,2,1*8": 16,
        "3*7,1*9": 1,
        "5,4,3,3,2,2,1*9": 90,
        "6,5,4,3,3,2,2,1*13": 630,
        "4,4,3,3,3,2,2,2,2,1*9": 636,
    }
    for text, classes in pinned.items():
        ds = parse_degree_sequence(text)
        assert find_min_subtrees(ds, method="caterpillar").trees_examined == classes
        assert find_max_subtrees(ds, method="caterpillar").trees_examined == classes


def test_caterpillars_match_filtered_tree_enumeration():
    for n in range(3, 11):
        for ds in enumerate_degree_sequences(n):
            if ds.k == 0:
                continue
            cat_codes = sorted(
                canonical_form(c.build()) for c in enumerate_caterpillars(ds)
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
