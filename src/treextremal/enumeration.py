"""Exhaustive generation of degree sequences, trees and caterpillars.

Universes: the tree degree sequences of order n are the partitions of
n - 2, each part plus one an internal degree, padded with leaves. They are
generated by k window, so a sweep over k = 5 builds only k = 5 sequences.

Trees come from the free-tree generator of Wright, Richmond, Odlyzko and
McKay (*Constant time generation of free trees*, SIAM J. Comput. 15, 1986),
which lists every unlabeled tree on n vertices exactly once as a level
sequence: the depths of the vertices in preorder from a root at a central
vertex, with the root's subtrees in nonincreasing order. A realization of a degree
sequence is a generated tree whose sorted degrees match, so no
deduplication is needed and only matching trees are ever built. A query
for one sequence filters one pass over the free trees on n; a sweep over
every sequence of order n takes one pass for all of them
(enumerate_all_trees), grouping the trees by their sorted degrees.
Caterpillars are the multiset permutations of the pendant vector, each
mirror class kept at the permutation that is no greater than its reverse,
so no seen-set is needed either; they are yielded as pendant vectors, not
trees. The generation cost, the number of free trees on n vertices or of
caterpillar arrangements, is checked against a budget before any work
starts; the caterpillar search in extremal, which scores far fewer
arrangements than it could, is capped instead by the prefixes it enters
and stopped when it passes the same cap. Refusing is an error, never a
truncation, because a partial enumeration would silently break the
theorem sweeps built on top.
"""

import math
from dataclasses import dataclass
from operator import index
from typing import Iterator

from .degrees import DegreeSequence, _built
from .errors import BudgetExceeded, NoInternalVertices
from .trees import Tree, _tree_from_parents, star_tree


# The largest order a full enumeration accepts, whatever the budget.
_MAX_FULL_N = 16


@dataclass(frozen=True)
class EnumerationBudget:
    """The cap on the candidates a search may generate.

    max_labeled caps the free trees on n vertices for a full enumeration and
    the pendant-vector arrangements for a caterpillar enumeration, both
    checked before generation begins, and the prefixes a caterpillar search
    enters. A full enumeration is also refused past n = 16, whatever the
    budget.
    """

    max_labeled: int = 10_000_000

    def __post_init__(self):
        try:
            object.__setattr__(self, "max_labeled", index(self.max_labeled))
        except TypeError:
            raise ValueError(f"max_labeled must be an integer, got {self.max_labeled!r}") from None
        if self.max_labeled < 1:
            raise ValueError("budget caps must be positive")


DEFAULT_BUDGET = EnumerationBudget()


def count_free_trees(n: int) -> int:
    """Number of unlabeled trees on n >= 1 vertices (OEIS A000055).

    Otter's formula: t(n) = r(n) - (sum over i + j = n of r(i) r(j)
    - r(n/2) for even n) / 2, where r counts rooted trees (OEIS A000081)
    through (m - 1) r(m) = sum_{j < m} s(j) r(m - j) with
    s(j) = sum_{d | j} d r(d).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    r = [0, 1]
    s = [0]
    for m in range(2, n + 1):
        s.append(sum(d * r[d] for d in range(1, m) if (m - 1) % d == 0))
        r.append(sum(s[j] * r[m - j] for j in range(1, m)) // (m - 1))
    pairs = sum(r[i] * r[n - i] for i in range(1, n))
    if n % 2 == 0:
        pairs -= r[n // 2]
    return r[n] - pairs // 2


def lexicographic_multiset_permutations(word: list[int]) -> Iterator[tuple[int, ...]]:
    """All distinct permutations of word in lexicographic order."""
    current = sorted(word)
    m = len(current)
    if m == 0:
        yield ()
        return
    while True:
        yield tuple(current)
        # Classic next-permutation step.
        i = m - 2
        while i >= 0 and current[i] >= current[i + 1]:
            i -= 1
        if i < 0:
            return
        j = m - 1
        while current[j] <= current[i]:
            j -= 1
        current[i], current[j] = current[j], current[i]
        current[i + 1 :] = reversed(current[i + 1 :])


def _successor(levels: list[int], p: int) -> None:
    """Beyer-Hedetniemi step: the suffix from p becomes repeated copies of
    the block that starts at p's parent, in place."""
    q = p - 1
    while levels[q] != levels[p] - 1:
        q -= 1
    shift = p - q
    for i in range(p, len(levels)):
        levels[i] = levels[i - shift]


def free_level_sequences(n: int) -> Iterator[list[int]]:
    """Level sequences of all unlabeled trees on n >= 2 vertices, once each.

    Rooted level sequences are visited in decreasing lexicographic order,
    starting from the path rooted at its center. One is a free tree's
    representative when the first subtree of the root (the tallest) is no
    taller than the rest of the tree, and, at equal heights, no larger, and
    at equal sizes no later in lexicographic order. An invalid successor is
    repaired by one jump straight to the next representative. The validity
    test here rescans the sequence, so a step costs O(n) rather than the
    paper's amortized constant; n is bounded by the enumeration cap. The
    yielded list is reused: copy it to keep it past the next step.
    """
    if n < 2:
        raise ValueError(f"free-tree generation needs n >= 2, got {n}")
    levels = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while True:
        yield levels
        p = n - 1
        while levels[p] == 1:
            p -= 1
        if p == 0:
            return
        _successor(levels, p)
        # The root's first subtree occupies 1..m-1; the rest starts at m.
        m = levels.index(1, 2) if 1 in levels[2:] else n
        left_height = max(levels[1:m]) - 1
        rest_height = max(levels[m:], default=0)
        if rest_height > left_height:
            continue
        if rest_height == left_height:
            left_size, rest_size = m - 1, n - m + 1
            if left_size < rest_size:
                continue
            if left_size == rest_size and [v - 1 for v in levels[1:m]] <= [0] + levels[m:]:
                continue
        # Jump: advance the first subtree itself. When its last vertex sits
        # below level 2, the copies do too, so the first subtree now runs to
        # the end, and the next representative ends in a path from the root
        # one level taller than that subtree.
        deep = levels[m - 1] > 2
        _successor(levels, m - 1)
        if deep:
            height = max(levels[1:]) - 1
            levels[n - height - 1 :] = range(1, height + 2)


def _check_full_budget(n: int, budget: EnumerationBudget, generating: bool = True) -> None:
    """Refuse a full enumeration on n vertices: always by the order cap,
    and by the predicted free-tree count when the trees are generated."""
    if n > _MAX_FULL_N:
        raise BudgetExceeded(f"n={n} exceeds full-enumeration cap {_MAX_FULL_N}")
    if not generating:
        return
    predicted = count_free_trees(n)
    if predicted > budget.max_labeled:
        raise BudgetExceeded(
            f"predicted {predicted} free trees on {n} vertices exceeds "
            f"budget {budget.max_labeled}"
        )


def _free_trees(n: int) -> Iterator[tuple[list[int], list[int]]]:
    """(parent, degree) of every free tree on n >= 1 vertices, in generation
    order, with vertices in level-sequence preorder and parent[0] = 0. The
    parent list is reused: copy it to keep it past the next step."""
    if n == 1:
        yield [0], [0]
        return
    # The parent of vertex i is the last earlier vertex one level up.
    last = [0] * n
    parent = [0] * n
    for levels in free_level_sequences(n):
        degree = [0] + [1] * (n - 1)  # each vertex but the root has its parent
        for i in range(1, n):
            depth = levels[i]
            last[depth] = i
            p = last[depth - 1]
            parent[i] = p
            degree[p] += 1
        yield parent, degree


def enumerate_trees(
    ds: DegreeSequence, budget: EnumerationBudget = DEFAULT_BUDGET
) -> Iterator[Tree]:
    """One representative per isomorphism class of trees realizing ds.

    Output order is the generator's order over free trees on ds.n vertices,
    with vertices labeled in level-sequence preorder from the root, so
    repeated runs are byte-identical. A star is its sequence's only tree and
    is built without generating the rest.
    """
    _check_full_budget(ds.n, budget, generating=ds.k != 1)
    if ds.k == 1:
        yield star_tree(ds.n)
        return
    target = list(ds.degrees)
    for parent, degree in _free_trees(ds.n):
        if sorted(degree, reverse=True) == target:
            yield _tree_from_parents(parent)


def enumerate_all_trees(
    n: int, budget: EnumerationBudget = DEFAULT_BUDGET
) -> Iterator[tuple[DegreeSequence, list[Tree]]]:
    """(ds, list(enumerate_trees(ds))) for every degree sequence of order
    n, in enumerate_degree_sequences(n) order, from one pass over the free
    trees on n.

    The budget is checked when this is called, before any generation, so
    a sweep can refuse every order up front. The pass keeps each tree as
    its parent tuple, grouped by sorted degrees, and builds the Trees of
    one sequence at a time.
    """
    _check_full_budget(n, budget)
    return _all_trees(n)


def _all_trees(n: int) -> Iterator[tuple[DegreeSequence, list[Tree]]]:
    by_degrees: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for parent, degree in _free_trees(n):
        key = tuple(sorted(degree, reverse=True))
        by_degrees.setdefault(key, []).append(tuple(parent))
    for ds in enumerate_degree_sequences(n):
        yield ds, [_tree_from_parents(parent) for parent in by_degrees.pop(ds.degrees)]


def enumerate_caterpillars(
    ds: DegreeSequence, budget: EnumerationBudget = DEFAULT_BUDGET
) -> Iterator[tuple[int, ...]]:
    """All caterpillars realizing ds, one canonical pendant vector per
    isomorphism class.

    These are the distinct multiset permutations of (d_1 - 2, ..., d_k - 2)
    modulo reversal. Permutations come in increasing lexicographic order, so
    a class is first met at the smaller of its two orientations: a
    permutation is kept exactly when it is no greater than its reverse, and
    the class is yielded in its canonical orientation (that reverse), with
    no set of classes seen. The permutation count is checked against
    budget.max_labeled before the first one.
    """
    arrangements = count_caterpillar_arrangements(ds)
    if arrangements > budget.max_labeled:
        raise BudgetExceeded(
            f"predicted {arrangements} caterpillar arrangements exceeds "
            f"budget {budget.max_labeled}"
        )
    pendants = [d - 2 for d in ds.internal]
    for perm in lexicographic_multiset_permutations(pendants):
        mirror = perm[::-1]
        if perm <= mirror:
            yield mirror


def count_caterpillar_arrangements(ds: DegreeSequence) -> int:
    """Distinct multiset permutations of the pendant vector (before mirror
    dedupe); the cost predictor for enumerate_caterpillars."""
    if ds.k == 0:
        raise NoInternalVertices(f"no internal vertices in {ds}")
    pendants = [d - 2 for d in ds.internal]
    total = math.factorial(len(pendants))
    for value in set(pendants):
        total //= math.factorial(pendants.count(value))
    return total


def enumerate_degree_sequences(
    n: int, min_k: int = 0, max_k: int | None = None
) -> Iterator[DegreeSequence]:
    """The tree degree sequences of order n with min_k <= k <= max_k (no
    upper bound when max_k is None), lexicographically decreasing.

    A tree sequence is its k internal degrees d_1 >= ... >= d_k >= 2 padded
    with 1s, and the d_i - 1 form a partition of n - 2 into k parts. So the
    partitions of n - 2 into min_k to max_k parts are walked largest part
    first, each part bounded so that the window can still be met; the
    recursion depth is at most k and only yielded sequences are built. They
    are sorted and valid by construction, so they skip DegreeSequence's
    re-sort and re-validation.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n == 1:
        if min_k <= 0 and (max_k is None or max_k >= 0):
            yield DegreeSequence((0,))
        return
    # A partition of n - 2 has 1 to n - 2 parts, or none when n = 2.
    min_k = max(min_k, min(1, n - 2))
    max_k = n - 2 if max_k is None else min(max_k, n - 2)
    if min_k > max_k:
        return
    internal: list[int] = []

    def parts(remaining: int, cap: int):
        if remaining == 0 or cap == 1:
            # Parts of 1 are all that is left: one degree 2 per unit.
            degrees = tuple(internal) + (2,) * remaining
            yield _built(degrees + (1,) * (n - len(degrees)), len(degrees))
            return
        # The part p leaves remaining - p to at most max_k - len - 1 parts
        # no larger than p, and to at least min_k - len - 1 parts.
        lo = -(-remaining // (max_k - len(internal)))
        hi = min(cap, remaining - max(0, min_k - len(internal) - 1))
        for p in range(hi, lo - 1, -1):
            internal.append(p + 1)
            yield from parts(remaining - p, p)
            internal.pop()

    yield from parts(n - 2, n - 2)
