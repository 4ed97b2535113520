"""Exhaustive generation of trees and caterpillars for a degree sequence.

Trees come from the free-tree generator of Wright, Richmond, Odlyzko and
McKay (*Constant time generation of free trees*, SIAM J. Comput. 15, 1986),
which lists every unlabeled tree on n vertices exactly once as a level
sequence: the depths of the vertices in preorder from a root at a central
vertex, with the root's subtrees in nonincreasing order. A realization of a degree
sequence is a generated tree whose sorted degrees match, so no
deduplication is needed and only matching trees are ever built.
Caterpillars are the multiset permutations of the pendant vector, each
mirror class kept at the permutation that is no greater than its reverse,
so no seen-set is needed either; they are yielded as pendant vectors, not
trees, and searches score them with counting.caterpillar_phi. The
generation cost, the number of free trees on n vertices or of caterpillar
arrangements, is checked against a budget before any work starts (this
module is the only one that knows the budget policy): refusing is an
error, never a truncation,
because a partial enumeration would silently break the theorem sweeps built
on top.
"""

import math
from dataclasses import dataclass
from typing import Iterator

from .caterpillars import Caterpillar
from .degrees import DegreeSequence
from .errors import BudgetExceeded, NoInternalVertices
from .trees import Tree, path_tree, star_tree


@dataclass(frozen=True)
class EnumerationBudget:
    """Caps enforced before generation begins.

    max_labeled caps the candidates a search may generate: the free trees on
    n vertices for a full enumeration, the pendant-vector arrangements for a
    caterpillar search. max_n caps the order of a full enumeration.
    """

    max_labeled: int = 10_000_000
    max_n: int = 16

    def __post_init__(self):
        if self.max_labeled < 1 or self.max_n < 1:
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


def enumerate_trees(
    ds: DegreeSequence, budget: EnumerationBudget = DEFAULT_BUDGET
) -> Iterator[Tree]:
    """One representative per isomorphism class of trees realizing ds.

    Output order is the generator's order over free trees on ds.n vertices,
    with vertices labeled in level-sequence preorder from the root, so
    repeated runs are byte-identical.
    """
    if ds.n > budget.max_n:
        raise BudgetExceeded(
            f"n={ds.n} exceeds full-enumeration cap {budget.max_n}", ds.n
        )
    if ds.n == 1:
        yield Tree(1, [])
        return
    if ds.n == 2:
        yield path_tree(2)
        return
    if ds.k == 1:
        yield star_tree(ds.n)
        return
    predicted = count_free_trees(ds.n)
    if predicted > budget.max_labeled:
        raise BudgetExceeded(
            f"predicted {predicted} free trees on {ds.n} vertices exceeds "
            f"budget {budget.max_labeled}",
            predicted,
        )
    n = ds.n
    target = list(ds.degrees)
    # The parent of vertex i is the last earlier vertex one level up.
    last = [0] * n
    parent = [0] * n
    for levels in free_level_sequences(n):
        degree = [0] * n
        for i in range(1, n):
            depth = levels[i]
            last[depth] = i
            p = last[depth - 1]
            parent[i] = p
            degree[i] += 1
            degree[p] += 1
        if sorted(degree, reverse=True) == target:
            yield Tree(n, [(parent[i], i) for i in range(1, n)])


def enumerate_caterpillars(
    ds: DegreeSequence, budget: EnumerationBudget = DEFAULT_BUDGET
) -> Iterator[Caterpillar]:
    """All caterpillars realizing ds, one per isomorphism class.

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
            f"budget {budget.max_labeled}",
            arrangements,
        )
    pendants = [d - 2 for d in ds.internal]
    for perm in lexicographic_multiset_permutations(pendants):
        mirror = perm[::-1]
        if perm <= mirror:
            yield Caterpillar(mirror)


def count_caterpillar_arrangements(ds: DegreeSequence) -> int:
    """Distinct multiset permutations of the pendant vector (before mirror
    dedupe); the cost predictor for caterpillar searches."""
    if ds.k == 0:
        raise NoInternalVertices(f"no internal vertices in {ds}")
    pendants = [d - 2 for d in ds.internal]
    total = math.factorial(len(pendants))
    for value in set(pendants):
        total //= math.factorial(pendants.count(value))
    return total


def enumerate_degree_sequences(n: int) -> Iterator[DegreeSequence]:
    """All tree degree sequences of order n, lexicographically decreasing.

    These are the partitions of 2(n - 1) into exactly n parts >= 1 (each part
    at most n - 1), emitted largest-first.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n == 1:
        yield DegreeSequence((0,))
        return
    if n == 2:
        yield DegreeSequence((1, 1))
        return

    target = 2 * (n - 1)

    def parts(remaining: int, slots: int, cap: int, prefix: list[int]):
        if slots == 0:
            if remaining == 0:
                yield tuple(prefix)
            return
        # Each of the remaining slots takes at least 1.
        lo = max(1, remaining - (slots - 1) * cap)
        hi = min(cap, remaining - (slots - 1))
        for d in range(hi, lo - 1, -1):
            prefix.append(d)
            yield from parts(remaining - d, slots - 1, d, prefix)
            prefix.pop()

    for degrees in parts(target, n, n - 1, []):
        yield DegreeSequence(degrees)
