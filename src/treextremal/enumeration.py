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
deduplication is needed and only matching trees are ever built. The
sequences come in decreasing lexicographic order, so those that share a
prefix are consecutive: a query for one sequence walks the free trees on
n but skips, as one block, every prefix whose vertex degrees already rule
the sequence out, and visits only a small share of them. Room counts
decide: no more vertices may reach a degree d than the sequence has
entries >= d. A finished internal degree that no longer fits, or a root
subtree too tall for a centre, only rules a prefix out sooner. A sweep over
every sequence of order n takes one unpruned pass for all of them
(enumerate_all_trees), grouping the trees by their sorted degrees. Both
produce parent tuples, vertices in level-sequence preorder, which lists
every parent before its children: the public generators build a Tree from
each, and the brute search and the all-tree claims score the tuples as
they are (_realization_parents, _all_parents).
Caterpillars are the multiset permutations of the pendant vector, each
mirror class kept at the permutation that is no greater than its reverse,
so no seen-set is needed either; they are yielded as pendant vectors, not
trees. The generation cost, the number of free trees on n vertices (an
upper bound on the walk for one sequence) or of caterpillar arrangements,
is checked against a budget before any work starts; the caterpillar
search in extremal, which scores far fewer arrangements than it could, is
capped instead by the prefixes it enters and stopped when it passes the
same cap. Refusing is an error, never a truncation, because a partial
enumeration would silently break the theorem sweeps built on top.
"""

import math
from dataclasses import dataclass
from functools import cache
from operator import index
from typing import Generator, Iterator

from .degrees import DegreeSequence, _built
from .errors import BudgetExceeded, NoInternalVertices
from .trees import Tree, _tree_from_parents


# The largest order a full enumeration accepts, whatever the budget.
_MAX_FULL_N = 16


@dataclass(frozen=True)
class EnumerationBudget:
    """The cap on the candidates a search may generate.

    max_labeled caps the free trees on n vertices for a full enumeration and
    the pendant-vector arrangements for a caterpillar enumeration, both
    checked before generation begins, and the prefixes a caterpillar search
    enters. A full enumeration is also refused past n = 16, whatever the
    budget; a star, its sequence's only tree, is built at any order and
    under any budget.
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
    s(j) = sum_{d | j} d r(d). Each count is computed once, on first use.
    """
    try:
        n = index(n)
    except TypeError:
        raise ValueError(f"n must be an integer, got {n!r}") from None
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return _otter(n)


@cache
def _otter(n: int) -> int:
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


def free_level_sequences(n: int) -> Generator[list[int], int | None, None]:
    """Level sequences of all unlabeled trees on n >= 1 vertices, once each.

    Rooted level sequences are visited in decreasing lexicographic order,
    starting from the path rooted at its center. One is a free tree's
    representative when the first subtree of the root (the tallest) is no
    taller than the rest of the tree, and, at equal heights, no larger, and
    at equal sizes no later in lexicographic order. An invalid successor is
    repaired by jumps toward the next representative, each jump tested
    again: from a representative's successor one jump lands on it, from
    the end of a skipped block it may take more. The validity
    test here rescans the sequence, so a step costs O(n) rather than the
    paper's amortized constant; n is bounded by the enumeration cap. The
    yielded list is reused: copy it to keep it past the next step.

    The sequences that share a prefix come one after another, so a caller
    can skip them as one block: send(j), for 0 <= j < n, in place of next()
    skips every sequence that starts with the last one's levels[:j + 1].
    """
    if n < 1:
        raise ValueError(f"free-tree generation needs n >= 1, got {n}")
    levels = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while True:
        skip = yield levels
        if skip is not None:
            # The prefix followed by leaves of the root is the smallest
            # sequence with that prefix, so the last of its block.
            levels[skip + 1 :] = [1] * (n - skip - 1)
        p = n - 1
        while levels[p] == 1:
            p -= 1
        if p == 0:
            return
        _successor(levels, p)
        while True:
            # The root's first subtree occupies 1..m-1; the rest starts at m.
            m = levels.index(1, 2) if 1 in levels[2:] else n
            left_height = max(levels[1:m]) - 1
            rest_height = max(levels[m:], default=0)
            if rest_height > left_height:
                break
            if rest_height == left_height:
                left_size, rest_size = m - 1, n - m + 1
                if left_size < rest_size:
                    break
                if left_size == rest_size and [v - 1 for v in levels[1:m]] <= [0] + levels[m:]:
                    break
            # Jump: advance the first subtree itself. When its last vertex
            # sits below level 2, the copies do too, so the first subtree now
            # runs to the end, and the next representative ends in a path
            # from the root one level taller than that subtree.
            deep = levels[m - 1] > 2
            _successor(levels, m - 1)
            if deep:
                height = max(levels[1:]) - 1
                levels[n - height - 1 :] = range(1, height + 2)


def _check_full_budget(n: int, budget: EnumerationBudget) -> None:
    """Refuse a full enumeration on n vertices, by the order cap or by the
    predicted free-tree count."""
    if n > _MAX_FULL_N:
        raise BudgetExceeded(f"n={n} exceeds full-enumeration cap {_MAX_FULL_N}")
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


def _ruled_out_prefix(
    levels: list[int], target: list[int], room: list[int], parent: list[int]
) -> int | None:
    """Scan a level sequence against a degree multiset, target[d] being
    the number of vertices of degree d and room[d] the number of degree d
    or more: an index j such that no sequence still to come that starts
    with levels[:j + 1] realizes the multiset, or None when this one does,
    with parent then filled in as in _free_trees.

    The room counts decide. Degrees only grow, so a prefix fails once, for
    some d, more of its vertices have degree d or more than the multiset
    has: room[d] counts the entries >= d not yet reached by a vertex of the
    prefix. A whole sequence that passes them realizes the multiset: summed
    over d >= 2, its vertices of degree >= d and the entries >= d both
    number 2(n - 1) - n, so no count falls short. Two more tests only fail
    a prefix sooner. Vertex i closes the internal vertices of the current
    root path at levels[i] or deeper: their degrees are final and must fit
    in what is left of the multiset. The sequences still to come that
    share levels[:i] put vertex i no deeper, so they close the same
    vertices and fail too.

    A centre costs internal vertices. Every sequence the generator yields
    is rooted at a centre: the rest (the root with its later subtrees)
    reaches at least the height of the root's first subtree, and strictly
    more when that subtree is the larger part. Every vertex on a path down
    to that height but its last has degree 2 or more, and so does the root
    once it has a second child; room[2] bounds how many more such vertices
    there can be. While vertex i is still in the first subtree, which has
    at least i vertices, the rest needs height + (2i > n) of them, height
    being the deepest level so far minus 1, the root's among them. Once the
    second subtree starts at m, the first subtree's height and size are
    fixed, the rest must reach goal = height + (2m > n + 2), and future
    vertices attach only to the current root path, so until some vertex of
    the rest reaches goal the cheapest way down extends vertex i itself:
    goal - levels[i] more of them. Every sequence still to come that starts
    with levels[:i + 1] shares the first subtree, room[2] and the path, so
    it fails too. In the first subtree the test can newly fail only where
    room[2] falls or height rises, both of which give a parent degree 2,
    and where i passes n / 2.
    """
    n = len(levels)
    left = target.copy()
    room = room.copy()
    degree = [0] + [1] * (n - 1)  # each vertex but the root has its parent
    last = [0] * n  # last[h] is the latest vertex at level h
    previous = 0
    half = n // 2 + 1  # the first i with 2i > n
    height = 0  # the first subtree's height so far
    goal = None  # what the rest must reach, once the second subtree starts; 0 once it has
    for i in range(1, n):
        depth = levels[i]
        if depth < previous:  # closes the internal vertices at depth or deeper
            for h in range(depth, previous):
                d = degree[last[h]]
                if not left[d]:
                    return i - 1
                left[d] -= 1
        last[depth] = i
        p = last[depth - 1]
        parent[i] = p
        d = degree[p] + 1
        if not room[d]:
            return i
        room[d] -= 1
        degree[p] = d
        previous = depth
        if goal is None:
            if d == 2 or i == half:
                if depth == 1:  # the root's second child: the second subtree starts
                    goal = height + (2 * i > n + 2)
                else:
                    if depth > height:  # vertex i may be the deepest so far
                        height = depth - 1
                    if room[2] < height + (i >= half):
                        return i
        if goal:
            if depth >= goal:
                goal = 0
            elif room[2] < goal - depth:
                return i
    return None


def _realization_parents(
    ds: DegreeSequence, budget: EnumerationBudget = DEFAULT_BUDGET
) -> Iterator[tuple[int, ...]]:
    """The parent tuples of enumerate_trees(ds), in its order: a star's
    before any budget check, every other sequence's from the pruned walk."""
    if ds.k == 1:
        yield (0,) * ds.n
        return
    _check_full_budget(ds.n, budget)
    top = ds.degrees[0]
    target = [0] * (top + 1)
    for d in ds.degrees:
        target[d] += 1
    room = [0] * (top + 2)  # room[top + 1] stays 0
    for d in range(top, -1, -1):
        room[d] = room[d + 1] + target[d]
    parent = [0] * ds.n
    walk = free_level_sequences(ds.n)
    levels = next(walk)
    while True:
        failed = _ruled_out_prefix(levels, target, room, parent)
        if failed is None:
            yield tuple(parent)
        try:
            levels = walk.send(failed)
        except StopIteration:
            return


def enumerate_trees(
    ds: DegreeSequence, budget: EnumerationBudget = DEFAULT_BUDGET
) -> Iterator[Tree]:
    """One representative per isomorphism class of trees realizing ds.

    Output order is the generator's order over free trees on ds.n vertices,
    with vertices labeled in level-sequence preorder from the root, so
    repeated runs are byte-identical. A star is its sequence's only tree:
    it is yielded before any budget check, at any order, and nothing is
    generated.

    The walk visits only the blocks of level sequences that could still
    realize ds: each visited sequence is scanned once, and the first prefix
    that rules ds out is sent back to the generator, which skips every
    sequence starting with it. Room counts decide: a prefix fails once more
    of its vertices reach some degree than ds has room for, and a sequence
    that never does realizes ds. A finished internal degree that no longer
    fits, or a first root subtree too tall for a centre, only fails a
    prefix sooner. A skip drops only sequences that fail the same scan, so
    the trees are those of a filter over every free tree.
    Each tree is built from the parent tuple the walk yields
    (_realization_parents).
    """
    return map(_tree_from_parents, _realization_parents(ds, budget))


def enumerate_all_trees(
    n: int, budget: EnumerationBudget = DEFAULT_BUDGET
) -> Iterator[tuple[DegreeSequence, list[Tree]]]:
    """(ds, list(enumerate_trees(ds))) for every degree sequence of order
    n, in enumerate_degree_sequences(n) order, from one pass over the free
    trees on n.

    The budget is checked when this is called, before any generation, so
    a sweep can refuse every order up front. The pass (_all_parents) keeps
    each tree as its parent tuple, grouped by sorted degrees, and the Trees
    are built one sequence at a time.
    """
    _check_full_budget(n, budget)
    return ((ds, list(map(_tree_from_parents, parents))) for ds, parents in _all_parents(n))


def _all_parents(n: int) -> Iterator[tuple[DegreeSequence, list[tuple[int, ...]]]]:
    """(ds, parent tuples of enumerate_trees(ds)) for every degree sequence
    of order n, from one unpruned pass; the caller checks the budget."""
    by_degrees: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for parent, degree in _free_trees(n):
        key = tuple(sorted(degree, reverse=True))
        by_degrees.setdefault(key, []).append(tuple(parent))
    for ds in enumerate_degree_sequences(n):
        yield ds, by_degrees.pop(ds.degrees)


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
    first, depth first off an explicit stack, each part bounded so that the
    window can still be met; only yielded sequences are built. They
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
    # (internal degrees so far, what is left of n - 2, the largest part allowed)
    stack = [((), n - 2, n - 2)]
    while stack:
        internal, remaining, cap = stack.pop()
        if remaining == 0 or cap == 1:
            # Parts of 1 are all that is left: one degree 2 per unit.
            degrees = internal + (2,) * remaining
            yield _built(degrees + (1,) * (n - len(degrees)), len(degrees))
            continue
        # The part p leaves remaining - p to at most max_k - len - 1 parts
        # no larger than p, and to at least min_k - len - 1 parts.
        k = len(internal)
        lo = -(-remaining // (max_k - k))
        hi = min(cap, remaining - max(0, min_k - k - 1))
        for p in range(lo, hi + 1):  # smallest first, so the largest is walked first
            stack.append((internal + (p + 1,), remaining - p, p))
