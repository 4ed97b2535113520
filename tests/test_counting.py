"""Subtree counting against the subset-growth oracle.

Derived expectations in this file were produced by brute_force_count (the
independent oracle) and then frozen; the golden closed-form values (17, 24,
47, 3142) were additionally cross-checked against it.
"""

import itertools
import random

import pytest

from treextremal.caterpillars import Caterpillar, caterpillar_build
from treextremal.counting import (
    brute_force_count,
    caterpillar_phi,
    component_counts,
    count_all_containing,
    count_subtrees,
    count_subtrees_containing,
    count_subtrees_containing_set,
    wiener_index,
)
from treextremal.counting import _down_counts
from treextremal.enumeration import (
    enumerate_caterpillars,
    enumerate_degree_sequences,
    enumerate_trees,
)
from treextremal.errors import EmptySpine, IndexOutOfRange, TooLarge, VertexOutOfRange
from treextremal.prufer import prufer_decode
from treextremal.trees import Tree, bfs, path_tree, star_tree

FORK = caterpillar_build((1, 0))  # spine 0-1-2-3, pendant 4 at vertex 1
SPIDER = Tree(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])


def all_trees_up_to(max_n):
    yield Tree(1, [])
    for n in range(2, max_n + 1):
        for ds in enumerate_degree_sequences(n):
            yield from enumerate_trees(ds)


def test_total_counts_paths_and_stars():
    for n in range(1, 10):
        assert count_subtrees(path_tree(n)) == n * (n + 1) // 2
    for n in range(2, 10):
        assert count_subtrees(star_tree(n)) == 2 ** (n - 1) + n - 1
    assert count_subtrees(star_tree(5)) == 20


def test_total_count_golden_values():
    assert count_subtrees(FORK) == 17
    assert count_subtrees(caterpillar_build((1, 0, 0))) == 24
    assert count_subtrees(caterpillar_build((0, 1, 0))) == 25  # oracle-derived
    assert count_subtrees(SPIDER) == 36  # oracle-derived


def test_root_choice_is_irrelevant():
    for t in all_trees_up_to(8):
        values = {sum(_down_counts(t, root)[0]) for root in range(t.n)}
        assert len(values) == 1


def test_oracle_equivalence_small():
    for t in all_trees_up_to(9):
        assert count_subtrees(t) == brute_force_count(t)


def test_oracle_guard():
    with pytest.raises(TooLarge):
        brute_force_count(path_tree(21))


def test_containing_single_vertex():
    assert count_subtrees_containing(star_tree(5), 0) == 16
    assert count_subtrees_containing(path_tree(3), 0) == 3
    assert count_subtrees_containing(FORK, 1) == 12  # oracle-derived
    with pytest.raises(VertexOutOfRange):
        count_subtrees_containing(FORK, 9)


def test_all_containing_reference_rows():
    assert count_all_containing(path_tree(3)) == [3, 4, 3]
    assert count_all_containing(star_tree(5)) == [16, 9, 9, 9, 9]
    assert count_all_containing(FORK) == [7, 12, 10, 6, 7]  # oracle-derived


def test_rerooting_agrees_with_per_vertex():
    for t in all_trees_up_to(9):
        table = count_all_containing(t)
        for v in range(t.n):
            assert table[v] == count_subtrees_containing(t, v)


def test_leaf_bound():
    # For a leaf u with neighbor w: f(u) = 1 + f of w in the tree minus u.
    for t in all_trees_up_to(8):
        if t.n < 2:
            continue
        table = count_all_containing(t)
        for u in t.leaves():
            (w,) = t.adjacency[u]
            relabel = {v: (v if v < u else v - 1) for v in range(t.n) if v != u}
            smaller = Tree(
                t.n - 1,
                [(relabel[a], relabel[b]) for a, b in t.edges if u not in (a, b)],
            )
            assert table[u] == 1 + count_subtrees_containing(smaller, relabel[w])


def oracle_containing_set(t, vs):
    """Independent subset enumeration specialized to supersets of vs."""
    need = set(vs)
    count = 0
    for size in range(len(need), t.n + 1):
        for subset in itertools.combinations(range(t.n), size):
            chosen = set(subset)
            if not need <= chosen:
                continue
            # connectivity check by traversal inside the subset
            start = next(iter(chosen))
            seen = {start}
            stack = [start]
            while stack:
                x = stack.pop()
                for y in t.adjacency[x]:
                    if y in chosen and y not in seen:
                        seen.add(y)
                        stack.append(y)
            if seen == chosen:
                count += 1
    return count


def test_containing_set_reference_values():
    p3 = path_tree(3)
    assert count_subtrees_containing_set(p3, [0, 2]) == 1
    k13 = star_tree(4)
    assert count_subtrees_containing_set(k13, [1, 2]) == 2
    # Fork pairs, oracle-derived: the two spine ends pin the whole spine.
    assert count_subtrees_containing_set(FORK, [0, 3]) == 2
    assert count_subtrees_containing_set(FORK, [0, 2]) == 4
    assert count_subtrees_containing_set(FORK, [0]) == count_subtrees_containing(FORK, 0)
    with pytest.raises(VertexOutOfRange):
        count_subtrees_containing_set(FORK, [])
    with pytest.raises(VertexOutOfRange):
        count_subtrees_containing_set(FORK, [0, 17])


def test_containing_set_matches_oracle():
    for t in all_trees_up_to(7):
        vertices = range(t.n)
        for m in (1, 2, 3):
            for vs in itertools.combinations(vertices, min(m, t.n)):
                assert count_subtrees_containing_set(t, vs) == oracle_containing_set(t, vs)


def test_component_count_rows():
    rows = component_counts(Caterpillar((1, 0, 0)))
    assert rows == [(1, 1, 1), (2, 4, 8), (1, 5, 3), (1, 6, 2), (1, 1, 1)]
    assert component_counts(Caterpillar((1, 0, 0)), 0) == (1, 1, 1)
    assert component_counts(Caterpillar((1, 0, 0)), 1) == (2, 4, 8)
    with pytest.raises(IndexOutOfRange):
        component_counts(Caterpillar((1, 0, 0)), 5)


def test_caterpillar_phi_on_every_class_up_to_14():
    # Every caterpillar class of every degree sequence with n <= 14, in both
    # orientations, against the DP and the oracle on the built tree.
    classes = 0
    for n in range(3, 15):
        for ds in enumerate_degree_sequences(n):
            if ds.k == 0:
                continue
            for cat in enumerate_caterpillars(ds):
                classes += 1
                t = caterpillar_build(cat.y)
                phi = caterpillar_phi(cat.y)
                assert phi == caterpillar_phi(cat.y[::-1])
                assert phi == count_subtrees(t) == brute_force_count(t), cat.y
    assert classes == 2142


def test_caterpillar_phi_random_vectors():
    rng = random.Random(20121)
    for _ in range(2000):
        y = tuple(rng.randint(0, 8) for _ in range(rng.randint(1, 12)))
        assert caterpillar_phi(y) == count_subtrees(caterpillar_build(y)), y


def test_caterpillar_phi_is_the_f_le_sum():
    # phi = (n - k) + f_le(1) + ... + f_le(k) + f_le(k): the runs of spine
    # vertices ending at v_j, plus those at v_k that also take v_{k+1}.
    rng = random.Random(7)
    for _ in range(200):
        cat = Caterpillar(tuple(rng.randint(0, 5) for _ in range(rng.randint(1, 8))))
        rows = component_counts(cat)
        f_le = [rows[j][1] for j in range(1, cat.k + 1)]
        assert caterpillar_phi(cat.y) == cat.n - cat.k + sum(f_le) + f_le[-1]


def test_caterpillar_phi_golden_values_and_rejections():
    assert caterpillar_phi((1, 0)) == 17
    assert caterpillar_phi((1, 0, 0)) == 24
    assert caterpillar_phi((0, 1, 0)) == 25
    assert caterpillar_phi((6, 0, 1, 1, 1)) == 3142
    assert caterpillar_phi((3,)) == count_subtrees(star_tree(6))
    for bad in [(), (1, -1)]:
        with pytest.raises(EmptySpine):
            caterpillar_phi(bad)


def test_component_counts_match_direct_computation():
    # Check every row against counts on the explicitly materialized
    # components, for a spread of caterpillars.
    for y in [(1, 0, 0), (2, 1, 0), (0, 3), (2,), (1, 2, 0, 1), (0, 0, 0, 0)]:
        cat = Caterpillar(y)
        t = cat.build()
        k = cat.k
        rows = component_counts(cat)
        for j in range(1, k + 1):
            assert rows[j][0] == 2 ** y[j - 1]
            # left component: drop the spine edge (j, j+1)
            left = _component_containing(t, j, banned_edge=(j, j + 1))
            assert rows[j][1] == left
            right = _component_containing(t, j, banned_edge=(j - 1, j))
            assert rows[j][2] == right


def _component_containing(t, v, banned_edge):
    banned = tuple(sorted(banned_edge))
    keep = set()
    stack = [v]
    keep.add(v)
    while stack:
        x = stack.pop()
        for w in t.adjacency[x]:
            if tuple(sorted((x, w))) == banned:
                continue
            if w not in keep:
                keep.add(w)
                stack.append(w)
    relabel = {x: i for i, x in enumerate(sorted(keep))}
    sub = Tree(
        len(keep),
        [
            (relabel[a], relabel[b])
            for a, b in t.edges
            if a in keep and b in keep and tuple(sorted((a, b))) != banned
        ],
    )
    return count_subtrees_containing(sub, relabel[v])


def test_wiener_reference_values():
    assert wiener_index(path_tree(4)) == 10
    assert wiener_index(star_tree(5)) == 16
    assert wiener_index(path_tree(5)) == 20
    assert wiener_index(Tree(1, [])) == 0


def _all_pairs_wiener(t):
    total = 0
    for v in range(t.n):
        total += sum(bfs(t, v)[2])
    return total // 2


def test_wiener_matches_all_pairs_bfs():
    for t in all_trees_up_to(9):
        assert wiener_index(t) == _all_pairs_wiener(t)
    rng = random.Random(300)
    for _ in range(4):
        t = prufer_decode([rng.randrange(300) for _ in range(298)], 300)
        assert wiener_index(t) == _all_pairs_wiener(t)
    for t in (path_tree(300), star_tree(300)):
        assert wiener_index(t) == _all_pairs_wiener(t)


def test_path_min_star_max_small():
    # Within each order, the path minimizes and the star maximizes, uniquely.
    for n in range(2, 10):
        counts = {}
        for ds in enumerate_degree_sequences(n):
            for t in enumerate_trees(ds):
                counts[t] = count_subtrees(t)
        path_value = n * (n + 1) // 2
        star_value = 2 ** (n - 1) + n - 1
        assert min(counts.values()) == path_value
        assert max(counts.values()) == star_value
        assert sum(1 for v in counts.values() if v == path_value) == 1
        assert sum(1 for v in counts.values() if v == star_value) == 1


def test_random_trees_match_oracle():
    import random

    rng = random.Random(123)
    for _ in range(150):
        n = rng.randint(2, 14)
        seq = [rng.randrange(n) for _ in range(n - 2)]
        t = prufer_decode(seq, n)
        assert count_subtrees(t) == brute_force_count(t)
