"""Subtree counting against the subset-growth oracle.

Derived expectations in this file were produced by brute_force_count (the
independent oracle) and then frozen; the golden closed-form values (17, 24,
47, 3142) were additionally cross-checked against it.
"""

import itertools
import random

import pytest

from treextremal.caterpillars import _caterpillar_parents, caterpillar_build
from treextremal.counting import (
    brute_force_count,
    caterpillar_phi,
    count_all_containing,
    count_subtrees,
    wiener_index,
)
from treextremal.counting import _down_counts, _rooted_counts
from treextremal.enumeration import (
    enumerate_caterpillars,
    enumerate_degree_sequences,
    enumerate_trees,
)
from treextremal.errors import EmptySpine, TooLarge, VertexOutOfRange
from treextremal.prufer import prufer_decode
from treextremal.trees import Tree, bfs, path_tree, star_tree

FORK = caterpillar_build((1, 0))  # spine 0-1-2-3, pendant 4 at vertex 1
SPIDER = Tree(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])


def count_subtrees_containing(t, v):
    """Per-vertex oracle for count_all_containing: root the DP at v itself,
    so the count of subtrees containing v is the root's rooted count."""
    return _down_counts(t, v)[0][v]


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


def test_parent_array_recount_matches_oracle():
    # The caterpillar search recounts each winner this way: the product DP
    # over the parent array in label order, with no Tree and no BFS.
    rng = random.Random(2012)
    for _ in range(200):
        k = rng.randint(1, 18)
        y = [0] * k
        for _ in range(rng.randint(0, 18 - k)):  # n = k + 2 + sum(y) <= 20
            y[rng.randrange(k)] += 1
        parent = _caterpillar_parents(tuple(y))
        recount = sum(_rooted_counts(range(len(parent)), parent))
        assert recount == brute_force_count(caterpillar_build(y)), y


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


def test_rerooting_on_large_trees():
    # Exact division on counts of up to about 2**1000, against the DP rooted
    # at each of 20 sampled vertices per tree, the hub and two leaves among them.
    rng = random.Random(2012)
    broom = Tree(1416, [(i, i + 1) for i in range(707)] + [(707, v) for v in range(708, 1416)])
    pruefer = prufer_decode([rng.randrange(1000) for _ in range(998)], 1000)
    caterpillar = caterpillar_build(tuple(rng.randint(0, 9) for _ in range(120)))
    for t in (path_tree(2000), star_tree(300), broom, pruefer, caterpillar):
        table = count_all_containing(t)
        hub = max(range(t.n), key=lambda v: len(t.adjacency[v]))
        leaves = t.leaves()
        sample = {hub, leaves[0], leaves[-1]}
        while len(sample) < 20:
            sample.add(rng.randrange(t.n))
        for v in sample:
            assert table[v] == count_subtrees_containing(t, v), (t.n, v)


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


def test_containing_set_matches_oracle():
    for t in all_trees_up_to(7):
        table = count_all_containing(t)
        for v in range(t.n):
            assert table[v] == count_subtrees_containing(t, v) == oracle_containing_set(t, [v])


def test_caterpillar_phi_on_every_class_up_to_14():
    # Every caterpillar class of every degree sequence with n <= 14, in both
    # orientations, against the DP and the oracle on the built tree.
    classes = 0
    for n in range(3, 15):
        for ds in enumerate_degree_sequences(n):
            if ds.k == 0:
                continue
            for y in enumerate_caterpillars(ds):
                classes += 1
                t = caterpillar_build(y)
                phi = caterpillar_phi(y)
                assert phi == caterpillar_phi(y[::-1])
                assert phi == count_subtrees(t) == brute_force_count(t), y
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
        y = tuple(rng.randint(0, 5) for _ in range(rng.randint(1, 8)))
        k, n = len(y), len(y) + 2 + sum(y)
        t = caterpillar_build(y)
        # f_le(j) counts the subtrees containing v_j once the spine edge
        # v_j v_{j+1} is deleted.
        f_le = [_component_containing(t, j, banned_edge=(j, j + 1)) for j in range(1, k + 1)]
        assert caterpillar_phi(y) == n - k + sum(f_le) + f_le[-1]


def test_caterpillar_phi_golden_values_and_rejections():
    assert caterpillar_phi((1, 0)) == 17
    assert caterpillar_phi((1, 0, 0)) == 24
    assert caterpillar_phi((0, 1, 0)) == 25
    assert caterpillar_phi((6, 0, 1, 1, 1)) == 3142
    assert caterpillar_phi((3,)) == count_subtrees(star_tree(6))
    for bad in [(), (1, -1), (1.5,), ("2",)]:
        with pytest.raises(EmptySpine):
            caterpillar_phi(bad)


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
