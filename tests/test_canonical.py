"""Canonical codes must match isomorphism exactly.

The independent referee is a backtracking search over degree-compatible
vertex bijections, sharing nothing with the center/AHU construction.
"""

import random
from itertools import combinations

from treextremal.canonical import canonical_form
from treextremal.caterpillars import caterpillar_build
from treextremal.enumeration import (
    enumerate_all_trees,
    enumerate_degree_sequences,
    enumerate_trees,
)
from treextremal.prufer import prufer_decode
from treextremal import trees as trees_module
from treextremal.trees import Tree, _longest_path, bfs, path_tree, star_tree


def brute_force_isomorphic(t1: Tree, t2: Tree) -> bool:
    """Vertex-permutation search with degree pruning."""
    if t1.n != t2.n or sorted(map(len, t1.adjacency)) != sorted(map(len, t2.adjacency)):
        return False
    n = t1.n
    if n == 1:
        return True
    edge_set2 = set(t2.edges)
    mapping = [-1] * n
    used = [False] * n

    def place(v: int) -> bool:
        if v == n:
            return True
        deg_v = len(t1.adjacency[v])
        for w in range(n):
            if used[w] or len(t2.adjacency[w]) != deg_v:
                continue
            ok = True
            for u in t1.adjacency[v]:
                if u < v:  # already mapped neighbor must map to a neighbor
                    a, b = mapping[u], w
                    if ((a, b) if a < b else (b, a)) not in edge_set2:
                        ok = False
                        break
            if ok:
                mapping[v] = w
                used[w] = True
                if place(v + 1):
                    return True
                used[w] = False
                mapping[v] = -1
        return False

    return place(0)


def test_relabeling_invariance():
    rng = random.Random(99)
    for _ in range(300):
        n = rng.randint(2, 12)
        seq = [rng.randrange(n) for _ in range(n - 2)]
        t = prufer_decode(seq, n)
        perm = list(range(n))
        rng.shuffle(perm)
        relabeled = Tree(n, [(perm[u], perm[v]) for u, v in t.edges])
        assert canonical_form(t) == canonical_form(relabeled)


def test_known_pairs():
    p4a = path_tree(4)
    p4b = Tree(4, [(3, 0), (0, 2), (2, 1)])
    assert canonical_form(p4a) == canonical_form(p4b)
    assert canonical_form(p4a) != canonical_form(star_tree(4))
    mirror_a = caterpillar_build((1, 0, 0))
    mirror_b = caterpillar_build((0, 0, 1))
    assert canonical_form(mirror_a) == canonical_form(mirror_b)


def test_codes_agree_with_brute_force_up_to_n8():
    trees = []
    for n in range(1, 9):
        for ds in enumerate_degree_sequences(n):
            trees.extend(enumerate_trees(ds))
    by_n: dict[int, list[Tree]] = {}
    for t in trees:
        by_n.setdefault(t.n, []).append(t)
    for n, group in by_n.items():
        # enumerate_trees yields each free tree once, so all same-n pairs
        # must be non-isomorphic; re-check both directions against the referee.
        for t1, t2 in combinations(group, 2):
            same_code = canonical_form(t1) == canonical_form(t2)
            assert same_code == brute_force_isomorphic(t1, t2)
    # Positive direction: relabeled copies must agree under both notions.
    rng = random.Random(4)
    for t in trees:
        perm = list(range(t.n))
        rng.shuffle(perm)
        copy = Tree(t.n, [(perm[u], perm[v]) for u, v in t.edges])
        assert canonical_form(t) == canonical_form(copy)
        assert brute_force_isomorphic(t, copy)


def reference_code(t: Tree) -> str:
    """The minimum AHU code over the centers, by the route canonical_form
    replaced: the centers are the middle one or two vertices of a longest
    path, and each is coded by a BFS rooted there."""
    path = _longest_path(t)
    best = None
    for root in path[(len(path) - 1) // 2 : len(path) // 2 + 1]:
        order, parent, _ = bfs(t, root)
        kids: list[list[str]] = [[] for _ in range(t.n)]
        for v in reversed(order):  # children come after their parent
            code = "(" + "".join(sorted(kids[v])) + ")"
            if parent[v] >= 0:
                kids[parent[v]].append(code)
        best = code if best is None else min(best, code)
    return best


def test_code_shapes():
    assert canonical_form(Tree(1, [])) == "()"
    assert canonical_form(Tree(2, [(0, 1)])) == "(())"
    assert canonical_form(path_tree(3)) == "(()())"
    assert canonical_form(path_tree(5)) == "((())(()))"
    assert canonical_form(path_tree(6)) == "(((()))(()))"
    assert canonical_form(star_tree(7)) == "(" + "()" * 6 + ")"


def test_one_pass_matches_the_center_rooted_reference():
    trees = [t for n in range(1, 14) for _, ts in enumerate_all_trees(n) for t in ts]
    assert len(trees) == 1 + 1 + 1 + 2 + 3 + 6 + 11 + 23 + 47 + 106 + 235 + 551 + 1301
    rng = random.Random(60)
    for _ in range(3000):
        n = rng.randint(3, 80)
        trees.append(prufer_decode([rng.randrange(n) for _ in range(n - 2)], n))
    for t in trees:
        assert canonical_form(t) == reference_code(t), t


def test_codes_without_a_breadth_first_walk(monkeypatch):
    # The centers come out of the leaf stripping, not out of a BFS.
    trees = [path_tree(7), star_tree(6), Tree(6, [(0, 1), (1, 2), (2, 3), (1, 4), (2, 5)])]
    expected = [reference_code(t) for t in trees]

    def no_walk(*args):
        raise AssertionError("canonical_form ran a BFS")

    monkeypatch.setattr(trees_module, "_walk", no_walk)
    assert [canonical_form(t) for t in trees] == expected
