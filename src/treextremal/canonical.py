"""Canonical codes for unrooted trees.

The code of a rooted tree is a parenthesis string built bottom-up: a leaf is
"()", an internal vertex wraps the sorted concatenation of its children's
codes. An unrooted tree is coded by rooting at each of its one or two
centers and taking the lexicographically smaller string. Two trees get equal
codes iff they are isomorphic, so the code doubles as a dedupe key and as a
deterministic sort key.

A caterpillar C(y) is coded from y alone (_caterpillar_code), without a
Tree. Its center is the middle spine vertex, or the better of the two middle
ones, and each of its two arms is coded outward-in: the end leaf is "()",
and spine vertex v_i wraps the code of the arm beyond it and y_i leaves,
"(" + inner + "()" * y_i + ")". A non-leaf code starts with "((", so it
sorts before every "()" and the sort rooted_code makes is known in advance.
"""

from .trees import Tree, _longest_path, bfs


def centers(t: Tree) -> list[int]:
    """The 1 or 2 middle vertices of a longest path, sorted.

    Every longest path runs through the center(s) of a tree, with them at
    its middle, so one path found by double sweep is enough.
    """
    path = _longest_path(t)
    return sorted(path[(len(path) - 1) // 2 : len(path) // 2 + 1])


def rooted_code(t: Tree, root: int) -> str:
    """Canonical parenthesis string of t rooted at root."""
    # Children come after their parent in BFS order, so the reversed order
    # codes every child before its parent; sorting makes the order moot.
    order, parent, _ = bfs(t, root)
    code: list[str] = [""] * t.n
    kids: list[list[str]] = [[] for _ in range(t.n)]
    for v in reversed(order):
        code[v] = "(" + "".join(sorted(kids[v])) + ")"
        p = parent[v]
        if p >= 0:
            kids[p].append(code[v])
    return code[root]


def canonical_form(t: Tree) -> str:
    """Relabeling-invariant code: minimum of the rooted codes at the centers."""
    return min(rooted_code(t, c) for c in centers(t))


def _caterpillar_code(y) -> str:
    """canonical_form(caterpillar_build(y)) for a nonempty pendant vector y,
    written from y alone (see the module docstring)."""

    def arm(values):  # the pendant counts from the end leaf inward
        code = "()"
        for v in values:
            code = "(" + code + "()" * v + ")"
        return code

    def rooted(i):  # rooted at spine vertex i (0-based in y)
        left, right = arm(y[:i]), arm(y[:i:-1])
        return "(" + min(left, right) + max(left, right) + "()" * y[i] + ")"

    k = len(y)
    return min(map(rooted, range((k - 1) // 2, k // 2 + 1)))
