"""Canonical codes for unrooted trees.

The code of a rooted tree is a parenthesis string built bottom-up: a leaf is
"()", an internal vertex wraps the sorted concatenation of its children's
codes. An unrooted tree is coded by rooting at each of its one or two
centers and taking the lexicographically smaller string. Two trees get equal
codes iff they are isomorphic, so the code doubles as a dedupe key and as a
deterministic sort key.
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
