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
sorts before every "()" and the sort canonical_form makes is known in advance.
"""

from .trees import Tree


def canonical_form(t: Tree) -> str:
    """Relabeling-invariant code: minimum of the rooted codes at the centers,
    written in one pass that strips leaves layer by layer down to them. A
    vertex is coded when it is stripped, from the neighbours stripped before
    it: its children when the tree is rooted at a center."""

    def wrap(codes):
        return "(" + "".join(sorted(codes)) + ")"

    adjacency = t.adjacency
    degree = [len(a) for a in adjacency]  # 0 once stripped
    kids: list[list[str]] = [[] for _ in adjacency]
    layer = [v for v, d in enumerate(degree) if d <= 1]
    remaining = len(adjacency)
    while remaining > 2:  # so no two vertices of one layer are adjacent
        remaining -= len(layer)
        nxt = []
        for v in layer:
            degree[v] = 0
            for w in adjacency[v]:
                if degree[w]:  # the one neighbour left: v's parent
                    kids[w].append(wrap(kids[v]))
                    degree[w] -= 1
                    if degree[w] == 1:
                        nxt.append(w)
        layer = nxt
    # Rooted at one center, the other one, if any, is one more child.
    return min(wrap(kids[c] + [wrap(kids[o]) for o in layer if o != c]) for c in layer)


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
