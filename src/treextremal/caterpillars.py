"""Caterpillars encoded by their internal pendant vector.

A caterpillar with k internal vertices is written C(y_1, ..., y_k): take the
path v_0 v_1 ... v_k v_{k+1} and attach y_i pendant leaves at v_i for
1 <= i <= k. Internal vertex v_i then has degree y_i + 2, and the tree has
(sum y_i) + 2 leaves. The mirror image C(y_k, ..., y_1) is the same unlabeled
tree, so enumeration and reporting work with the canonical orientation (the
lexicographically greater of y and its reverse). Throughout the package a
caterpillar is that canonical tuple; a Tree is built only when one is needed.
"""

from operator import index

from .errors import EmptySpine
from .trees import Tree, _longest_path, _tree_from_parents, is_caterpillar


def caterpillar_canonical(y) -> tuple[int, ...]:
    """The lexicographically greater of y and its reverse (mirror dedupe)."""
    forward = tuple(y)
    backward = tuple(reversed(forward))
    return forward if forward >= backward else backward


def _pendant_vector(y) -> tuple[int, ...]:
    """y as a tuple of ints, or EmptySpine unless it is nonempty, integral and >= 0."""
    try:
        y = tuple(map(index, y))
    except TypeError:
        raise EmptySpine(f"pendant counts must be integers: {y}") from None
    if not y:
        raise EmptySpine("caterpillar needs at least one internal vertex")
    if min(y) < 0:
        raise EmptySpine(f"pendant counts must be >= 0: {y}")
    return y


def _caterpillar_parents(y: tuple[int, ...]) -> list[int]:
    """Parent array of C(y) for a valid pendant vector y, rooted at v_0.

    Spine vertex v_j is label j with parent j - 1 (-1 at the root), and the
    pendants of v_j follow label k + 1 in spine order with parent j. Every
    parent label is below its child's, so range(n) lists parents first.
    """
    parent = list(range(-1, len(y) + 1))
    for j, cnt in enumerate(y, start=1):
        parent += [j] * cnt
    return parent


def caterpillar_build(y) -> Tree:
    """Materialize C(y_1, ..., y_k) with deterministic labels.

    Spine vertices get labels 0..k+1 (so v_j is label j); pendants follow in
    spine order starting at k+2 (see _caterpillar_parents).
    """
    return _tree_from_parents(_caterpillar_parents(_pendant_vector(y)))


def caterpillar_from_tree(t: Tree) -> tuple[int, ...] | None:
    """Recover the canonical pendant vector, or None.

    Returns None when t is not a caterpillar, or when it has no internal
    vertices (n <= 2) and therefore no C(y) form. The spine is the interior
    of a longest path (trees._longest_path): in a caterpillar it holds
    every internal vertex, and each has y_i = degree - 2.
    """
    if t.n <= 2 or not is_caterpillar(t):
        return None
    path = _longest_path(t)
    return caterpillar_canonical([len(t.adjacency[v]) - 2 for v in path[1:-1]])
