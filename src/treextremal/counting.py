"""Exact subtree counting.

A subtree here is a nonempty vertex subset inducing a connected subgraph.
All counts are exact Python integers (they grow like 2^n, so nothing here
ever touches floating point).

Two independent routes are kept on purpose:

* the product-form dynamic program: count_subtrees sums the rooted counts,
  and count_all_containing reroots them to every vertex in one pass by
  exact division, and
* brute_force_count, which grows connected subsets one vertex at a time and
  shares no recursion with the DP. It is the oracle the test suite holds
  everything else against.

The product DP (_rooted_counts), the rerooting and the Wiener index are
each written once, as a private helper over a rooted traversal (order,
parent), and the traversal has two sources. One is a BFS: the public
functions run one of their own on a Tree, and a caller needing more than
one number reads them all off one: `treextremal count` (phi, every
per-vertex count, Wiener) off the walk that validated its edge list
(trees._checked_walk), with no Tree, and `enumerate` and the
wiener-correspondence sweep (phi and Wiener) off a BFS of each tree. The
other is a caterpillar's parent array (caterpillars._caterpillar_parents),
which needs no Tree and no BFS: range(n) already lists its parents before
their children. The caterpillar search recounts its winners on it and
`enumerate --caterpillars-only` scores every class on it.

caterpillar_phi counts a caterpillar straight from its pendant vector in
O(k), with no Tree: it validates the vector and runs the recurrence,
_caterpillar_phi, which extremal runs directly on vectors it built itself.
The caterpillar search also carries the recurrence down each prefix of its
branch and bound and recounts each winner with the product DP on its
parent array.
"""

from .caterpillars import _pendant_vector
from .errors import TooLarge
from .trees import Tree, bfs


def _rooted_counts(order, parent) -> list[int]:
    """For each v, the number of subtrees of v's rooted subtree containing v.

    down[v] = prod over children c of (1 + down[c]), over a rooted traversal:
    order lists every vertex, the root first and parents before children.
    """
    down = [1] * len(order)
    for v in reversed(order[1:]):  # children before parents; the root has no parent
        down[parent[v]] *= 1 + down[v]
    return down


def _down_counts(t: Tree, root: int) -> tuple[list[int], list[int], list[int]]:
    """_rooted_counts on a BFS of t from root. Returns (down, order, parent)
    so callers can reuse the traversal."""
    order, parent, _ = bfs(t, root)
    return _rooted_counts(order, parent), order, parent


def count_subtrees(t: Tree) -> int:
    """Total number of nonempty subtrees of t.

    Each subtree is counted at its unique vertex closest to the root, so the
    total is the sum of the rooted counts; the root choice cannot change it.
    """
    down, _, _ = _down_counts(t, 0)
    return sum(down)


def count_all_containing(t: Tree) -> list[int]:
    """Per-vertex containment counts in one rerooting pass.

    Root at 0 and take the rooted counts down[v]; the root's own count is
    down[0]. For a child c of p, up_c counts the subtrees containing p that
    avoid c's side, so result[p] = up_c * (1 + down[c]): the division by
    1 + down[c] is exact, and the subtrees containing c number
    down[c] * (1 + up_c). Going down the traversal, each parent is final
    before its children:

        result[c] = down[c] * (1 + result[p] // (1 + down[c]))
    """
    return _reroot(*_down_counts(t, 0))


def _reroot(down: list[int], order: list[int], parent: list[int]) -> list[int]:
    """count_all_containing from the rooted counts of a traversal."""
    result = down[:]
    for v in order[1:]:
        d = down[v]
        result[v] = d * (1 + result[parent[v]] // (1 + d))
    return result


def caterpillar_phi(y) -> int:
    """phi(C(y)) in O(k) integer steps, without building the tree.

    A subtree holding no spine vertex is a single leaf (n - k of them).
    Every other subtree meets the spine in a contiguous run ending at some
    v_j; it contains v_j, any of v_j's pendants, and either stops there or
    continues into a subtree through v_{j-1} on the left, so there are
    S_j = 2**y_j (1 + S_{j-1}) of them, with S_0 = 1 for the end leaf v_0.
    S_j is also the count of subtrees containing v_j in the component of v_j
    left by deleting the spine edge v_j v_{j+1}. Runs ending at v_k may also
    take the end leaf v_{k+1}, which counts S_k once more:

        phi = (n - k) + S_1 + ... + S_k + S_k
    """
    return _caterpillar_phi(_pendant_vector(y))


def _caterpillar_phi(y) -> int:
    """caterpillar_phi of a pendant vector already known to be valid, such
    as one the caller built itself."""
    s = 1
    total = 0
    for v in y:
        s = (s + 1) << v
        total += s
    return total + s + sum(y) + 2


def brute_force_count(t: Tree) -> int:
    """Oracle: count connected vertex subsets by explicit subset growth.

    For each vertex v, connected subsets whose minimum element is v are
    enumerated over the restricted vertex set {v, v+1, ..., n-1} with a
    binary include/exclude split on the lowest frontier vertex, so every
    subset is reached exactly once. Bitmask arithmetic keeps the worst case
    (the star on 20 vertices, about 2**19 subsets) fast. Completely
    independent of the product-form DP.
    """
    if t.n > 20:
        raise TooLarge(f"oracle guard: n={t.n} > 20")
    n = t.n
    adj_mask = [0] * n
    for u, v in t.edges:
        adj_mask[u] |= 1 << v
        adj_mask[v] |= 1 << u
    total = 0
    for v in range(n):
        above = ((1 << n) - 1) & ~((1 << (v + 1)) - 1)  # vertices > v
        total += _grow_from(adj_mask, v, above)
    return total


def _grow_from(adj_mask: list[int], v: int, above: int) -> int:
    """Connected subsets with minimum vertex v, counted by binary splits."""

    def rec(in_set: int, neighbor_mask: int, excluded: int) -> int:
        frontier = neighbor_mask & above & ~in_set & ~excluded
        if frontier == 0:
            return 1
        low = frontier & -frontier
        u = low.bit_length() - 1
        with_u = rec(in_set | low, neighbor_mask | adj_mask[u], excluded)
        without_u = rec(in_set, neighbor_mask, excluded | low)
        return with_u + without_u

    return rec(1 << v, adj_mask[v], 0)


def wiener_index(t: Tree) -> int:
    """Sum of distances over unordered vertex pairs.

    Each edge lies on the path of exactly the pairs it separates, so the sum
    is, over edges, s (n - s) with s the vertex count on one side.
    """
    order, parent, _ = bfs(t, 0)
    return _wiener(order, parent)


def _wiener(order: list[int], parent: list[int]) -> int:
    """wiener_index from a traversal: subtree sizes, children first."""
    n = len(order)
    size = [1] * n
    total = 0
    for v in reversed(order[1:]):
        s = size[v]
        size[parent[v]] += s
        total += s * (n - s)
    return total
