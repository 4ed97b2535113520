"""Exact subtree counting.

A subtree here is a nonempty vertex subset inducing a connected subgraph.
All counts are exact Python integers (they grow like 2^n, so nothing here
ever touches floating point).

Two independent routes are kept on purpose:

* the product-form dynamic program (count_subtrees and friends), and
* brute_force_count, which grows connected subsets one vertex at a time and
  shares no recursion with the DP. It is the oracle the test suite holds
  everything else against.

caterpillar_phi counts a caterpillar straight from its pendant vector in
O(k), with no Tree; the caterpillar search scores every arrangement with
it and recounts each winner with count_subtrees.
"""

from typing import Sequence

from .caterpillars import Caterpillar
from .errors import EmptySpine, IndexOutOfRange, TooLarge, VertexOutOfRange
from .trees import Tree, bfs


def _down_counts(t: Tree, root: int) -> tuple[list[int], list[int], list[int]]:
    """For each v, the number of subtrees of v's rooted subtree containing v.

    down[v] = prod over children c of (1 + down[c]). Returns (down, order,
    parent) so callers can reuse the traversal.
    """
    order, parent, _ = bfs(t, root)
    down = [1] * t.n
    for v in reversed(order):
        prod = 1
        for w in t.adjacency[v]:
            if w != parent[v]:
                prod *= 1 + down[w]
        down[v] = prod
    return down, order, parent


def count_subtrees(t: Tree) -> int:
    """Total number of nonempty subtrees of t.

    Each subtree is counted at its unique vertex closest to the root, so the
    total is the sum of the rooted counts; the root choice cannot change it.
    """
    down, _, _ = _down_counts(t, 0)
    return sum(down)


def count_subtrees_containing(t: Tree, v: int) -> int:
    """Number of subtrees containing vertex v.

    Rooting at v, this is the product over neighbors u of (1 + the count of
    subtrees containing u inside u's component of t - v).
    """
    down, _, _ = _down_counts(t, v)
    return down[v]


def count_all_containing(t: Tree) -> list[int]:
    """Per-vertex containment counts in two sweeps.

    The down sweep computes rooted counts from a fixed root; the up sweep
    pushes the complementary count up[c] = (number of subtrees containing the
    parent of c inside the tree minus c's subtree) down the traversal using
    prefix/suffix products over siblings. Then every vertex combines both
    sides: result[v] = (1 + up[v]) * prod over children (1 + down[c]).
    """
    down, order, parent = _down_counts(t, 0)
    up = [0] * t.n  # up[root] stays 0: the factor (1 + up) degenerates to 1
    result = [0] * t.n
    for v in order:
        children = [w for w in t.adjacency[v] if w != parent[v]]
        factors = [1 + down[c] for c in children]
        m = len(children)
        prefix = [1] * (m + 1)
        for i in range(m):
            prefix[i + 1] = prefix[i] * factors[i]
        suffix = [1] * (m + 1)
        for i in range(m - 1, -1, -1):
            suffix[i] = suffix[i + 1] * factors[i]
        side = 1 + up[v]
        result[v] = side * prefix[m]
        for i, c in enumerate(children):
            up[c] = side * prefix[i] * suffix[i + 1]
    return result


def _steiner_vertices(t: Tree, vs: Sequence[int]) -> set[int]:
    """Vertex set of the minimal subtree spanning vs."""
    keep = set(vs)
    degree = [len(a) for a in t.adjacency]
    alive = set(range(t.n))
    strippable = [v for v in alive if degree[v] <= 1 and v not in keep]
    while strippable:
        v = strippable.pop()
        if v not in alive:
            continue
        alive.discard(v)
        for w in t.adjacency[v]:
            if w in alive:
                degree[w] -= 1
                if degree[w] <= 1 and w not in keep:
                    strippable.append(w)
    return alive


def count_subtrees_containing_set(t: Tree, vs: Sequence[int]) -> int:
    """Number of subtrees containing every vertex in vs.

    Any such subtree contains the whole minimal spanning subtree of vs, so
    contracting that subtree to a single vertex reduces the question to the
    single-vertex count. Contracting a connected piece of a tree never
    creates parallel edges.
    """
    vs = list(vs)
    if not vs:
        raise VertexOutOfRange("vertex set must be nonempty")
    for v in vs:
        t.check_vertex(v)
    block = _steiner_vertices(t, vs)
    if len(block) == t.n:
        return 1
    relabel = {}
    nxt = 1
    for v in range(t.n):
        relabel[v] = 0 if v in block else nxt
        if v not in block:
            nxt += 1
    edges = []
    for u, v in t.edges:
        ru, rv = relabel[u], relabel[v]
        if ru != rv:
            edges.append((ru, rv))
    contracted = Tree(nxt, edges)
    return count_subtrees_containing(contracted, 0)


def component_counts(
    c: Caterpillar, j: int | None = None
) -> list[tuple[int, int, int]] | tuple[int, int, int]:
    """Containment counts of v_j in its three standard spine components.

    Row j is (f_j, f_le, f_ge) where the components arise from C(y) by
    deleting, respectively, both spine edges at v_j, the right spine edge
    v_j v_{j+1}, and the left spine edge v_{j-1} v_j:

        f_j  = 2**y_j
        f_le = 2**y_j * (1 + f_le at j-1)
        f_ge = 2**y_j * (1 + f_ge at j+1)

    Rows are indexed j = 0..k+1; the boundary rows are fixed to (1, 1, 1)
    since they are single-vertex components. Pass j to get one row.
    """
    k = c.k
    own = [1] + [2**v for v in c.y] + [1]
    le = [1] * (k + 2)
    for i in range(1, k + 1):
        le[i] = own[i] * (1 + le[i - 1])
    ge = [1] * (k + 2)
    for i in range(k, 0, -1):
        ge[i] = own[i] * (1 + ge[i + 1])
    rows = [(1, 1, 1)] + [(own[i], le[i], ge[i]) for i in range(1, k + 1)] + [(1, 1, 1)]
    if j is None:
        return rows
    if not (0 <= j <= k + 1):
        raise IndexOutOfRange(f"row index {j} outside 0..{k + 1}")
    return rows[j]


def caterpillar_phi(y) -> int:
    """phi(C(y)) in O(k) integer steps, without building the tree.

    A subtree holding no spine vertex is a single leaf (n - k of them).
    Every other subtree meets the spine in a contiguous run ending at some
    v_j; it contains v_j, any of v_j's pendants, and either stops there or
    continues into a subtree through v_{j-1} on the left, so there are
    S_j = 2**y_j (1 + S_{j-1}) of them, with S_0 = 1 for the end leaf v_0.
    S_j is the f_le column of component_counts. Runs ending at v_k may also
    take the end leaf v_{k+1}, which counts S_k once more:

        phi = (n - k) + S_1 + ... + S_k + S_k
    """
    y = tuple(y)
    if not y or min(y) < 0:
        raise EmptySpine(f"pendant counts must be a nonempty vector of values >= 0: {y}")
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
    size = [1] * t.n
    total = 0
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
        total += size[v] * (t.n - size[v])
    return total
