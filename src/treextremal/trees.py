"""Unrooted trees on dense 0-based vertex labels.

A tree on n vertices is stored as a sorted tuple of n - 1 undirected edges
(u, v) with u < v. Construction from an edge list validates everything once
(label range, no loops or duplicates, connectivity); after that a Tree is
immutable and safe to share between threads. The package's own generators
build their trees from parent arrays (_tree_from_parents), where checking
that each parent is a label below its child is the whole proof of a tree.

There is one breadth-first walk, _walk: bfs runs it on a Tree, and Tree checks
connectivity with it on the adjacency lists it has just built. There is one
longest-path algorithm, the double sweep (_longest_path): the last vertex a
BFS visits ends a longest path, and a BFS from there reaches the other end
last. The diameter and a caterpillar's spine are read off it; `treextremal
count` runs only the second sweep (_eccentricity), from the last vertex of
the traversal its counts come from.
The edge-list parser converts every edge in one pass and re-reads the
lines one by one only to name the first bad one.
"""

from typing import Iterable

from .errors import InvalidTree, ParseError, VertexOutOfRange


class Tree:
    """Immutable unrooted tree on vertices 0..n-1."""

    __slots__ = ("n", "edges", "adjacency")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        try:  # non-integers fail a comparison or an index, non-pairs an unpack
            if n < 1:
                raise InvalidTree(f"vertex count must be >= 1, got {n}")
            normalized = []
            for u, v in edges:
                if not (0 <= u < n and 0 <= v < n):
                    raise InvalidTree(f"edge ({u}, {v}) has a label outside 0..{n - 1}")
                if u == v:
                    raise InvalidTree(f"self-loop at vertex {u}")
                normalized.append((u, v) if u < v else (v, u))
            normalized.sort()
            if len(normalized) != n - 1:
                raise InvalidTree(f"expected {n - 1} edges for n={n}, got {len(normalized)}")
            # Sorted (u < v) edges list each vertex's lower neighbours first and
            # each group ascending, so every adjacency list comes out sorted, and
            # a duplicate sits next to its twin.
            adj: list[list[int]] = [[] for _ in range(n)]
            previous = None
            for edge in normalized:
                if edge == previous:
                    raise InvalidTree("duplicate edge")
                previous = edge
                u, v = edge
                adj[u].append(v)
                adj[v].append(u)
        except InvalidTree:
            raise
        except (TypeError, ValueError) as exc:
            raise InvalidTree(f"labels and count must be integers, edges pairs: {exc}") from None

        # Connectivity; acyclicity follows from the edge count.
        if len(_walk(adj, 0)[0]) != n:
            raise InvalidTree("edge set is not connected")

        self.n = n
        self.edges = tuple(normalized)
        self.adjacency = tuple(map(tuple, adj))

    def leaves(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.n) if len(self.adjacency[v]) == 1)

    def check_vertex(self, v: int) -> None:
        if not (isinstance(v, int) and 0 <= v < self.n):
            raise VertexOutOfRange(f"vertex {v} outside 0..{self.n - 1}")

    def __eq__(self, other) -> bool:
        return isinstance(other, Tree) and self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Tree(n={self.n}, edges={list(self.edges)})"


def _tree_from_parents(parent) -> Tree:
    """The Tree with an edge from each vertex v >= 1 to parent[v] (parent[0]
    is ignored).

    Each parent must be a label below its child, and that one check proves
    the array a tree: every vertex but 0 has one edge to a lower label, so
    following parents reaches 0, and n - 1 edges connecting n vertices form
    a tree. Only the edges need a sort: each adjacency list comes out
    sorted, since vertex v gets its parent, its one lower neighbour, at
    step v and its children at the later steps of their own labels.
    """
    n = len(parent)
    adj: list[list[int]] = [[] for _ in range(n)]
    edges = []
    for v in range(1, n):
        p = parent[v]
        if not 0 <= p < v:
            raise InvalidTree(f"vertex {v} has parent {p}, not a label in 0..{v - 1}")
        adj[p].append(v)
        adj[v].append(p)
        edges.append((p, v))
    edges.sort()
    t = object.__new__(Tree)
    t.n = n
    t.edges = tuple(edges)
    t.adjacency = tuple(map(tuple, adj))
    return t


def path_tree(n: int) -> Tree:
    """Path 0-1-...-(n-1)."""
    return Tree(n, [(i, i + 1) for i in range(n - 1)])


def star_tree(n: int) -> Tree:
    """Star with center 0 and leaves 1..n-1."""
    return Tree(n, [(0, i) for i in range(1, n)])


def bfs(t: Tree, root: int) -> tuple[list[int], list[int], list[int]]:
    """Breadth-first traversal from root.

    Returns (order, parent, dist): the vertices in visit order (parents
    before children, distances nondecreasing), each vertex's parent (-1 at
    the root) and its distance from the root.
    """
    t.check_vertex(root)
    return _walk(t.adjacency, root)


def _walk(adjacency, root: int) -> tuple[list[int], list[int], list[int]]:
    """bfs over adjacency lists; order lists only the vertices root reaches."""
    n = len(adjacency)
    parent = [-1] * n
    dist = [-1] * n
    dist[root] = 0
    order = [root]
    for v in order:  # the loop also visits the vertices appended below
        d = dist[v] + 1
        for w in adjacency[v]:
            if dist[w] < 0:
                dist[w] = d
                parent[w] = v
                order.append(w)
    return order, parent, dist


def diameter(t: Tree) -> int:
    """Length of a longest path (see _longest_path)."""
    return len(_longest_path(t)) - 1


def _eccentricity(t: Tree, v: int) -> int:
    """The largest distance from v: the diameter when v ends a longest
    path, as the last vertex of any BFS of t does."""
    order, _, dist = bfs(t, v)
    return dist[order[-1]]


def _longest_path(t: Tree) -> list[int]:
    """The vertices of a longest path, from one end to the other.

    Double sweep: the last vertex a BFS visits is an end of a longest path,
    and a BFS from it visits the other end last.
    """
    far = bfs(t, 0)[0][-1]
    order, parent, _ = bfs(t, far)
    return _path_to_root(parent, order[-1])


def _path_to_root(parent: list[int], u: int) -> list[int]:
    """u, its parent, and so on up to the root (parent -1) of a traversal."""
    path = [u]
    while parent[path[-1]] >= 0:
        path.append(parent[path[-1]])
    return path


def is_caterpillar(t: Tree) -> bool:
    """True iff deleting every leaf leaves a path (or at most one vertex).

    The non-leaf vertices of a tree always induce a subtree, so it suffices
    to check that each of them has at most two non-leaf neighbors.
    """
    adjacency = t.adjacency
    internal = [len(a) >= 2 for a in adjacency]
    for is_internal, a in zip(internal, adjacency):
        if is_internal:
            internal_neighbors = 0
            for w in a:
                internal_neighbors += internal[w]
            if internal_neighbors > 2:
                return False
    return True


def tree_from_edge_list(text: str) -> Tree:
    """Parse the edge-list format: first line n, then n-1 lines "u v"."""
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln]
    if not lines:
        raise ParseError("empty edge-list document")
    try:
        n = int(lines[0])
    except ValueError:
        raise ParseError(f"first line must be the vertex count, got {lines[0]!r}") from None
    try:
        edges = [(int(u), int(v)) for u, v in map(str.split, lines[1:])]
    except ValueError:
        raise _bad_line(lines[1:]) from None
    return Tree(n, edges)


def _bad_line(lines: list[str]) -> ParseError:
    """The ParseError naming the first of the nonblank stripped lines that
    is not two integers. It runs only after converting the same lines in
    one pass failed, so there is such a line."""
    for ln in lines:
        parts = ln.split()
        if len(parts) != 2:
            return ParseError(f"expected 'u v', got {ln!r}")
        try:
            int(parts[0]), int(parts[1])
        except ValueError:
            return ParseError(f"non-integer endpoint in {ln!r}")
