"""Pruefer decoding: words of length n - 2 over the labels 0..n-1 map
one-to-one onto the labeled trees on n >= 2 vertices.

Vertex i appears in the word exactly deg(i) - 1 times. The searches do not
decode (they generate free trees directly); decoding stays public as a
source of uniformly random labeled trees and as an independent oracle for
the free-tree generator.
"""

import heapq

from .errors import LabelOutOfRange, LengthMismatch
from .trees import Tree


def prufer_decode(seq: list[int], n: int) -> Tree:
    """Decode a Pruefer word into the unique labeled tree it encodes."""
    if n < 2:
        raise LengthMismatch(f"decoding needs n >= 2, got n={n}")
    if len(seq) != n - 2:
        raise LengthMismatch(f"expected length {n - 2} for n={n}, got {len(seq)}")
    for a in seq:
        if not (0 <= a < n):
            raise LabelOutOfRange(f"label {a} outside 0..{n - 1}")

    degree = [1] * n
    for a in seq:
        degree[a] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)

    edges = []
    for a in seq:
        u = heapq.heappop(leaves)
        edges.append((u, a))
        degree[u] -= 1
        degree[a] -= 1
        if degree[a] == 1:
            heapq.heappush(leaves, a)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return Tree(n, edges)
