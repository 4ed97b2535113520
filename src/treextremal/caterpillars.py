"""Caterpillars encoded by their internal pendant vector.

A caterpillar with k internal vertices is written C(y_1, ..., y_k): take the
path v_0 v_1 ... v_k v_{k+1} and attach y_i pendant leaves at v_i for
1 <= i <= k. Internal vertex v_i then has degree y_i + 2, and the tree has
(sum y_i) + 2 leaves. The mirror image C(y_k, ..., y_1) is the same unlabeled
tree, so enumeration and reporting work with the canonical orientation (the
lexicographically greater of y and its reverse).
"""

from dataclasses import dataclass

from .degrees import DegreeSequence
from .errors import EmptySpine
from .trees import Tree


@dataclass(frozen=True)
class Caterpillar:
    y: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "y", tuple(int(v) for v in self.y))
        if len(self.y) == 0:
            raise EmptySpine("caterpillar needs at least one internal vertex")
        if any(v < 0 for v in self.y):
            raise EmptySpine(f"pendant counts must be >= 0: {self.y}")

    @property
    def k(self) -> int:
        return len(self.y)

    @property
    def n(self) -> int:
        return self.k + 2 + sum(self.y)

    def degree_sequence(self) -> DegreeSequence:
        internal = [v + 2 for v in self.y]
        return DegreeSequence(tuple(internal) + (1,) * (sum(self.y) + 2))

    def build(self) -> Tree:
        return caterpillar_build(self.y)


def caterpillar_canonical(y) -> tuple[int, ...]:
    """The lexicographically greater of y and its reverse (mirror dedupe)."""
    forward = tuple(y)
    backward = tuple(reversed(forward))
    return forward if forward >= backward else backward


def caterpillar_build(y) -> Tree:
    """Materialize C(y_1, ..., y_k) with deterministic labels.

    Spine vertices get labels 0..k+1 (so v_j is label j); pendants follow in
    spine order starting at k+2.
    """
    y = tuple(int(v) for v in y)
    k = len(y)
    if k == 0:
        raise EmptySpine("caterpillar needs at least one internal vertex")
    if any(v < 0 for v in y):
        raise EmptySpine(f"pendant counts must be >= 0: {y}")
    n = k + 2 + sum(y)
    edges = [(j, j + 1) for j in range(k + 1)]
    nxt = k + 2
    for j, cnt in enumerate(y, start=1):
        for _ in range(cnt):
            edges.append((j, nxt))
            nxt += 1
    return Tree(n, edges)


def caterpillar_from_tree(t: Tree) -> Caterpillar | None:
    """Recover the canonical pendant vector, or None.

    Returns None when t is not a caterpillar, or when it has no internal
    vertices (n <= 2) and therefore no C(y) form.
    """
    internal = [v for v in range(t.n) if len(t.adjacency[v]) >= 2]
    if not internal:
        return None
    # The internal vertices induce a subtree; a caterpillar needs it to be a
    # path. Find its endpoints and walk it.
    inner_deg = {
        v: sum(1 for w in t.adjacency[v] if len(t.adjacency[w]) >= 2) for v in internal
    }
    if any(d > 2 for d in inner_deg.values()):
        return None
    if len(internal) == 1:
        spine = internal
    else:
        ends = sorted(v for v in internal if inner_deg[v] <= 1)
        if len(ends) != 2:
            return None
        spine = [ends[0]]
        prev = -1
        while True:
            v = spine[-1]
            step = [w for w in t.adjacency[v] if len(t.adjacency[w]) >= 2 and w != prev]
            if not step:
                break
            prev = v
            spine.append(step[0])
    y = tuple(len(t.adjacency[v]) - 2 for v in spine)
    return Caterpillar(caterpillar_canonical(y))
