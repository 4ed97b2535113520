"""Extremal trees for a fixed degree sequence.

Given a tree degree sequence, find the trees minimizing or maximizing the
subtree count. Minimizers are always caterpillars, which makes the
caterpillar-only search complete for minimization; closed forms cover all
sequences with at most five internal vertices:

  k = 2:  phi = 2^(n-2) + 2^(d1-1) + 2^(d2-1) + n - 2, attained by every
          realization (there is only one).
  k = 3:  minimizer C(d1-2, d3-2, d2-2).
  k = 4:  minimizer C(d1-2, d4-2, d3-2, d2-2).
  k = 5:  a trichotomy on the sign of 2^d1 - 2^(d3-1) (1 + 2^(d2-1)) and on
          whether d4 = d5 picks between C(d1-2, d5-2, d4-2, d3-2, d2-2) and
          C(d1-2, d4-2, d5-2, d3-2, d2-2); ties yield both.

No closed forms exist for maximization, so maximum searches are exhaustive:
over all realizations while the budget allows, otherwise over caterpillars
only (and the report says so).

The module also implements the two improving transformations behind these
facts: shifting a branch off a non-caterpillar to a longest-path end, and
reversing a spine segment of a caterpillar.
"""

from dataclasses import dataclass

from .canonical import canonical_form
from .caterpillars import (
    Caterpillar,
    caterpillar_build,
    caterpillar_canonical,
    caterpillar_from_tree,
)
from .counting import count_subtrees
from .degrees import DegreeSequence
from .errors import (
    BudgetExceeded,
    ClosedFormUnavailable,
    IndexOutOfRange,
    InternalInconsistency,
    NotApplicable,
    WrongK,
)
from .enumeration import (
    DEFAULT_BUDGET,
    EnumerationBudget,
    count_caterpillar_arrangements,
    count_free_trees,
    enumerate_caterpillars,
    enumerate_trees,
)
from .trees import Tree, bfs_distances, bfs_parents, diameter, is_caterpillar, path_tree

MIN_SUBTREES = "min-subtrees"
MAX_SUBTREES = "max-subtrees"

METHODS = ("auto", "brute", "caterpillar", "closed-form")


@dataclass(frozen=True)
class Optimizer:
    """One optimal tree; y_vector is set when it is a caterpillar C(y)."""

    tree: Tree
    canonical_code: str
    y_vector: tuple[int, ...] | None


@dataclass
class ExtremalReport:
    degree_sequence: DegreeSequence
    objective: str  # MIN_SUBTREES or MAX_SUBTREES
    optimum: int
    optimizers: list[Optimizer]  # pairwise non-isomorphic, sorted by code
    method: str  # "brute" | "caterpillar" | "closed-form"
    trees_examined: int

    def optimizer_y_set(self) -> set[tuple[int, ...]]:
        return {o.y_vector for o in self.optimizers if o.y_vector is not None}

    def optimizer_codes(self) -> list[str]:
        return [o.canonical_code for o in self.optimizers]


def _make_optimizer(t: Tree) -> Optimizer:
    cat = caterpillar_from_tree(t)
    return Optimizer(t, canonical_form(t), cat.y if cat is not None else None)


def closed_form_phi(ds: DegreeSequence) -> tuple[int, tuple[int, ...]]:
    """Minimum subtree count and its caterpillar for k in {2, 3, 4}.

    Returns (value, y) with y in the stated orientation, largest pendant
    group first; the minimizer is unique up to isomorphism.
    """
    d = ds.degrees
    n = ds.n
    k = ds.k
    if k == 2:
        value = 2 ** (n - 2) + 2 ** (d[0] - 1) + 2 ** (d[1] - 1) + n - 2
        return value, (d[0] - 2, d[1] - 2)
    if k == 3:
        value = (
            n - 3
            + 2 ** (d[0] - 1)
            + 2 ** (d[1] - 1)
            + 2 ** (d[2] - 2)
            + 2 ** (d[0] + d[2] - 3)
            + 2 ** (d[2] + d[1] - 3)
            + 2 ** (n - 3)
        )
        return value, (d[0] - 2, d[2] - 2, d[1] - 2)
    if k == 4:
        value = (
            n - 4
            + 2 ** (d[0] - 1)
            + 2 ** (d[1] - 1)
            + 2 ** (d[2] - 2)
            + 2 ** (d[3] - 2)
            + 2 ** (d[0] + d[3] - 3)
            + 2 ** (d[2] + d[3] - 4)
            + 2 ** (d[2] + d[1] - 3)
            + 2 ** (d[0] + d[3] + d[2] - 5)
            + 2 ** (d[1] + d[2] + d[3] - 5)
            + 2 ** (n - 4)
        )
        return value, (d[0] - 2, d[3] - 2, d[2] - 2, d[1] - 2)
    raise WrongK(f"closed form needs k in {{2, 3, 4}}, got k={k}")


@dataclass(frozen=True)
class TrichotomyCase:
    """Case split deciding the k = 5 minimizer set.

    lhs = 2^d1 and rhs = 2^(d3-1) (1 + 2^(d2-1)) are compared exactly as
    integers. Tag I: lhs > rhs with d4 != d5. Tag III: lhs < rhs with
    d4 != d5. Tag II otherwise (equality or d4 = d5), where both candidate
    arrangements tie.
    """

    tag: str  # "I" | "II" | "III"
    lhs: int
    rhs: int
    d4_equals_d5: bool


def predict_min_k5(ds: DegreeSequence) -> tuple[TrichotomyCase, set[tuple[int, ...]]]:
    """Predicted minimizer set for k = 5, as canonical pendant vectors."""
    if ds.k != 5:
        raise WrongK(f"trichotomy needs k=5, got k={ds.k}")
    d = ds.degrees
    lhs = 2 ** d[0]
    rhs = 2 ** (d[2] - 1) * (1 + 2 ** (d[1] - 1))
    same45 = d[3] == d[4]
    swap_last_two = (d[0] - 2, d[4] - 2, d[3] - 2, d[2] - 2, d[1] - 2)
    keep_order = (d[0] - 2, d[3] - 2, d[4] - 2, d[2] - 2, d[1] - 2)
    if lhs > rhs and not same45:
        tag, vectors = "I", {swap_last_two}
    elif lhs < rhs and not same45:
        tag, vectors = "III", {keep_order}
    else:
        tag, vectors = "II", {swap_last_two, keep_order}
    return (
        TrichotomyCase(tag, lhs, rhs, same45),
        {caterpillar_canonical(v) for v in vectors},
    )


def _unique_realization(ds: DegreeSequence) -> Tree:
    """The single tree for k = 0 (one or two vertices)."""
    return Tree(1, []) if ds.n == 1 else path_tree(2)


def _search_trees(ds, budget, maximize):
    best = None
    winners: list[Tree] = []
    examined = 0
    for t in enumerate_trees(ds, budget):
        examined += 1
        value = count_subtrees(t)
        if best is None or (value > best if maximize else value < best):
            best, winners = value, [t]
        elif value == best:
            winners.append(t)
    return best, winners, examined


def _search_caterpillars(ds, budget, maximize):
    arrangements = count_caterpillar_arrangements(ds)
    if arrangements > budget.max_labeled:
        raise BudgetExceeded(
            f"predicted {arrangements} caterpillar arrangements exceeds "
            f"budget {budget.max_labeled}",
            arrangements,
        )
    best = None
    winners: list[Tree] = []
    examined = 0
    for cat in enumerate_caterpillars(ds):
        examined += 1
        t = cat.build()
        value = count_subtrees(t)
        if best is None or (value > best if maximize else value < best):
            best, winners = value, [t]
        elif value == best:
            winners.append(t)
    return best, winners, examined


def _report(ds, objective, optimum, winner_trees, method, examined) -> ExtremalReport:
    optimizers = sorted(
        (_make_optimizer(t) for t in winner_trees), key=lambda o: o.canonical_code
    )
    return ExtremalReport(ds, objective, optimum, optimizers, method, examined)


def _closed_form_minimizers(ds: DegreeSequence) -> tuple[int, list[Tree], int]:
    """Optimum and minimizer trees for k <= 5 via the closed forms."""
    k = ds.k
    if k == 0:
        t = _unique_realization(ds)
        return count_subtrees(t), [t], 1
    if k == 1:
        value = 2 ** (ds.n - 1) + ds.n - 1
        return value, [caterpillar_build((ds.degrees[0] - 2,))], 1
    if k in (2, 3, 4):
        value, stated = closed_form_phi(ds)
        return value, [caterpillar_build(caterpillar_canonical(stated))], 1
    if k == 5:
        _, vectors = predict_min_k5(ds)
        trees = [caterpillar_build(v) for v in sorted(vectors)]
        values = {count_subtrees(t) for t in trees}
        if len(values) != 1:
            raise InternalInconsistency(
                f"tied minimizer candidates disagree for {ds}: {sorted(values)}"
            )
        return values.pop(), trees, len(trees)
    raise ClosedFormUnavailable(f"no closed form for k={k} > 5")


def find_min_subtrees(
    ds: DegreeSequence,
    method: str = "auto",
    budget: EnumerationBudget = DEFAULT_BUDGET,
) -> ExtremalReport:
    """Minimum subtree count over all realizations of ds, with every
    minimizer up to isomorphism.

    Methods: "brute" enumerates all trees; "caterpillar" searches only
    caterpillars (complete for minimization); "closed-form" uses the k <= 5
    formulas; "auto" picks the closed form for k <= 5 (always cross-checked
    against the caterpillar search, at most 5! = 120 arrangements) and the
    caterpillar search otherwise.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if ds.k == 0:
        t = _unique_realization(ds)
        return _report(ds, MIN_SUBTREES, count_subtrees(t), [t], _degenerate_method(method), 1)

    if method == "brute":
        best, winners, examined = _search_trees(ds, budget, maximize=False)
        return _report(ds, MIN_SUBTREES, best, winners, "brute", examined)
    if method == "caterpillar":
        best, winners, examined = _search_caterpillars(ds, budget, maximize=False)
        return _report(ds, MIN_SUBTREES, best, winners, "caterpillar", examined)
    if method == "closed-form":
        value, trees, examined = _closed_form_minimizers(ds)
        return _report(ds, MIN_SUBTREES, value, trees, "closed-form", examined)

    # auto
    if ds.k <= 5:
        value, trees, _ = _closed_form_minimizers(ds)
        best, winners, examined = _search_caterpillars(ds, budget, maximize=False)
        if best != value or _code_set(winners) != _code_set(trees):
            raise InternalInconsistency(
                f"closed form disagrees with caterpillar search for {ds}: "
                f"formula {value}, search {best}"
            )
        return _report(ds, MIN_SUBTREES, value, trees, "closed-form", examined)
    best, winners, examined = _search_caterpillars(ds, budget, maximize=False)
    return _report(ds, MIN_SUBTREES, best, winners, "caterpillar", examined)


def find_max_subtrees(
    ds: DegreeSequence,
    method: str = "auto",
    budget: EnumerationBudget = DEFAULT_BUDGET,
) -> ExtremalReport:
    """Maximum subtree count; mirror of find_min_subtrees.

    No closed forms exist for maximization, so "auto" runs the full brute
    search when the budget allows it (n within max_n and the free trees on
    n vertices within max_labeled) and otherwise falls back to the
    caterpillar-only search, recording that restriction in ``method``.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if method == "closed-form":
        raise ClosedFormUnavailable("no closed forms exist for maximization")
    if ds.k == 0:
        t = _unique_realization(ds)
        return _report(ds, MAX_SUBTREES, count_subtrees(t), [t], _degenerate_method(method), 1)

    if method == "brute":
        best, winners, examined = _search_trees(ds, budget, maximize=True)
        return _report(ds, MAX_SUBTREES, best, winners, "brute", examined)
    if method == "caterpillar":
        best, winners, examined = _search_caterpillars(ds, budget, maximize=True)
        return _report(ds, MAX_SUBTREES, best, winners, "caterpillar", examined)

    # auto
    if ds.n <= budget.max_n and count_free_trees(ds.n) <= budget.max_labeled:
        best, winners, examined = _search_trees(ds, budget, maximize=True)
        return _report(ds, MAX_SUBTREES, best, winners, "brute", examined)
    best, winners, examined = _search_caterpillars(ds, budget, maximize=True)
    return _report(ds, MAX_SUBTREES, best, winners, "caterpillar", examined)


def _degenerate_method(method: str) -> str:
    return "closed-form" if method in ("auto", "closed-form") else method


def _code_set(trees: list[Tree]) -> set[str]:
    return {canonical_form(t) for t in trees}


# ---------------------------------------------------------------------------
# Branch shift: the transformation proving minimizers are caterpillars.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BranchShiftContext:
    """A validated branch-shift instance.

    path is a longest path v_0 ... v_r with path[-1] = v_r; the off-path
    vertex y hangs from spine vertex v_l = path[l] with 2 <= l <= r - 2 and
    has moved_children = its neighbors other than v_l. The rewired tree
    replaces each edge (y, x) by (v_r, x).
    """

    path: tuple[int, ...]
    l: int
    y: int
    v_r: int
    moved_children: tuple[int, ...]


def branch_shift_context(t: Tree, y: int, v_r: int) -> BranchShiftContext:
    """Validate (y, v_r) for the branch shift, or raise NotApplicable."""
    t.check_vertex(y)
    t.check_vertex(v_r)
    if is_caterpillar(t):
        raise NotApplicable("tree is already a caterpillar")
    if len(t.adjacency[y]) < 2:
        raise NotApplicable(f"vertex {y} has no children to move")
    if len(t.adjacency[v_r]) != 1:
        raise NotApplicable(f"vertex {v_r} is not a leaf")
    dist = bfs_distances(t, v_r)
    diam = diameter(t)
    if max(dist) != diam:
        raise NotApplicable(f"vertex {v_r} is not the endpoint of a longest path")
    parent = bfs_parents(t, v_r)
    v_l = parent[y]
    if not (2 <= dist[v_l] <= diam - 2):
        raise NotApplicable(
            f"attachment vertex {v_l} is within distance 1 of a path end"
        )
    # Pick the lexicographically first farthest vertex whose path back to
    # v_r runs through v_l but not through y.
    for u in range(t.n):
        if dist[u] != diam:
            continue
        chain = [u]
        while chain[-1] != v_r:
            chain.append(parent[chain[-1]])
        if v_l in chain and y not in chain:
            moved = tuple(sorted(w for w in t.adjacency[y] if w != v_l))
            return BranchShiftContext(tuple(chain), chain.index(v_l), y, v_r, moved)
    raise NotApplicable(f"no longest path ending at {v_r} passes the attachment")


def shift_branch_to_end(t: Tree, y: int, v_r: int) -> Tree:
    """Move every subtree hanging off y to the far path end v_r.

    The degree multiset is preserved: y becomes a leaf and v_r takes over
    its former degree. When the attachment-side inequality (see
    branch_shift_inequality) holds and y's branch is nontrivial, the rewired
    tree has strictly fewer subtrees.
    """
    ctx = branch_shift_context(t, y, v_r)
    removed = {tuple(sorted((y, x))) for x in ctx.moved_children}
    edges = [e for e in t.edges if e not in removed]
    edges.extend((v_r, x) for x in ctx.moved_children)
    return Tree(t.n, edges)


def _f_blocked(t: Tree, v: int, blocked: frozenset[tuple[int, int]]) -> int:
    """Subtrees containing v inside v's component of t minus blocked edges."""

    def open_neighbors(x: int, avoid: int) -> list[int]:
        out = []
        for w in t.adjacency[x]:
            if w != avoid and tuple(sorted((x, w))) not in blocked:
                out.append(w)
        return out

    # Iterative product recursion rooted at v, restricted to the component.
    order = [(v, -1)]
    idx = 0
    while idx < len(order):
        x, par = order[idx]
        idx += 1
        for w in open_neighbors(x, par):
            order.append((w, x))
    value = {}
    for x, par in reversed(order):
        prod = 1
        for w in open_neighbors(x, par):
            prod *= 1 + value[w]
        value[x] = prod
    return value[v]


def branch_shift_inequality(t: Tree, ctx: BranchShiftContext) -> tuple[int, int, int]:
    """The exact quantities gating the strict decrease.

    Returns (attachment_weight, tail_weight, branch_count):

    * attachment_weight counts subtrees through v_l in its component once
      the spine edge toward v_r and the edge to y are removed,
    * tail_weight is a_{l+1} (1 + a_{l+2} + a_{l+2} a_{l+3} + ... +
      a_{l+2} ... a_r) where a_i counts subtrees through spine vertex v_i in
      its own star component (both spine edges removed) and a_r = 1; this
      telescopes to the number of subtrees through v_{l+1} inside the whole
      far side of the attachment,
    * branch_count counts subtrees through y inside its hanging branch.

    The shift strictly decreases the total subtree count whenever
    attachment_weight > tail_weight and branch_count > 1.
    """
    path = ctx.path
    l, r = ctx.l, len(path) - 1
    e = lambda a, b: tuple(sorted((a, b)))
    a = {r: 1}
    for i in range(l + 1, r):
        a[i] = _f_blocked(
            t, path[i], frozenset({e(path[i - 1], path[i]), e(path[i], path[i + 1])})
        )
    b_l = _f_blocked(
        t, path[l], frozenset({e(path[l], path[l + 1]), e(path[l], ctx.y)})
    )
    series = 1  # 1 + a_{l+2} (1 + a_{l+3} (... (1 + a_r))), built right to left
    for j in range(r, l + 1, -1):
        series = 1 + a[j] * series
    branch = _f_blocked(t, ctx.y, frozenset({e(ctx.y, path[l])}))
    return b_l, a[l + 1] * series, branch


# ---------------------------------------------------------------------------
# Spine segment reversal: the improving move inside the caterpillar class.
# ---------------------------------------------------------------------------


def reverse_segment(c: Caterpillar, p: int, q: int) -> Caterpillar:
    """Reverse the pendant counts on spine positions p - q .. p + q.

    Positions are 1-based spine indices with 2 <= p <= k - 1 and
    1 <= q <= min(k - p, p - 1), matching the edge swap that detaches the
    middle block and reattaches it flipped. The degree sequence is
    unchanged; under the documented component inequalities the reversal
    strictly lowers the subtree count.
    """
    k = c.k
    if not (2 <= p <= k - 1):
        raise IndexOutOfRange(f"pivot p={p} outside 2..{k - 1}")
    if not (1 <= q <= min(k - p, p - 1)):
        raise IndexOutOfRange(f"radius q={q} outside 1..{min(k - p, p - 1)}")
    y = list(c.y)
    y[p - q - 1 : p + q] = reversed(y[p - q - 1 : p + q])
    return Caterpillar(tuple(y))
