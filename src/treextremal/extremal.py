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

The caterpillar search scores each arrangement from its pendant vector with
the O(k) caterpillar_phi and builds a Tree only for the winners, whose
counts it recomputes with the general count_subtrees; a disagreement raises
InternalInconsistency, so the shortcut is cross-checked on every search.

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
from .counting import _down_counts, caterpillar_phi, count_subtrees
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
    enumerate_caterpillars,
    enumerate_trees,
)
from .trees import Tree, bfs, diameter, is_caterpillar, path_tree

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


def extremes(items, score, maximize=False):
    """Exhaustive argmin (argmax when maximize) with ties.

    Returns (optimum, winners, examined): the best score (None when items is
    empty), every item attaining it in input order, and the number of items
    scored.
    """
    best = None
    winners = []
    examined = 0
    for item in items:
        examined += 1
        value = score(item)
        if best is None or (value > best if maximize else value < best):
            best, winners = value, [item]
        elif value == best:
            winners.append(item)
    return best, winners, examined


def _caterpillar_extremes(ds: DegreeSequence, budget, maximize: bool):
    """Exhaustive caterpillar search: (optimum, winners, trees, examined).

    Every arrangement is scored by caterpillar_phi; winners are the optimal
    Caterpillars in enumeration order and trees their built C(y), each
    recounted by count_subtrees, which must agree.
    """
    best, winners, examined = extremes(
        enumerate_caterpillars(ds, budget), lambda cat: caterpillar_phi(cat.y), maximize
    )
    trees = []
    for cat in winners:
        t = caterpillar_build(cat.y)
        recount = count_subtrees(t)
        if recount != best:
            raise InternalInconsistency(
                f"caterpillar_phi gives {best} for C{cat.y}, count_subtrees {recount}"
            )
        trees.append(t)
    return best, winners, trees, examined


def _report(ds, objective, optimum, winner_trees, method, examined) -> ExtremalReport:
    optimizers = sorted(
        (_make_optimizer(t) for t in winner_trees), key=lambda o: o.canonical_code
    )
    return ExtremalReport(ds, objective, optimum, optimizers, method, examined)


def _closed_form_minimizers(ds: DegreeSequence) -> tuple[int, list[tuple[int, ...]]]:
    """Optimum and canonical minimizer pendant vectors for 1 <= k <= 5."""
    k = ds.k
    if k == 1:
        return 2 ** (ds.n - 1) + ds.n - 1, [(ds.degrees[0] - 2,)]
    if k in (2, 3, 4):
        value, stated = closed_form_phi(ds)
        return value, [caterpillar_canonical(stated)]
    if k == 5:
        _, vectors = predict_min_k5(ds)
        ys = sorted(vectors)
        values = {count_subtrees(caterpillar_build(y)) for y in ys}
        if len(values) != 1:
            raise InternalInconsistency(
                f"tied minimizer candidates disagree for {ds}: {sorted(values)}"
            )
        return values.pop(), ys
    raise ClosedFormUnavailable(f"no closed form for k={k} > 5")


def _search(ds, objective, method, budget) -> ExtremalReport:
    """The search behind find_min_subtrees and find_max_subtrees."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    maximize = objective == MAX_SUBTREES
    if maximize and method == "closed-form":
        raise ClosedFormUnavailable("no closed forms exist for maximization")
    if ds.k == 0:  # the single tree on one or two vertices
        t = Tree(1, []) if ds.n == 1 else path_tree(2)
        method = "closed-form" if method == "auto" else method
        return _report(ds, objective, count_subtrees(t), [t], method, 1)
    if method == "closed-form":
        value, ys = _closed_form_minimizers(ds)
        trees = [caterpillar_build(y) for y in ys]
        return _report(ds, objective, value, trees, method, len(ys))
    if method == "auto":
        if maximize:
            # enumerate_trees refuses before yielding anything, so a refusal
            # leaves nothing half-scored.
            try:
                return _search(ds, objective, "brute", budget)
            except BudgetExceeded:
                method = "caterpillar"
        elif ds.k <= 5:
            value, ys = _closed_form_minimizers(ds)
            search = _search(ds, objective, "caterpillar", budget)
            if search.optimum != value or search.optimizer_y_set() != set(ys):
                raise InternalInconsistency(
                    f"closed form disagrees with caterpillar search for {ds}: "
                    f"formula {value}, search {search.optimum}"
                )
            return ExtremalReport(
                ds, objective, value, search.optimizers, "closed-form", search.trees_examined
            )
        else:
            method = "caterpillar"
    if method == "brute":
        best, winners, examined = extremes(enumerate_trees(ds, budget), count_subtrees, maximize)
    else:
        best, _, winners, examined = _caterpillar_extremes(ds, budget, maximize)
    return _report(ds, objective, best, winners, method, examined)


def find_min_subtrees(
    ds: DegreeSequence,
    method: str = "auto",
    budget: EnumerationBudget = DEFAULT_BUDGET,
) -> ExtremalReport:
    """Minimum subtree count over all realizations of ds, with every
    minimizer up to isomorphism.

    Methods: "brute" enumerates all trees; "caterpillar" searches only
    caterpillars (complete for minimization), scoring each pendant vector in
    O(k) and recounting the winners' trees; "closed-form" uses the k <= 5
    formulas; "auto" picks the closed form for k <= 5 (always cross-checked
    against the caterpillar search, at most 5! = 120 arrangements) and the
    caterpillar search otherwise.
    """
    return _search(ds, MIN_SUBTREES, method, budget)


def find_max_subtrees(
    ds: DegreeSequence,
    method: str = "auto",
    budget: EnumerationBudget = DEFAULT_BUDGET,
) -> ExtremalReport:
    """Maximum subtree count; mirror of find_min_subtrees.

    No closed forms exist for maximization, so "auto" runs the full brute
    search and, when enumerate_trees refuses it under the budget, falls back
    to the caterpillar-only search, recording that restriction in
    ``method``.
    """
    return _search(ds, MAX_SUBTREES, method, budget)


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
    _, parent, dist = bfs(t, v_r)
    diam = diameter(t)
    if max(dist) != diam:
        raise NotApplicable(f"vertex {v_r} is not the endpoint of a longest path")
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
    # Rooted at v_r, path[i + 1] is the parent of path[i] and v_l the parent
    # of y, so each quantity is a down count with one child factor
    # (1 + down[c]) divided out; the division is exact.
    down = _down_counts(t, ctx.v_r)[0]
    a = {i: down[path[i]] // (1 + down[path[i - 1]]) for i in range(l + 1, r + 1)}
    series = 1  # 1 + a_{l+2} (1 + a_{l+3} (... (1 + a_r))), built right to left
    for j in range(r, l + 1, -1):
        series = 1 + a[j] * series
    weight = down[path[l]] // (1 + down[ctx.y])
    return weight, a[l + 1] * series, down[ctx.y]


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
