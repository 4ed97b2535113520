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
          C(d1-2, d4-2, d5-2, d3-2, d2-2). The sign is never zero, and when
          d4 = d5 the two are one arrangement, so the minimizer is unique.

No closed forms exist for maximization, so maximum searches are exact:
over all realizations while the budget allows, otherwise over caterpillars
only (and the report says so).

The caterpillar search is an exact branch and bound over the arrangements
of the pendant vector, one loop off an explicit stack of prefixes whose
depth is limited only by the node cap. Its incumbent starts at the count of
one real arrangement, a zig-zag valley for min and mountain for max; it
carries the caterpillar_phi recurrence down each prefix, scores a prefix
with at most two values left as a leaf, and cuts any other only when
_phi_bound, a bound on every completion, is strictly worse than the
incumbent, so every tied winner survives and exactness rests on no shape
theorem. It builds no prefix it would throw away: a child led by a value
above all those it leaves yields only mirrors and is never pushed, and a
child's bound is computed once, as it is built, where a strictly worse one
drops it. Past budget.max_labeled prefixes entered (popped) it raises
BudgetExceeded and returns nothing. It builds no Tree: each winner is
recounted by the general product DP (count_subtrees's) on its parent
array, and a disagreement raises InternalInconsistency, so the shortcut is
cross-checked on every search. The brute search scores each realization
with the same product DP on the parent tuple the pruned walk yields
(enumeration._realization_parents), in label order too. A Tree is built
only for the winners a report lists, each from its parent array, and each
is reported with the pendant vector the search or formula already holds;
only brute-search winners have theirs read back off the tree
(caterpillar_from_tree). A report codes every winner that has a pendant
vector, from that vector alone (canonical._caterpillar_code); only a
winner that is no caterpillar, or the k = 0 tree, is coded by
canonical_form.

The module also implements the improving transformation behind the first
of these facts: shifting a branch off a non-caterpillar to a longest-path
end. One generator (_branch_shifts) finds a tree's valid (y, v_r) pairs,
one BFS per leaf ending a longest path, for branch_shift_context and the
eq-2.1 sweep alike.
"""

from dataclasses import dataclass

from .canonical import _caterpillar_code, canonical_form
from .caterpillars import (
    _caterpillar_parents,
    caterpillar_build,
    caterpillar_canonical,
    caterpillar_from_tree,
)
from .counting import _caterpillar_phi, _down_counts, _rooted_counts, count_subtrees
from .degrees import DegreeSequence
from .errors import (
    BudgetExceeded,
    ClosedFormUnavailable,
    InternalInconsistency,
    NotApplicable,
    WrongK,
)
from .enumeration import (
    DEFAULT_BUDGET,
    EnumerationBudget,
    _realization_parents,
    enumerate_trees,
)
from .trees import Tree, _path_to_root, _tree_from_parents, bfs, diameter, is_caterpillar

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
    d4 != d5. Tag II otherwise, which is d4 = d5: lhs is a power of two and
    rhs has the odd factor 1 + 2^(d2-1) >= 3, so the two are never equal.
    The minimizer is C(d1-2, d5-2, d4-2, d3-2, d2-2) when lhs > rhs and
    C(d1-2, d4-2, d5-2, d3-2, d2-2) otherwise; under tag II (d4 = d5) the
    two are the same arrangement, so every tag predicts a single minimizer.
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
    tag = "II" if same45 else "I" if lhs > rhs else "III"  # lhs != rhs
    y = swap_last_two if lhs > rhs else keep_order
    return TrichotomyCase(tag, lhs, rhs, same45), {caterpillar_canonical(y)}


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


def _phi_bound(s: int, total: int, rest, tail: int) -> int:
    """Bound on phi(C(y)) over every completion of a prefix of y.

    s = S_j and total = S_1 + ... + S_j for the prefix (see caterpillar_phi),
    tail = sum(y) + 2, and rest holds the m >= 1 values still to place. With
    B_t the sum of the first t of rest and P_t = 2^B_1 + ... + 2^B_t,

        S_(j+t) = sum_(i=1..t) 2^(y_(j+i) + ... + y_(j+t)) + 2^(y_(j+1) + ... + y_(j+t)) s

    and any u of the remaining values sum to at least the u smallest and at
    most the u largest, so rest sorted ascending gives a lower bound and
    sorted descending an upper bound:

        total + sum_(t=1..m) (P_t + 2^B_t s) + (P_m + 2^B_m s) + tail

    It is exact when m = 1 and uses no valley or mountain theorem.
    """
    run = powers = 0
    for z in rest:
        run += z
        power = 1 << run
        powers += power
        last = powers + power * s
        total += last
    return total + last + tail


def _seed_arrangement(pendants, maximize: bool) -> tuple[int, ...]:
    """The zig-zag arrangement whose phi seeds the search's incumbent.

    For min, the values in descending order go alternately to the left and
    right ends, a valley with the smallest value at its bottom; for max the
    ascending values do the same, a mountain. It is one real arrangement, so
    its phi is attained and bounds the optimum; no shape theorem is used.
    """
    v = sorted(pendants, reverse=not maximize)
    return tuple(v[0::2] + v[1::2][::-1])


def _caterpillar_search(pendants: list[int], maximize: bool, budget=DEFAULT_BUDGET):
    """Exact branch and bound over the arrangements of a pendant vector.

    Returns (optimum, winners, examined) exactly as scoring every mirror
    class would: winners are the optimal canonical pendant vectors in
    enumeration order (see enumerate_caterpillars) and examined counts the
    classes scored at a leaf. One loop pops (prefix, S_j, partial phi sum,
    sorted values left, bound) off an explicit stack, depth first; a node
    pushes one child per run of equal values, last first, so children are
    entered in lexicographic order. The incumbent starts at the zig-zag
    arrangement's phi (_seed_arrangement, not counted in examined). A child
    whose first value exceeds every value it leaves (the last, as they are
    sorted) is never pushed: each arrangement below it is greater than its
    mirror. A child with three or more values left gets its _phi_bound once,
    when it is built, and is dropped there if the bound is strictly worse
    than the incumbent, else tested again when popped; the incumbent only
    improves, so this cuts exactly what a test at the pop alone would, and
    the seed's class and every tie survive. With at most two left it is a
    leaf: each order of them (one if the first equals the last) not greater
    than its mirror is scored. Each popped entry, root included, is one
    prefix entered, so neither a mirror-only child nor one dropped when
    built counts; past budget.max_labeled of them it raises BudgetExceeded,
    never returning a partial optimum.
    """
    tail = sum(pendants) + 2
    best = _caterpillar_phi(_seed_arrangement(pendants, maximize))
    winners = []
    examined = nodes = 0
    cap = budget.max_labeled
    # The root's bound is at most the seed's phi (at least, for max), so the
    # incumbent itself stands in for it.
    stack = [((), 1, 0, tuple(sorted(pendants)), best)]
    while stack:
        prefix, s, total, rest, bound = stack.pop()
        nodes += 1
        if nodes > cap:
            raise BudgetExceeded(
                f"caterpillar search exceeds budget {cap} after entering {nodes} prefixes"
            )
        if len(rest) <= 2:
            for order in (rest, rest[::-1]) if rest[0] != rest[-1] else (rest,):
                perm = prefix + order
                mirror = perm[::-1]
                if perm > mirror:  # its class was scored at the mirror
                    continue
                examined += 1
                last, value = s, total + tail
                for x in order:
                    last = (last + 1) << x
                    value += last
                value += last
                if value > best if maximize else value < best:
                    best, winners = value, [mirror]
                elif value == best:
                    winners.append(mirror)
            continue
        if bound < best if maximize else bound > best:
            continue
        bounded = len(rest) > 3  # each child has three or more values left
        for i in reversed(range(len(rest))):
            v = rest[i]
            if i and v == rest[i - 1]:  # one child per run, at its first index
                continue
            left = rest[:i] + rest[i + 1 :]
            if (prefix[0] if prefix else v) > left[-1]:  # every leaf below is a mirror
                continue
            nxt = (s + 1) << v
            child = total + nxt
            if bounded:
                bound = _phi_bound(nxt, child, left[::-1] if maximize else left, tail)
                if bound < best if maximize else bound > best:
                    continue
            # A leaf carries its parent's bound, which is never read.
            stack.append((prefix + (v,), nxt, child, left, bound))
    return best, winners, examined


def _caterpillar_extremes(ds: DegreeSequence, budget, maximize: bool):
    """Caterpillar search: (optimum, winners, examined).

    All three are as _caterpillar_search returns them, under the budget's
    node cap. Each winner is recounted by the product DP of count_subtrees
    on its parent array, in label order (no Tree, no BFS), and the counts
    must agree.
    """
    best, winners, examined = _caterpillar_search(
        [d - 2 for d in ds.internal], maximize, budget
    )
    for y in winners:
        recount = _parent_phi(_caterpillar_parents(y))
        if recount != best:
            raise InternalInconsistency(
                f"caterpillar search gives {best} for C{y}, count_subtrees {recount}"
            )
    return best, winners, examined


def _parent_phi(parent) -> int:
    """count_subtrees of the tree with this parent array, every parent a
    label below its child: range(n) then lists parents before children, so
    it is a traversal as it stands, with no Tree and no BFS."""
    return sum(_rooted_counts(range(len(parent)), parent))


def _report(ds, objective, optimum, winners, method, examined) -> ExtremalReport:
    """The report listing winners, (tree, y) pairs with y the tree's
    canonical pendant vector (None when it has none), sorted by code. A
    caterpillar's code is written from its y; only a tree without one goes
    through canonical_form."""
    optimizers = sorted(
        (
            Optimizer(t, canonical_form(t) if y is None else _caterpillar_code(y), y)
            for t, y in winners
        ),
        key=lambda o: o.canonical_code,
    )
    return ExtremalReport(ds, objective, optimum, optimizers, method, examined)


def _caterpillar_winners(ys) -> list[tuple[Tree, tuple[int, ...]]]:
    """(C(y), y) for each canonical pendant vector y, as _report takes them."""
    return [(caterpillar_build(y), y) for y in ys]


def _closed_form_minimizers(ds: DegreeSequence) -> tuple[int, list[tuple[int, ...]]]:
    """Optimum and canonical minimizer pendant vectors for 1 <= k <= 5."""
    k = ds.k
    if k in (2, 3, 4):
        value, stated = closed_form_phi(ds)
        return value, [caterpillar_canonical(stated)]
    if k == 1:
        y = (ds.degrees[0] - 2,)  # the star
    elif k == 5:
        (y,) = predict_min_k5(ds)[1]  # one vector (see TrichotomyCase)
    else:
        raise ClosedFormUnavailable(f"no closed form for k={k} > 5")
    return _caterpillar_phi(y), [y]


def _search(ds, objective, method, budget) -> ExtremalReport:
    """The search behind find_min_subtrees and find_max_subtrees."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    maximize = objective == MAX_SUBTREES
    if maximize and method == "closed-form":
        raise ClosedFormUnavailable("no closed forms exist for maximization")
    if ds.k == 0:  # the single tree on one or two vertices
        (t,) = enumerate_trees(ds, budget)
        method = "closed-form" if method == "auto" else method
        return _report(ds, objective, count_subtrees(t), [(t, None)], method, 1)
    if method == "closed-form":
        value, ys = _closed_form_minimizers(ds)
        return _report(ds, objective, value, _caterpillar_winners(ys), method, len(ys))
    if method == "auto":
        if maximize:
            # The brute walk refuses before yielding anything, so a refusal
            # leaves nothing half-scored.
            try:
                return _search(ds, objective, "brute", budget)
            except BudgetExceeded as refused:
                try:
                    return _search(ds, objective, "caterpillar", budget)
                except BudgetExceeded as exc:
                    raise BudgetExceeded(f"{refused}; caterpillar fallback: {exc}") from None
        if ds.k <= 5:
            value, ys = _closed_form_minimizers(ds)
            best, winners, examined = _caterpillar_extremes(ds, budget, False)
            if best != value or set(winners) != set(ys):
                raise InternalInconsistency(
                    f"closed form disagrees with caterpillar search for {ds}: "
                    f"formula {value}, search {best}"
                )
            return _report(ds, objective, value, _caterpillar_winners(ys), "closed-form", examined)
        method = "caterpillar"
    if method == "brute":
        best, parents, examined = extremes(_realization_parents(ds, budget), _parent_phi, maximize)
        winners = [(t, caterpillar_from_tree(t)) for t in map(_tree_from_parents, parents)]
    else:
        best, ys, examined = _caterpillar_extremes(ds, budget, maximize)
        winners = _caterpillar_winners(ys)
    return _report(ds, objective, best, winners, method, examined)


def find_min_subtrees(
    ds: DegreeSequence,
    method: str = "auto",
    budget: EnumerationBudget = DEFAULT_BUDGET,
) -> ExtremalReport:
    """Minimum subtree count over all realizations of ds, with every
    minimizer up to isomorphism.

    Methods: "brute" scores every realization on its parent array and
    builds Trees only for the winners; "caterpillar" searches only
    caterpillars (complete for minimization) by branch and bound over the
    pendant-vector arrangements, seeded with the count of the zig-zag
    valley, cutting a prefix only when a lower bound on its completions
    exceeds the best count so far, and recounts each winner with the
    product DP on its parent array, building a Tree only to report it. It
    never pushes a prefix whose first value exceeds every value left (only
    mirrors lie below) and bounds each prefix once, when it is built,
    dropping it there if the bound already exceeds the best count; it is
    refused (BudgetExceeded) once it enters (pops) more than
    budget.max_labeled prefixes, which neither kind of dropped prefix
    counts toward. trees_examined counts the classes it scored at a leaf,
    not the seed. "closed-form" uses the k <= 5 formulas; "auto" picks the
    closed form for k <= 5 (always cross-checked against the caterpillar
    search, at most 5! = 120 arrangements) and the caterpillar search
    otherwise.
    """
    return _search(ds, MIN_SUBTREES, method, budget)


def find_max_subtrees(
    ds: DegreeSequence,
    method: str = "auto",
    budget: EnumerationBudget = DEFAULT_BUDGET,
) -> ExtremalReport:
    """Maximum subtree count; mirror of find_min_subtrees.

    No closed forms exist for maximization, so "auto" runs the full brute
    search and, when its walk refuses it under the budget, falls back
    to the caterpillar-only search, recording that restriction in
    ``method``; if that is refused too, the error names both refusals. The
    caterpillar search is seeded with the count of the zig-zag mountain,
    cuts a prefix only when an upper bound on its completions is below the
    best count so far, and has the same node cap as the minimum search.
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
    for ctx, _ in _branch_shifts(t, (y,), (v_r,)):
        return ctx
    raise NotApplicable(f"no longest path ending at {v_r} avoids {y} and passes "
                        f"{y}'s attachment at distance >= 2 from both ends")


def _branch_shifts(t: Tree, ys, leaves):
    """Yield (ctx, down) for every valid branch shift (y, v_r) of the
    non-caterpillar t with y in ys and v_r in leaves, y-major; down is t's
    rooted counts from v_r. One BFS and one product DP per leaf that ends a
    longest path serve every y. The path starts at the first farthest
    vertex, by label, whose path to v_r passes v_l (y's BFS parent) but not
    y; path[i] is at distance diam - i, so v_l can only be path[l] with
    l = diam - dist[v_l], and y only path[l - 1]."""
    diam = diameter(t)
    ends = []
    for v_r in leaves:
        order, parent, dist = bfs(t, v_r)
        if dist[order[-1]] == diam:
            far = [u for u in range(t.n) if dist[u] == diam]
            paths = [tuple(_path_to_root(parent, u)) for u in far]
            ends.append((v_r, parent, dist, paths, _rooted_counts(order, parent)))
    for y in ys:
        if len(t.adjacency[y]) < 2:
            continue
        for v_r, parent, dist, paths, down in ends:
            v_l = parent[y]
            l = diam - dist[v_l]
            if not 2 <= l <= diam - 2:
                continue
            for path in paths:
                if path[l] == v_l and path[l - 1] != y:
                    moved = tuple(w for w in t.adjacency[y] if w != v_l)
                    yield BranchShiftContext(path, l, y, v_r, moved), down
                    break


def shift_branch_to_end(t: Tree, y: int, v_r: int) -> Tree:
    """Move every subtree hanging off y to the far path end v_r.

    The degree multiset is preserved: y becomes a leaf and v_r takes over
    its former degree. When the attachment-side inequality (see
    branch_shift_inequality) holds and y's branch is nontrivial, the rewired
    tree has strictly fewer subtrees.
    """
    return _shifted(t, branch_shift_context(t, y, v_r))


def _shifted(t: Tree, ctx: BranchShiftContext) -> Tree:
    """t with each edge (y, x) to a moved child replaced by (v_r, x)."""
    y, v_r = ctx.y, ctx.v_r
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
    return _shift_weights(ctx, _down_counts(t, ctx.v_r)[0])


def _shift_weights(ctx: BranchShiftContext, down: list[int]) -> tuple[int, int, int]:
    """branch_shift_inequality from down, the rooted counts of the tree
    from ctx.v_r, which _branch_shifts yields once per leaf."""
    path = ctx.path
    l, r = ctx.l, len(path) - 1
    # Rooted at v_r, path[i + 1] is the parent of path[i] and v_l the parent
    # of y, so each quantity is a down count with one child factor
    # (1 + down[c]) divided out; the division is exact.
    a = {i: down[path[i]] // (1 + down[path[i - 1]]) for i in range(l + 1, r + 1)}
    series = 1  # 1 + a_{l+2} (1 + a_{l+3} (... (1 + a_r))), built right to left
    for j in range(r, l + 1, -1):
        series = 1 + a[j] * series
    weight = down[path[l]] // (1 + down[ctx.y])
    return weight, a[l + 1] * series, down[ctx.y]
