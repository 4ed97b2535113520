"""Machine checks of the structural claims behind the extremal search.

Each checker sweeps an exhaustive universe of degree sequences, tests one
claim on every instance, and returns a VerificationReport listing any
counterexamples. Reports are deterministic: sweeps iterate sequences in a
fixed order and failure lists carry the degree sequence plus witness
canonical codes, enough to replay a single instance.

A sweep generates only what it checks: the caterpillar claims ask for the
sequences in their k window, and the claims over all trees (thm-2.1,
eq-2.1-monotonic, wiener-correspondence) take each order's free trees from
one generation pass. Those three check the budget for every order up to
max_n before generating anything, so an over-budget sweep is refused at
once. They score and test each tree on its parent tuple, whose labels list
every parent before its children (subtree count, Wiener index and the
caterpillar test need no Tree and no BFS), and build a Tree only for what
they check further or report: thm-2.1's non-caterpillar minimizers,
eq-2.1-monotonic's non-caterpillars and the optimizers of a sequence where
wiener-correspondence finds the optima disagree.

Claim identifiers (the CLI contract):

  thm-2.1             every subtree-count minimizer is a caterpillar
  thm-3.5             minimizing caterpillars are valley-shaped with the
                      minimum pendant count at the valley bottom
  thm-3.6-shape       maximizing caterpillars are mountain-shaped
  thm-4.1             the k in {2,3,4} closed forms and their unique
                      minimizers match the caterpillar search
  thm-4.2             the k = 5 trichotomy predicts the exact minimizer set
  eq-2.1-monotonic    the branch shift strictly decreases the count whenever
                      its inequality holds (shifted Trees are recounted)
  wiener-correspondence  report-only comparison of subtree and Wiener optima
"""

from dataclasses import dataclass, field
from itertools import chain
from operator import index, itemgetter

from .canonical import canonical_form
from .caterpillars import caterpillar_canonical
from .counting import _wiener, count_subtrees
from .enumeration import (
    DEFAULT_BUDGET,
    EnumerationBudget,
    _all_parents,
    _check_full_budget,
    enumerate_degree_sequences,
)
from .extremal import (
    _branch_shifts,
    _caterpillar_extremes,
    _parent_phi,
    _shift_weights,
    _shifted,
    closed_form_phi,
    extremes,
    predict_min_k5,
)
from .trees import _is_caterpillar, _tree_from_parents

PASS = "pass"
FAIL = "fail"
REPORT_ONLY = "report-only"

_DEFAULT_MAX_K = 6  # the shape claims' cap on k


@dataclass
class VerificationReport:
    claim: str
    universe: dict
    instances_checked: int
    failures: list[dict]
    status: str
    findings: dict = field(default_factory=dict)

    def to_payload(self) -> dict:
        """JSON-safe form, with failures and findings as recorded (every
        subtree or Wiener count in them is recorded as a decimal string)."""
        return {
            "claim": self.claim,
            "universe": dict(self.universe),
            "instances_checked": self.instances_checked,
            "status": self.status,
            "failures": list(self.failures),
            "findings": dict(self.findings),
        }


def _finish(claim, universe, instances, failures, findings=None, report_only=False):
    status = REPORT_ONLY if report_only else (PASS if not failures else FAIL)
    return VerificationReport(
        claim, universe, instances, failures, status, findings or {}
    )


def _record(ds, witnesses, expected, observed, **extra) -> dict:
    """One failure entry: the sequence, its witnesses, what the claim
    expected and what the sweep observed, then any extra keys in order."""
    return {
        "degree_sequence": list(ds.degrees),
        "witnesses": witnesses,
        "expected": expected,
        "observed": observed,
        **extra,
    }


def _caterpillar_optima(
    max_n: int, min_k: int, max_k: int, maximize: bool, budget: EnumerationBudget
):
    """(ds, optimum, winners) of the caterpillar search for every sequence
    with 2 <= n <= max_n and min_k <= k <= max_k, winners as canonical
    pendant vectors."""
    for n in range(2, max_n + 1):
        for ds in enumerate_degree_sequences(n, min_k, max_k):
            best, winners, _ = _caterpillar_extremes(ds, budget, maximize)
            yield ds, best, winners


def _realizations(max_n: int, budget: EnumerationBudget):
    """(ds, parent tuples of enumerate_trees(ds)) for every sequence with
    2 <= n <= max_n, one generation pass per n. Every order is checked
    against the budget here, before any tree is generated."""
    orders = range(2, max_n + 1)
    for n in orders:
        _check_full_budget(n, budget)
    return chain.from_iterable(map(_all_parents, orders))


def _parents_are_caterpillar(parent) -> bool:
    """is_caterpillar of the tree with this parent array (parent[0] is
    ignored)."""
    n = len(parent)
    degree = [1] * n
    degree[0] = 0
    for p in parent[1:]:
        degree[p] += 1
    return _is_caterpillar(degree, zip(parent[1:], range(1, n)))


def _codes(parents) -> list[str]:
    """The sorted canonical codes of the trees with these parent arrays."""
    return sorted(canonical_form(_tree_from_parents(p)) for p in parents)


def verify_caterpillar_minimality(
    max_n: int, budget: EnumerationBudget = DEFAULT_BUDGET
) -> VerificationReport:
    """Every minimizer over all realizations must be a caterpillar."""
    failures = []
    instances = 0
    for ds, parents in _realizations(max_n, budget):
        instances += 1
        _, winners, _ = extremes(parents, _parent_phi)
        bad = [p for p in winners if not _parents_are_caterpillar(p)]
        if bad:
            observed = f"{len(bad)} non-caterpillar minimizer(s)"
            failures.append(_record(ds, _codes(bad), "all minimizers are caterpillars", observed))
    return _finish("thm-2.1", {"max_n": max_n}, instances, failures)


def _valley_ok(z: tuple[int, ...]) -> bool:
    """Some position t <= k-1 that the prefix falls into, strictly at its
    last step, with a suffix that never decreases after it. Position t then
    holds the minimum of z. The mountain shape is the valley of -z.

    Only the start q (0-based) of the longest non-decreasing suffix can be
    that position: z[q - 1] > z[q] when q > 0, and any later candidate would
    follow an equal step. So z is a valley when q <= k - 2 and z never rises
    up to q."""
    q = len(z) - 1
    while q > 0 and z[q - 1] <= z[q]:
        q -= 1
    return q <= len(z) - 2 and all(z[i - 1] >= z[i] for i in range(1, q))


def _orientations(y: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The orientations of canonical y with first entry >= last (one, or two
    on ties)."""
    flipped = y[::-1]
    if y[0] == y[-1] and flipped != y:
        return [y, flipped]
    return [y]


def verify_valley_shape(
    max_n: int, max_k: int = _DEFAULT_MAX_K, budget: EnumerationBudget = DEFAULT_BUDGET
) -> VerificationReport:
    """Minimizing caterpillars decrease to the minimum pendant count, then
    never decrease again; when d_2 > d_k the far end stays above the floor."""
    failures = []
    instances = 0
    for ds, _, winners in _caterpillar_optima(max_n, 3, max_k, False, budget):
        instances += 1
        floor = ds.degrees[ds.k - 1] - 2
        for y in winners:
            for z in _orientations(y):
                if not _valley_ok(z):
                    expected = f"valley shape with floor {floor}"
                    failures.append(_record(ds, [list(z)], expected, "no valid valley position"))
                if ds.degrees[1] > ds.degrees[ds.k - 1] and z[-1] <= floor:
                    failures.append(_record(ds, [list(z)], f"last pendant count > {floor}", z[-1]))
    return _finish("thm-3.5", {"max_n": max_n, "max_k": max_k, "min_k": 3}, instances, failures)


def verify_mountain_shape(
    max_n: int, max_k: int = _DEFAULT_MAX_K, budget: EnumerationBudget = DEFAULT_BUDGET
) -> VerificationReport:
    """Maximizing caterpillars rise to a peak, then never increase again."""
    failures = []
    instances = 0
    for ds, _, winners in _caterpillar_optima(max_n, 3, max_k, True, budget):
        instances += 1
        for y in winners:
            for z in _orientations(y):
                if not _valley_ok(tuple(-v for v in z)):
                    observed = "no valid peak position"
                    failures.append(_record(ds, [list(z)], "mountain shape", observed))
    return _finish(
        "thm-3.6-shape", {"max_n": max_n, "max_k": max_k, "min_k": 3}, instances, failures
    )


def verify_closed_forms(
    max_n: int, budget: EnumerationBudget = DEFAULT_BUDGET
) -> VerificationReport:
    """For k in {2, 3, 4} the closed form must equal the caterpillar
    minimum, as the branch and bound over pendant arrangements finds it,
    and the minimizer must be the stated tree, uniquely."""
    failures = []
    instances = 0
    for ds, best, winners in _caterpillar_optima(max_n, 2, 4, False, budget):
        instances += 1
        value, stated = closed_form_phi(ds)
        observed = sorted(winners)
        expected = [caterpillar_canonical(stated)]
        if value != best or observed != expected:
            ys = [list(y) for y in observed]
            formula = {"value": str(value), "minimizers": [list(expected[0])]}
            search = {"value": str(best), "minimizers": ys}
            failures.append(_record(ds, ys, formula, search))
    return _finish("thm-4.1", {"max_n": max_n, "k_range": [2, 4]}, instances, failures)


def verify_trichotomy(
    max_n: int, budget: EnumerationBudget = DEFAULT_BUDGET
) -> VerificationReport:
    """For k = 5 the predicted minimizer set must equal the minimizers the
    caterpillar branch and bound finds.

    Also scans for sequences with d4 != d5 where lhs = rhs, the boundary
    between tags I and III. None exist (lhs is a power of two, rhs has an
    odd factor of at least 3), and the scan is recorded as a report-only
    finding either way.
    """
    failures = []
    instances = 0
    equality_instances = []
    for ds, _, winners in _caterpillar_optima(max_n, 5, 5, False, budget):
        instances += 1
        case, predicted = predict_min_k5(ds)
        observed = set(winners)
        if observed != predicted:
            seen = sorted(list(y) for y in observed)
            failures.append(_record(ds, seen, sorted(list(y) for y in predicted), seen))
        if not case.d4_equals_d5 and case.lhs == case.rhs:
            equality_instances.append(list(ds.degrees))
    findings = {
        "equality_branch_instances": equality_instances,
        "equality_branch_count": len(equality_instances),
    }
    return _finish("thm-4.2", {"max_n": max_n, "k": 5}, instances, failures, findings)


def verify_transformation_monotonicity(
    max_n: int, budget: EnumerationBudget = DEFAULT_BUDGET
) -> VerificationReport:
    """On every non-caterpillar tree, every applicable branch shift whose
    gating inequality holds (with a nontrivial branch) must strictly lower
    the subtree count: the tree's own, the sum of the rooted counts
    _branch_shifts yields, against count_subtrees of the shifted Tree."""
    failures = []
    trees_seen = 0
    applicable = 0
    decreased = 0
    for ds, parents in _realizations(max_n, budget):
        for parent in parents:
            if _parents_are_caterpillar(parent):
                continue
            trees_seen += 1
            t = _tree_from_parents(parent)
            for ctx, down in _branch_shifts(t, range(t.n), t.leaves()):
                weight, tail, branch = _shift_weights(ctx, down)
                if not (weight > tail and branch > 1):
                    continue
                applicable += 1
                phi = sum(down)
                shifted = _shifted(t, ctx)
                phi2 = count_subtrees(shifted)
                if phi2 < phi:
                    decreased += 1
                else:
                    failures.append(
                        _record(
                            ds,
                            [canonical_form(t), canonical_form(shifted)],
                            f"count below {phi}",
                            str(phi2),
                            instance={"y": ctx.y, "v_r": ctx.v_r},
                        )
                    )
    findings = {
        "non_caterpillar_trees": trees_seen,
        "applicable_instances": applicable,
        "strict_decreases": decreased,
    }
    return _finish(
        "eq-2.1-monotonic", {"max_n": max_n}, applicable, failures, findings
    )


def _optimal(scored, column, maximize):
    """Indices of the (index, phi, wiener) rows that optimize one column."""
    return {row[0] for row in extremes(scored, itemgetter(column), maximize)[1]}


def explore_wiener_correspondence(
    max_n: int, budget: EnumerationBudget = DEFAULT_BUDGET
) -> VerificationReport:
    """Report-only: do subtree maximizers minimize the Wiener index (and
    subtree minimizers maximize it) within each degree sequence?

    Records agreement rates and all disagreeing sequences; never fails.
    The optimal sets are compared as indices: the trees of one sequence
    are pairwise non-isomorphic, so equal index sets are equal code sets,
    and only a disagreeing sequence's optimizers are coded.
    """
    rows = []
    agree_max = agree_min = 0
    disagreements = []
    instances = 0
    for ds, parents in _realizations(max_n, budget):
        instances += 1
        order = range(ds.n)
        scored = [(i, _parent_phi(p), _wiener(order, p)) for i, p in enumerate(parents)]
        phi_max, phi_min = _optimal(scored, 1, True), _optimal(scored, 1, False)
        wie_min, wie_max = _optimal(scored, 2, False), _optimal(scored, 2, True)
        max_matches = phi_max == wie_min
        min_matches = phi_min == wie_max
        agree_max += max_matches
        agree_min += min_matches
        if not (max_matches and min_matches):
            disagreements.append(
                {
                    "degree_sequence": list(ds.degrees),
                    "subtree_maximizers": _codes(parents[i] for i in phi_max),
                    "wiener_minimizers": _codes(parents[i] for i in wie_min),
                    "subtree_minimizers": _codes(parents[i] for i in phi_min),
                    "wiener_maximizers": _codes(parents[i] for i in wie_max),
                }
            )
        rows.append(
            {
                "degree_sequence": list(ds.degrees),
                "realizations": len(parents),
                "max_side_agrees": max_matches,
                "min_side_agrees": min_matches,
            }
        )
    findings = {
        "max_side_agreement": f"{agree_max}/{instances}",
        "min_side_agreement": f"{agree_min}/{instances}",
        "disagreements": disagreements,
        "table": rows,
    }
    return _finish(
        "wiener-correspondence",
        {"max_n": max_n},
        instances,
        [],
        findings,
        report_only=True,
    )


# Each claim id with its checker and the default cap on n of its universe.
_CLAIMS = {
    "thm-2.1": (verify_caterpillar_minimality, 9),
    "thm-3.5": (verify_valley_shape, 13),
    "thm-3.6-shape": (verify_mountain_shape, 13),
    "thm-4.1": (verify_closed_forms, 12),
    "thm-4.2": (verify_trichotomy, 13),
    "eq-2.1-monotonic": (verify_transformation_monotonicity, 9),
    "wiener-correspondence": (explore_wiener_correspondence, 9),
}
_TAKES_MAX_K = ("thm-3.5", "thm-3.6-shape")  # the shape claims also cap k

CLAIM_IDS = tuple(_CLAIMS)


def run_claim(claim: str, max_n: int | None = None, max_k: int | None = None,
              budget: EnumerationBudget = DEFAULT_BUDGET) -> VerificationReport:
    """Dispatch a claim id. A cap left as None takes the claim's default; any
    given cap, 0 included, bounds the universe as given. A negative or
    non-integer cap, or a cap on k for a claim whose universe k does not
    bound, is an input error."""
    if claim not in _CLAIMS:
        raise ValueError(f"unknown claim {claim!r}")
    check, default_n = _CLAIMS[claim]
    caps = {"max_n": default_n if max_n is None else max_n}
    if claim in _TAKES_MAX_K:
        caps["max_k"] = _DEFAULT_MAX_K if max_k is None else max_k
    elif max_k is not None:
        raise ValueError(f"{claim} takes no max_k; only {', '.join(_TAKES_MAX_K)} do")
    for name, cap in caps.items():
        try:
            caps[name] = index(cap)
        except TypeError:
            raise ValueError(f"{name} must be an integer, got {cap!r}") from None
        if caps[name] < 0:
            raise ValueError(f"{name} must be >= 0, got {cap}")
    return check(*caps.values(), budget)
