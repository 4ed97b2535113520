"""Machine checks of the structural claims behind the extremal search.

Each checker sweeps an exhaustive universe of degree sequences, tests one
claim on every instance, and returns a VerificationReport listing any
counterexamples. Reports are deterministic: sweeps iterate sequences in a
fixed order and failure lists carry the degree sequence plus witness
canonical codes, enough to replay a single instance.

Claim identifiers (the CLI contract):

  thm-2.1             every subtree-count minimizer is a caterpillar
  thm-3.5             minimizing caterpillars are valley-shaped with the
                      minimum pendant count at the valley bottom
  thm-3.6-shape       maximizing caterpillars are mountain-shaped
  thm-4.1             the k in {2,3,4} closed forms and their unique
                      minimizers match exhaustive search
  thm-4.2             the k = 5 trichotomy predicts the exact minimizer set
  eq-2.1-monotonic    the branch shift strictly decreases the count whenever
                      its inequality holds
  wiener-correspondence  report-only comparison of subtree and Wiener optima
"""

from dataclasses import dataclass, field
from operator import itemgetter

from .canonical import canonical_form
from .caterpillars import Caterpillar, caterpillar_canonical
from .counting import count_subtrees, wiener_index
from .enumeration import (
    DEFAULT_BUDGET,
    EnumerationBudget,
    enumerate_degree_sequences,
    enumerate_trees,
)
from .extremal import (
    _caterpillar_extremes,
    branch_shift_context,
    branch_shift_inequality,
    closed_form_phi,
    extremes,
    predict_min_k5,
    shift_branch_to_end,
)
from .errors import NotApplicable
from .trees import is_caterpillar

PASS = "pass"
FAIL = "fail"
REPORT_ONLY = "report-only"

CLAIM_IDS = (
    "thm-2.1",
    "thm-3.5",
    "thm-3.6-shape",
    "thm-4.1",
    "thm-4.2",
    "eq-2.1-monotonic",
    "wiener-correspondence",
)


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


def _sequences(max_n: int, min_k: int = 0, max_k: int | None = None):
    for n in range(2, max_n + 1):
        for ds in enumerate_degree_sequences(n):
            if ds.k < min_k:
                continue
            if max_k is not None and ds.k > max_k:
                continue
            yield ds


def verify_caterpillar_minimality(
    max_n: int, budget: EnumerationBudget = DEFAULT_BUDGET
) -> VerificationReport:
    """Every minimizer over all realizations must be a caterpillar."""
    failures = []
    instances = 0
    for ds in _sequences(max_n):
        instances += 1
        _, winners, _ = extremes(enumerate_trees(ds, budget), count_subtrees)
        bad = [t for t in winners if not is_caterpillar(t)]
        if bad:
            failures.append(
                {
                    "degree_sequence": list(ds.degrees),
                    "witnesses": sorted(canonical_form(t) for t in bad),
                    "expected": "all minimizers are caterpillars",
                    "observed": f"{len(bad)} non-caterpillar minimizer(s)",
                }
            )
    return _finish("thm-2.1", {"max_n": max_n}, instances, failures)


def _valley_ok(z: tuple[int, ...], floor: int) -> bool:
    """Some position t <= k-1 holds the floor value, the prefix falls into it
    strictly, and the suffix never decreases."""
    k = len(z)
    for t in range(1, k):  # 1-based t in 1..k-1
        zt = z[t - 1]
        if zt != floor:
            continue
        if t >= 2 and not z[t - 2] > zt:
            continue
        if any(z[i - 1] < z[i] for i in range(1, t - 1)):
            continue
        if any(z[i - 1] > z[i] for i in range(t, k)):
            continue
        return True
    return False


def _mountain_ok(z: tuple[int, ...]) -> bool:
    """Some peak t <= k-1 with a strict final rise and nonincreasing suffix."""
    k = len(z)
    for t in range(1, k):
        if t >= 2 and not z[t - 2] < z[t - 1]:
            continue
        if any(z[i - 1] > z[i] for i in range(1, t - 1)):
            continue
        if any(z[i - 1] < z[i] for i in range(t, k)):
            continue
        return True
    return False


def _orientations(cat: Caterpillar) -> list[tuple[int, ...]]:
    """The pendant vectors with first entry >= last (one, or two on ties)."""
    y = caterpillar_canonical(cat.y)
    flipped = tuple(reversed(y))
    if y[0] == y[-1] and flipped != y:
        return [y, flipped]
    return [y]


def verify_valley_shape(
    max_n: int, max_k: int = 6, budget: EnumerationBudget = DEFAULT_BUDGET
) -> VerificationReport:
    """Minimizing caterpillars decrease to the minimum pendant count, then
    never decrease again; when d_2 > d_k the far end stays above the floor."""
    failures = []
    instances = 0
    for ds in _sequences(max_n, min_k=3, max_k=max_k):
        instances += 1
        floor = ds.degrees[ds.k - 1] - 2
        _, winners, _, _ = _caterpillar_extremes(ds, budget, maximize=False)
        for cat in winners:
            for z in _orientations(cat):
                if not _valley_ok(z, floor):
                    failures.append(
                        {
                            "degree_sequence": list(ds.degrees),
                            "witnesses": [list(z)],
                            "expected": f"valley shape with floor {floor}",
                            "observed": "no valid valley position",
                        }
                    )
                if ds.degrees[1] > ds.degrees[ds.k - 1] and z[-1] <= floor:
                    failures.append(
                        {
                            "degree_sequence": list(ds.degrees),
                            "witnesses": [list(z)],
                            "expected": f"last pendant count > {floor}",
                            "observed": z[-1],
                        }
                    )
    return _finish("thm-3.5", {"max_n": max_n, "max_k": max_k, "min_k": 3}, instances, failures)


def verify_mountain_shape(
    max_n: int, max_k: int = 6, budget: EnumerationBudget = DEFAULT_BUDGET
) -> VerificationReport:
    """Maximizing caterpillars rise to a peak, then never increase again."""
    failures = []
    instances = 0
    for ds in _sequences(max_n, min_k=3, max_k=max_k):
        instances += 1
        _, winners, _, _ = _caterpillar_extremes(ds, budget, maximize=True)
        for cat in winners:
            for z in _orientations(cat):
                if not _mountain_ok(z):
                    failures.append(
                        {
                            "degree_sequence": list(ds.degrees),
                            "witnesses": [list(z)],
                            "expected": "mountain shape",
                            "observed": "no valid peak position",
                        }
                    )
    return _finish(
        "thm-3.6-shape", {"max_n": max_n, "max_k": max_k, "min_k": 3}, instances, failures
    )


def verify_closed_forms(
    max_n: int, budget: EnumerationBudget = DEFAULT_BUDGET
) -> VerificationReport:
    """For k in {2, 3, 4} the closed form must equal the exhaustive
    caterpillar minimum and the minimizer must be the stated tree, uniquely."""
    failures = []
    instances = 0
    for ds in _sequences(max_n, min_k=2, max_k=4):
        instances += 1
        value, stated = closed_form_phi(ds)
        best, winners, _, _ = _caterpillar_extremes(ds, budget, maximize=False)
        observed = sorted(cat.y for cat in winners)
        expected = [caterpillar_canonical(stated)]
        if value != best or observed != expected:
            failures.append(
                {
                    "degree_sequence": list(ds.degrees),
                    "witnesses": [list(y) for y in observed],
                    "expected": {"value": str(value), "minimizers": [list(expected[0])]},
                    "observed": {"value": str(best), "minimizers": [list(y) for y in observed]},
                }
            )
    return _finish("thm-4.1", {"max_n": max_n, "k_range": [2, 4]}, instances, failures)


def verify_trichotomy(
    max_n: int, budget: EnumerationBudget = DEFAULT_BUDGET
) -> VerificationReport:
    """For k = 5 the predicted minimizer set must equal exhaustive search.

    Also scans for sequences with d4 != d5 where the two candidate
    arrangements tie exactly (the case-II boundary); none are expected, and
    the scan is recorded as a report-only finding either way.
    """
    failures = []
    instances = 0
    equality_instances = []
    for ds in _sequences(max_n, min_k=5, max_k=5):
        instances += 1
        case, predicted = predict_min_k5(ds)
        _, winners, _, _ = _caterpillar_extremes(ds, budget, maximize=False)
        observed = {cat.y for cat in winners}
        if observed != predicted:
            failures.append(
                {
                    "degree_sequence": list(ds.degrees),
                    "witnesses": sorted(list(y) for y in observed),
                    "expected": sorted(list(y) for y in predicted),
                    "observed": sorted(list(y) for y in observed),
                }
            )
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
    the subtree count."""
    failures = []
    trees_seen = 0
    applicable = 0
    decreased = 0
    for n in range(2, max_n + 1):
        for ds in enumerate_degree_sequences(n):
            for t in enumerate_trees(ds, budget):
                if is_caterpillar(t):
                    continue
                trees_seen += 1
                phi = count_subtrees(t)
                for y in range(t.n):
                    for v_r in range(t.n):
                        try:
                            ctx = branch_shift_context(t, y, v_r)
                        except NotApplicable:
                            continue
                        weight, tail, branch = branch_shift_inequality(t, ctx)
                        if not (weight > tail and branch > 1):
                            continue
                        applicable += 1
                        shifted = shift_branch_to_end(t, y, v_r)
                        phi2 = count_subtrees(shifted)
                        if phi2 < phi:
                            decreased += 1
                        else:
                            failures.append(
                                {
                                    "degree_sequence": list(ds.degrees),
                                    "witnesses": [canonical_form(t), canonical_form(shifted)],
                                    "expected": f"count below {phi}",
                                    "observed": str(phi2),
                                    "instance": {"y": y, "v_r": v_r},
                                }
                            )
    findings = {
        "non_caterpillar_trees": trees_seen,
        "applicable_instances": applicable,
        "strict_decreases": decreased,
    }
    return _finish(
        "eq-2.1-monotonic", {"max_n": max_n}, applicable, failures, findings
    )


def _optimal_codes(scored, column, maximize):
    """Codes of the (code, phi, wiener) rows that optimize one column."""
    return {row[0] for row in extremes(scored, itemgetter(column), maximize)[1]}


def explore_wiener_correspondence(
    max_n: int, budget: EnumerationBudget = DEFAULT_BUDGET
) -> VerificationReport:
    """Report-only: do subtree maximizers minimize the Wiener index (and
    subtree minimizers maximize it) within each degree sequence?

    Records agreement rates and all disagreeing sequences; never fails.
    """
    rows = []
    agree_max = agree_min = 0
    disagreements = []
    instances = 0
    for ds in _sequences(max_n):
        instances += 1
        scored = [
            (canonical_form(t), count_subtrees(t), wiener_index(t))
            for t in enumerate_trees(ds, budget)
        ]
        phi_max, phi_min = _optimal_codes(scored, 1, True), _optimal_codes(scored, 1, False)
        wie_min, wie_max = _optimal_codes(scored, 2, False), _optimal_codes(scored, 2, True)
        max_matches = phi_max == wie_min
        min_matches = phi_min == wie_max
        agree_max += max_matches
        agree_min += min_matches
        if not (max_matches and min_matches):
            disagreements.append(
                {
                    "degree_sequence": list(ds.degrees),
                    "subtree_maximizers": sorted(phi_max),
                    "wiener_minimizers": sorted(wie_min),
                    "subtree_minimizers": sorted(phi_min),
                    "wiener_maximizers": sorted(wie_max),
                }
            )
        rows.append(
            {
                "degree_sequence": list(ds.degrees),
                "realizations": len(scored),
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


def run_claim(claim: str, max_n: int | None = None, max_k: int | None = None,
              budget: EnumerationBudget = DEFAULT_BUDGET) -> VerificationReport:
    """Dispatch a claim id with its default universe caps."""
    if claim == "thm-2.1":
        return verify_caterpillar_minimality(max_n or 9, budget)
    if claim == "thm-3.5":
        return verify_valley_shape(max_n or 13, max_k or 6, budget)
    if claim == "thm-3.6-shape":
        return verify_mountain_shape(max_n or 13, max_k or 6, budget)
    if claim == "thm-4.1":
        return verify_closed_forms(max_n or 12, budget)
    if claim == "thm-4.2":
        return verify_trichotomy(max_n or 13, budget)
    if claim == "eq-2.1-monotonic":
        return verify_transformation_monotonicity(max_n or 9, budget)
    if claim == "wiener-correspondence":
        return explore_wiener_correspondence(max_n or 9, budget)
    raise ValueError(f"unknown claim {claim!r}")
