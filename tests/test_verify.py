import json

import pytest

from treextremal.enumeration import EnumerationBudget
from treextremal.errors import BudgetExceeded
from treextremal.verify import (
    CLAIM_IDS,
    VerificationReport,
    explore_wiener_correspondence,
    run_claim,
    verify_caterpillar_minimality,
    verify_closed_forms,
    verify_mountain_shape,
    verify_trichotomy,
    verify_transformation_monotonicity,
    verify_valley_shape,
    _mountain_ok,
    _valley_ok,
)


def test_caterpillar_minimality_small():
    report = verify_caterpillar_minimality(6)
    assert report.status == "pass"
    assert report.failures == []
    # one instance per degree sequence with 2 <= n <= 6
    assert report.instances_checked == 1 + 1 + 2 + 3 + 5


def test_valley_shape_small():
    report = verify_valley_shape(10, 6)
    assert report.status == "pass"
    assert report.instances_checked > 0
    vacuous = verify_valley_shape(4, 6)  # no k >= 3 sequences exist below n=5
    assert vacuous.status == "pass"
    assert vacuous.instances_checked == 0


def test_valley_predicate():
    assert _valley_ok((1, 0, 0), 0)
    assert _valley_ok((0, 0, 0), 0)
    assert _valley_ok((2, 1, 0, 3), 0)
    assert not _valley_ok((0, 1, 0), 0)  # falls after the rise
    assert not _valley_ok((1, 1, 1), 0)  # never reaches the floor
    assert not _valley_ok((2, 0, 1), 1)  # floor value never attained... at t<=k-1
    assert _valley_ok((2, 1, 1), 1)


def test_mountain_predicate():
    assert _mountain_ok((0, 1, 0))
    assert _mountain_ok((2, 1, 0))
    assert _mountain_ok((1, 2, 2))
    assert _mountain_ok((2, 2, 1))
    assert not _mountain_ok((2, 0, 2))
    assert not _mountain_ok((0, 1, 2))  # peak only at the far right


def test_mountain_shape_small():
    report = verify_mountain_shape(10, 6)
    assert report.status == "pass"


def test_closed_forms_small():
    report = verify_closed_forms(10)
    assert report.status == "pass"
    assert report.universe == {"max_n": 10, "k_range": [2, 4]}


def test_trichotomy_small():
    report = verify_trichotomy(11)
    assert report.status == "pass"
    assert report.findings["equality_branch_count"] == 0
    assert report.findings["equality_branch_instances"] == []


def test_transformation_monotonicity_small():
    report = verify_transformation_monotonicity(8)
    assert report.status == "pass"
    assert report.findings["applicable_instances"] > 0
    assert (
        report.findings["strict_decreases"] == report.findings["applicable_instances"]
    )


def test_wiener_exploration_is_report_only():
    report = explore_wiener_correspondence(7)
    assert report.status == "report-only"
    assert report.failures == []
    assert "max_side_agreement" in report.findings
    assert "table" in report.findings


def test_reports_are_deterministic():
    for claim, kwargs in [
        ("thm-2.1", {"max_n": 6}),
        ("thm-3.5", {"max_n": 9, "max_k": 5}),
        ("thm-4.2", {"max_n": 10}),
        ("wiener-correspondence", {"max_n": 6}),
    ]:
        first = run_claim(claim, **kwargs)
        second = run_claim(claim, **kwargs)
        assert json.dumps(first.to_payload(), sort_keys=True) == json.dumps(
            second.to_payload(), sort_keys=True
        )


def test_payload_is_json_safe_with_string_counts():
    report = verify_trichotomy(13)
    payload = report.to_payload()
    text = json.dumps(payload)
    assert json.loads(text) == payload


def test_payload_int_types_do_not_depend_on_magnitude():
    big = 2**31 + 1
    report = VerificationReport(
        "thm-2.1", {"max_n": 9}, big, [{"instance": {"y": big}}], "fail", {"count": big}
    )
    payload = json.loads(json.dumps(report.to_payload()))
    assert payload["instances_checked"] == big
    assert payload["findings"]["count"] == big
    assert payload["failures"][0]["instance"]["y"] == big


def test_caterpillar_claims_respect_budget():
    tiny = EnumerationBudget(max_labeled=1)
    for claim in ("thm-3.5", "thm-3.6-shape", "thm-4.1", "thm-4.2"):
        with pytest.raises(BudgetExceeded):
            run_claim(claim, 8, budget=tiny)


def test_run_claim_dispatch():
    for claim in CLAIM_IDS:
        # tiny universes so the full dispatch stays fast
        report = run_claim(claim, max_n=6, max_k=4)
        assert report.claim == claim
    with pytest.raises(ValueError):
        run_claim("thm-9.9")


def test_run_claim_rejects_negative_caps():
    for claim, kwargs in (("thm-2.1", {"max_n": -5}), ("thm-3.5", {"max_k": -2})):
        with pytest.raises(ValueError, match="must be >= 0"):
            run_claim(claim, **kwargs)
