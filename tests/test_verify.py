import hashlib
import json

import pytest

from treextremal import enumeration, extremal, verify
from treextremal.degrees import parse_degree_sequence
from treextremal.enumeration import EnumerationBudget
from treextremal.errors import BudgetExceeded, InternalInconsistency
from treextremal.extremal import TrichotomyCase, closed_form_phi
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
    assert _valley_ok((1, 0, 0))
    assert _valley_ok((0, 0, 0))
    assert _valley_ok((2, 1, 0, 3))
    assert not _valley_ok((0, 1, 0))  # falls after the rise
    assert _valley_ok((2, 1, 1))


def _mountain_ok(z):
    """The mountain check of thm-3.6-shape: the valley of -z."""
    return _valley_ok(tuple(-v for v in z))


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
        with pytest.raises(BudgetExceeded, match="caterpillar search exceeds budget 1"):
            run_claim(claim, 8, budget=tiny)


def test_run_claim_dispatch():
    for claim in CLAIM_IDS:
        # tiny universes so the full dispatch stays fast
        kwargs = {"max_k": 4} if claim in ("thm-3.5", "thm-3.6-shape") else {}
        report = run_claim(claim, max_n=6, **kwargs)
        assert report.claim == claim
    with pytest.raises(ValueError):
        run_claim("thm-9.9")


def test_run_claim_rejects_max_k_for_claims_without_a_k_cap():
    for claim in ("thm-2.1", "thm-4.1", "thm-4.2", "eq-2.1-monotonic", "wiener-correspondence"):
        with pytest.raises(ValueError, match="takes no max_k"):
            run_claim(claim, 4, max_k=4)
    assert run_claim("thm-3.5", 8, max_k=4).universe["max_k"] == 4


def test_full_enumeration_claims_refuse_before_generating(monkeypatch):
    def no_generation(n):
        raise AssertionError("generation started")

    monkeypatch.setattr(enumeration, "free_level_sequences", no_generation)
    with pytest.raises(BudgetExceeded, match="n=17 exceeds full-enumeration cap 16"):
        run_claim("thm-2.1", 17)
    with pytest.raises(
        BudgetExceeded, match="predicted 551 free trees on 12 vertices exceeds budget 500"
    ):
        run_claim("wiener-correspondence", 12, budget=EnumerationBudget(max_labeled=500))
    with pytest.raises(BudgetExceeded, match="predicted 6 free trees on 6 vertices"):
        run_claim("eq-2.1-monotonic", 8, budget=EnumerationBudget(max_labeled=5))


def test_caterpillar_sweep_recounts_winners(monkeypatch):
    # Every winner of every search in a caterpillar sweep is recounted by
    # the product DP, independently of the caterpillar_phi recurrence.
    real = extremal._rooted_counts
    monkeypatch.setattr(extremal, "_rooted_counts", lambda order, parent: real(order, parent) + [1])
    with pytest.raises(InternalInconsistency, match="count_subtrees"):
        run_claim("thm-4.1", 8)


# sha256 of json.dumps(run_claim(claim, n).to_payload(), sort_keys=True) for
# each claim at each cap of the benchmark's sweep ladders, past the claim's
# default cap too, and at the default itself. eq-2.1-monotonic@12 (427
# non-caterpillar trees, 1,801 applicable shifts) reaches past the 15 trees
# its ladder sees.
GOLDEN_PAYLOADS = {
    "thm-2.1@4": "f059c15aac836f62baa976d42d244ad7ab92a06d68873761d7a986b38f075dc3",
    "thm-2.1@5": "2dc7b3e10a0f9ec6a5a7442633b82cda86fd4c2278dce6213efb3afda0bc1055",
    "thm-2.1@6": "020efa7a9781b595ec00e4bd694b04d613456c9a3f12b2318307be9c57671d37",
    "thm-2.1@7": "f3548ed47c4647c9238207fed176b3e7ed5991f0a0525169a2b8fc3d7352bf2c",
    "thm-2.1@8": "0413d44bd160519d590cdb377d1ee42d04f2c943ccf7c5023348d366ed93dfc7",
    "thm-2.1@9": "631dafd61307057a4acfc92e77b32cf25e47fec47c2a1e8a411859435cdd4200",
    "eq-2.1-monotonic@4": "e421e70fc870dee94fd2307879dfa24bf976f9a4b21f2d3d267de18cb6000218",
    "eq-2.1-monotonic@5": "282bdbbb12e31ae001c57b4995d4ecee11b082e8b33eb42d20cd63aa8b78318f",
    "eq-2.1-monotonic@6": "2a06acf42869555f5fb89973f62f60bda94b6de03c7c6c235c0faade6e132552",
    "eq-2.1-monotonic@7": "abbd10ba3822246c5fcd11d86630ac882712052d4f691b54086b014c1c7bd17f",
    "eq-2.1-monotonic@8": "9c20c1eb390bad112a4b8c81499f1152cb758a97c7f151ff16340af485e25bed",
    "eq-2.1-monotonic@9": "586f7555809e1aa866cef7c80342eb39cdbb0551fc146a96f0fbe04edc6ca7e8",
    "eq-2.1-monotonic@12": "b78be3705041b06aafbe31daa5a31d2738ecbf610942e77b6ced7a3f16e8d220",
    "wiener-correspondence@4": "cb89f5da66cfd248a8e5c8a2ad094ce31809c566cc6e5256250947e92db2bb52",
    "wiener-correspondence@5": "116447796cb848444707d2623806669790741db469eaf3c831be214fe0e3455d",
    "wiener-correspondence@6": "9f82a53eb66689bcd3ba0106a6b39f9e3ed6bc6d24a9a55aa8e7af2a65be1a60",
    "wiener-correspondence@7": "a00dd67f6ac5d6eed30989e9ec0272424026494940a0e070c4026117737d3283",
    "wiener-correspondence@8": "90ba9c767060d23bb1c7f7f2f6b3390987412b0c898e6b3587418656a24d6614",
    "wiener-correspondence@9": "5230e9e094706ada611583a7774d3a361915104a1933c38bf79b1201b58a079a",
    "thm-3.5@6": "17146715f1fcda61f68c145733df808357a907b2e839f45be307dca331ca3f19",
    "thm-3.5@8": "34e14d8b7d3ffbe292dbc2acca70c01e0e0305108ad97ee783ef7ef708537c5c",
    "thm-3.5@10": "ad2cd175e77c291cc5134cfa4bd326c5958fdd33d3e3170ede5b0e3a7d2bc3eb",
    "thm-3.5@12": "123faccd0c6b36f0dec31d679e426e1ffe3bc7dd026b014fbad5a46e2cf565ec",
    "thm-3.5@13": "dddee6de5943db4853183bd07e4c85a46220682343ba5895a2d58cae1ae0a1e4",
    "thm-3.5@14": "2eb12615c354a3948144c8680a02352218310080bc41568f4d75d20976c3a6c4",
    "thm-3.5@16": "2d0390554e61b88c9590d737f7f571c61139d742b7338080092854d012bc18b3",
    "thm-3.6-shape@6": "31224159062943efacd5fe562c245be049b155769906df8aaec9a473d3ac9c44",
    "thm-3.6-shape@8": "2c9d1bd9d7f07d682257fcce25f861fdadf135398c8ec492d3842e62bc6302ac",
    "thm-3.6-shape@10": "1070d57f1105f400b613a888bd2977f6ce6c4584138770918384ba0bea2ef9c2",
    "thm-3.6-shape@12": "4303666e5a8f5204050819ed7a13003abf2d37f6c0add0a708194cbecaf97b8a",
    "thm-3.6-shape@13": "ab928fa57e25a80a12f5587170d4c0e67325981745bf013154623d897770873f",
    "thm-3.6-shape@14": "8b533c16b1107e961a7bf22032f99bc2558dee9273783b2647158541c3b3dd47",
    "thm-3.6-shape@16": "b94f0378c34645fdd7b7e9028c735f30d223685ca5dec115b0a7891dfcee1b3a",
    "thm-4.1@8": "48bfe91fb21af7196deb3927f1d10bf6f03149e67cf608640a3903c8293ca8e3",
    "thm-4.1@10": "3d661f77d0eda57ff466f98daf42bb12a22441adc1d3e4884a58a22a31825b29",
    "thm-4.1@12": "2a4ba4ee2369a2eb5a64ba75f6d16d904616f1ab899758c5685ac88591d2dec0",
    "thm-4.1@14": "f1d907dadf11e6debbe25a64131c5449178f52b8e0c96096ab5d6d0758e88363",
    "thm-4.1@16": "6991fc937c0f24b8133cd98681f3f6fb93cd37931147ae9735e34036bb6857b6",
    "thm-4.1@18": "30606932f0f898979467a5b1713bf092843d114c8de13699a60dc40525940baf",
    "thm-4.1@20": "5a66465bc488d4e69ab15146422bd99067409093f04993a58f184f25e8955eb0",
    "thm-4.2@8": "20b47e6cd14b3a5b56b5bae6c4ee2fdfa2dd5231eb22845e1a90656ef237989c",
    "thm-4.2@10": "8ea15b2d3aded99e3ef7b599ed97213002ce06a83271338d62298a47218efc4e",
    "thm-4.2@12": "5a29392fac1e20e87598eeb60747fcb7e5186da219de2fc3e72a6862f3bd680d",
    "thm-4.2@13": "b3a9d11f21dddc6bf233e4080c8cccfd32921b09b0534664085782b372612c2a",
    "thm-4.2@14": "894eee0d9e7fa0a53a2758db17829a8c4a4ba16c9af6ef8f51d3669ddc0720f3",
    "thm-4.2@16": "350d30889f96488e57fa2000709e9849ddbfd5ef478b4a7d23336614bd8399e9",
    "thm-4.2@18": "74bda25727922b528f11d0fac3e5d81aad6c4c6255fe523fa978ee06c94a2dbb",
    "thm-4.2@20": "a164e209a3d38978d6d984a59deae1979b6f3f0e5c822846452a045c432924cd",
}


@pytest.mark.parametrize("key", sorted(GOLDEN_PAYLOADS))
def test_payloads_match_golden_digests(key):
    claim, n = key.rsplit("@", 1)
    payload = json.dumps(run_claim(claim, int(n)).to_payload(), sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == GOLDEN_PAYLOADS[key]


def test_run_claim_rejects_negative_caps():
    for claim, kwargs in (("thm-2.1", {"max_n": -5}), ("thm-3.5", {"max_k": -2})):
        with pytest.raises(ValueError, match="must be >= 0"):
            run_claim(claim, **kwargs)


def test_run_claim_rejects_non_integer_caps():
    for args, name in (
        (("thm-3.5", 8, 2.5), "max_k"),
        (("thm-3.5", 10, 4.5), "max_k"),
        (("thm-4.1", 10.0), "max_n"),
        (("thm-2.1", "5"), "max_n"),
    ):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            run_claim(*args)


def _shape_breakers(max_n, min_k, max_k, maximize, budget):
    """Stand-in for the caterpillar sweep. (2, 1, 0) is no valley and ends
    on the floor although d_2 > d_k, yet it is a mountain; both
    orientations of (1, 2, 0, 1) break both shapes."""
    yield parse_degree_sequence("4,3,2,1*5"), 0, [(2, 1, 0)]
    yield parse_degree_sequence("4,3,3,2,1*6"), 0, [(1, 2, 0, 1)]


def _closed_form_off_by_one(ds):
    value, stated = closed_form_phi(ds)
    return value + 1, stated


# Each claim forced to fail (wiener-correspondence to disagree) through one
# seam, with its cap on n and the sha256 of
# json.dumps(payload, sort_keys=True) of the failing report, frozen from the
# implementation that checked mountains with a predicate of their own.
FORCED_FAILURES = {
    "thm-2.1": (
        ("is_caterpillar", lambda t: False), 6,
        "58843a73212b0794382c283faec424486fe5ecc0ace6970a7a77a1cfbdb77684",
    ),
    "thm-3.5": (
        ("_caterpillar_optima", _shape_breakers), 9,
        "8f8b73f98a466a8ca4a68db2c745ac84524d6ac18c93478b398fe2b1ed3bc715",
    ),
    "thm-3.6-shape": (
        ("_caterpillar_optima", _shape_breakers), 9,
        "9b2bd2221ee9a7dec17ca5a6630a81f12eef8f5da42a9cf75456b0594bb872d2",
    ),
    "thm-4.1": (
        ("closed_form_phi", _closed_form_off_by_one), 7,
        "18678cd0cf891132f27aaffb05a86c6e1afb7bddc97423b71e2cdba789202f3f",
    ),
    "thm-4.2": (
        ("predict_min_k5", lambda ds: (TrichotomyCase("I", 4, 4, False), set())), 9,
        "4f3d599b11cd350abd9553d43ff13ea1eb4458b2fc202b5a26b7f6827f37330e",
    ),
    "eq-2.1-monotonic": (
        ("_shifted", lambda t, ctx: t), 8,
        "50e2b3e2764bbf0c0d8806db93ce1a5e6b2709bc1839e37eea7a8334bee12b98",
    ),
    "wiener-correspondence": (
        ("_wiener", lambda order, parent: 0), 6,
        "8d1f03532045715004bf227574e8e84b01c1426d5c06126b85d8497a16e03872",
    ),
}


@pytest.mark.parametrize("claim", sorted(FORCED_FAILURES))
def test_forced_failures_are_recorded(monkeypatch, claim):
    (attr, fake), max_n, digest = FORCED_FAILURES[claim]
    monkeypatch.setattr(verify, attr, fake)
    report = run_claim(claim, max_n)
    if claim == "wiener-correspondence":
        assert report.status == "report-only" and report.findings["disagreements"]
    else:
        assert report.status == "fail" and report.failures
    payload = json.dumps(report.to_payload(), sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == digest
