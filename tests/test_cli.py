import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from treextremal import cli
from treextremal.cli import main
from treextremal.counting import brute_force_count, count_all_containing, count_subtrees, wiener_index
from treextremal.prufer import prufer_decode
from treextremal.trees import Tree, bfs, diameter, path_tree, star_tree


@pytest.fixture
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


def test_count_caterpillar(run):
    code, out, _ = run("count", "--caterpillar", "1,0")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == "1"
    assert doc["command"] == "count"
    assert doc["results"]["phi"] == "17"
    assert doc["results"]["is_caterpillar"] is True
    assert doc["results"]["diameter"] == 3
    assert doc["results"]["per_vertex"] == ["7", "12", "10", "6", "7"]


def test_count_tree_file(run, tmp_path):
    f = tmp_path / "p4.txt"
    f.write_text("4\n0 1\n1 2\n2 3\n")
    code, out, _ = run("count", str(f))
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["phi"] == "10"
    assert doc["results"]["wiener"] == "10"


def _edge_file(tmp_path, n, edges) -> str:
    f = tmp_path / "tree.txt"
    f.write_text(f"{n}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    return str(f)


def _broom_edges(n, handle):
    """A path on `handle` vertices with the other n - handle as leaves of its end."""
    return [(i, i + 1) for i in range(handle - 1)] + [(handle - 1, v) for v in range(handle, n)]


GOLDEN_COUNT_TREES = {
    "path-2000": lambda: (2000, path_tree(2000).edges),
    "broom-1416": lambda: (1416, _broom_edges(1416, 708)),
    "star-500": lambda: (500, star_tree(500).edges),
    "pruefer-1000": lambda: (
        1000,
        prufer_decode([random.Random(1000).randrange(1000) for _ in range(998)], 1000).edges,
    ),
}

# sha256 of json.dumps(results, sort_keys=True) for the results block of each
# count document, frozen from the two-sweep implementation that preceded the
# exact-division rerooting.
GOLDEN_COUNT_RESULTS = {
    "path-2000": "2a07b7ef8c1cd084d5db7bc169d37722fb09676062fc026f9fcca720b341ed3d",
    "broom-1416": "dcde6914a21beb6e30d7ac3a41d80e54328102806618003f1060b0f6254e0d3c",
    "star-500": "a12d0c8694fffa0cd9b62fe85e1c8909bbb02d5096058b642438d06f755a77d3",
    "pruefer-1000": "7dcea41e577c4c989a0d50d4ab518963fcb618bb296cfff83d1b77ad16113e6a",
    "caterpillar-6,0,1,1,1": "fe0838d691d785f37d90e420456eee9787217b287916aca53a04032cf6786554",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_COUNT_RESULTS))
def test_count_results_golden_digests(run, tmp_path, name):
    if name in GOLDEN_COUNT_TREES:
        argv = ("count", _edge_file(tmp_path, *GOLDEN_COUNT_TREES[name]()))
    else:
        argv = ("count", "--caterpillar", name.split("-", 1)[1])
    code, out, _ = run(*argv)
    assert code == 0
    results = json.dumps(json.loads(out)["results"], sort_keys=True)
    assert hashlib.sha256(results.encode()).hexdigest() == GOLDEN_COUNT_RESULTS[name]


def test_count_malformed_file(run, tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("nonsense\n")
    code, _, err = run("count", str(f))
    assert code == 2
    assert "error" in err


def test_count_missing_file(run, tmp_path):
    code, _, err = run("count", str(tmp_path / "absent.txt"))
    assert code == 2


def test_count_empty_caterpillar_is_an_input_error(run):
    code, out, err = run("count", "--caterpillar", "")
    assert code == 2
    assert out == ""
    assert "malformed pendant vector" in err and "Traceback" not in err


def test_extremal_min_reference(run):
    code, out, _ = run("extremal", "--degseq", "8,3,3,3,2,1*11", "--objective", "min")
    assert code == 0
    doc = json.loads(out)
    results = doc["results"]
    assert results["optimum"] == "3142"
    assert results["method"] == "closed-form"
    assert [o["y_vector"] for o in results["optimizers"]] == [[6, 0, 1, 1, 1]]


def test_extremal_path_sequence(run):
    code, out, _ = run("extremal", "--degseq", "2,2,2,1,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["optimum"] == "15"
    assert [o["y_vector"] for o in doc["results"]["optimizers"]] == [[0, 0, 0]]


def test_extremal_invalid_sequence(run):
    code, _, err = run("extremal", "--degseq", "3,3,1,1")
    assert code == 2
    assert "error" in err


def test_extremal_non_caterpillar_optimizer_reports_edges(run):
    code, out, _ = run(
        "extremal", "--degseq", "3,2,2,2,1,1,1", "--objective", "max", "--method", "brute"
    )
    assert code == 0
    (opt,) = json.loads(out)["results"]["optimizers"]
    assert opt["y_vector"] is None
    assert len(opt["edges"]) == 6


def test_enumerate_json_rows(run):
    code, out, _ = run("enumerate", "--degseq", "3,2,2,1,1,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["count"] == 2
    phis = sorted(row["phi"] for row in doc["results"]["trees"])
    assert phis == ["24", "25"]


def test_enumerate_single_row(run):
    code, out, _ = run("enumerate", "--degseq", "2,2,1,1")
    assert code == 0
    assert json.loads(out)["results"]["count"] == 1


def test_enumerate_csv(run):
    code, out, _ = run("enumerate", "--degseq", "3,2,2,1,1,1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "canonical_code,y_vector_or_blank,phi,wiener"
    assert len(lines) == 3
    assert any("1 0 0" in ln for ln in lines[1:])


# sha256 of the whole stdout of `enumerate --degseq SEQ --format FMT`, with
# and without --caterpillars-only, frozen from the implementation that built
# the rows of the two enumerations in two separate loops. "0" has no
# caterpillar form: with --caterpillars-only it lists its one tree as
# enumerate does (these two entries were frozen when that was made so).
GOLDEN_ENUMERATE_STDOUT = {
    ("3,2,2,1,1,1", "json", False): "9e9e72b65fcd0512f5e183f1e46ee1ea748fb9c6d833046fce14af5933ed7405",
    ("3,2,2,1,1,1", "json", True): "3ebb8fc433344ba10ad60b3a4d48471900d8c95f217284119eec1eb34bc5dbc6",
    ("3,2,2,1,1,1", "csv", False): "01e8e175f0c240c449e368a5a068f9e426fbf81a3acfc77df85b4dcc5e77b42f",
    ("3,2,2,1,1,1", "csv", True): "01e8e175f0c240c449e368a5a068f9e426fbf81a3acfc77df85b4dcc5e77b42f",
    ("4,3,3,2,1*6", "json", False): "75130ca88b2d900caf8aeaf5de50fed82da157084d98ef20976e387e5031c8eb",
    ("4,3,3,2,1*6", "json", True): "8e59b1681acc88aa58986e05c40fecc27d97ecbbd0c80149833138ffafdd2b37",
    ("4,3,3,2,1*6", "csv", False): "9541d796236afa6aaddc8a366447824cc37cf77cb892e5b956f2f5c329167ec8",
    ("4,3,3,2,1*6", "csv", True): "37b4cbfd5eebe0c0b6e033f95cb1b24f4fda170b7251ac544f8343be56b701e2",
    ("2,1,1", "json", False): "07ba7435acce188c34c76ab0f5fe384175db1620d14195bf648569b135fd8ca0",
    ("2,1,1", "json", True): "4e010f6647402bc3c883f89c54edc8d29b8b0e638f4150cf452f493db696a65e",
    ("2,1,1", "csv", False): "b502aa49559054c0a5dcd8107e4f8bb2d5e11903a089536807bfb0c597d4de80",
    ("2,1,1", "csv", True): "b502aa49559054c0a5dcd8107e4f8bb2d5e11903a089536807bfb0c597d4de80",
    ("0", "json", False): "e0fde17aacb100b335dfd4be3c88d75fd6de5582dbc979855a53c60a64d97e1b",
    ("0", "json", True): "451ec797ea5e1f02ff74c4a4ed5e7935ec47572499d40b16b8cde2dcfa21dcd4",
    ("0", "csv", False): "cbe96086c03e9482ab6bc87b8a740516de481344d1bbbd2798f04fd39c62d869",
    ("0", "csv", True): "cbe96086c03e9482ab6bc87b8a740516de481344d1bbbd2798f04fd39c62d869",
}


@pytest.mark.parametrize(
    "degseq,fmt,caterpillars_only",
    sorted(GOLDEN_ENUMERATE_STDOUT),
    ids=lambda v: v if isinstance(v, str) else ("caterpillars" if v else "all"),
)
def test_enumerate_stdout_golden_digests(run, degseq, fmt, caterpillars_only):
    argv = ["enumerate", "--degseq", degseq, "--format", fmt]
    code, out, err = run(*argv + ["--caterpillars-only"] * caterpillars_only)
    assert code == 0 and err == ""
    expected = GOLDEN_ENUMERATE_STDOUT[degseq, fmt, caterpillars_only]
    assert hashlib.sha256(out.encode()).hexdigest() == expected


@pytest.mark.parametrize("degseq", ["0", "1,1"])
def test_enumerate_caterpillars_only_lists_the_k0_tree(run, degseq):
    # With no internal vertex there is no pendant vector, but the one tree
    # is a caterpillar: both enumerations list it, with a null y_vector.
    for fmt in ("json", "csv"):
        argv = ["enumerate", "--degseq", degseq, "--format", fmt]
        code, out, err = run(*argv, "--caterpillars-only")
        assert (code, err) == (0, "")
        plain = run(*argv)[1]
        if fmt == "csv":
            assert out == plain and len(out.splitlines()) == 2
        else:
            results = json.loads(out)["results"]
            assert results == json.loads(plain)["results"]
            assert results["count"] == 1 and results["trees"][0]["y_vector"] is None


def test_enumerate_budget_exceeded(run):
    code, _, err = run("enumerate", "--degseq", "2*16,1,1")
    assert code == 3
    assert "n=18 exceeds full-enumeration cap 16" in err
    code, _, err = run("enumerate", "--degseq", "2,2,2,2,1,1", "--budget-labeled", "5")
    assert code == 3
    assert "predicted 6 free trees" in err  # free trees on 6 vertices


def test_enumerate_budget_flag(run):
    code, _, err = run(
        "enumerate", "--degseq", "2,2,2,2,1,1", "--budget-labeled", "3"
    )
    assert code == 3


def test_nonpositive_budget_is_an_input_error(run):
    code, _, err = run("enumerate", "--degseq", "2,2,1,1", "--budget-labeled", "0")
    assert code == 2
    assert "error" in err


def test_budget_env_var(run, monkeypatch):
    monkeypatch.setenv("TREEXTREMAL_BUDGET", "3")
    code, _, err = run("enumerate", "--degseq", "2,2,2,2,1,1")
    assert code == 3
    monkeypatch.setenv("TREEXTREMAL_BUDGET", "1000000")
    code, out, _ = run("enumerate", "--degseq", "2,2,2,2,1,1")
    assert code == 0
    monkeypatch.setenv("TREEXTREMAL_BUDGET", "abc")
    expected = "error: TREEXTREMAL_BUDGET must be an integer, got 'abc'\n"
    assert run("enumerate", "--degseq", "2,1,1") == (2, "", expected)


def test_count_negative_pendant_is_an_input_error(run):
    expected = "error: pendant vector needs nonnegative entries: '-1,0'\n"
    assert run("count", "--caterpillar=-1,0") == (2, "", expected)


def test_auto_max_double_refusal_names_both_searches(run):
    # 23 free trees on 8 vertices; the caterpillar search on (2,1,0) enters
    # 4 prefixes: the root and one per first value.
    argv = ("extremal", "--degseq", "4,3,2,1*5", "--objective", "max")
    code, out, err = run(*argv, "--budget-labeled", "3")
    assert code == 3
    assert out == ""
    assert err == (
        "error: predicted 23 free trees on 8 vertices exceeds budget 3; "
        "caterpillar fallback: caterpillar search exceeds budget 3 after entering 4 prefixes\n"
    )
    code, out, _ = run(*argv, "--budget-labeled", "4")
    assert code == 0
    assert json.loads(out)["results"]["method"] == "caterpillar"


def test_caterpillar_search_is_capped_by_nodes(run):
    # 12! arrangements, but the seeded search enters 11,224 prefixes.
    argv = ("extremal", "--degseq", "13,12,11,10,9,8,7,6,5,4,3,2,1*68", "--objective", "min")
    code, out, _ = run(*argv)
    assert code == 0
    assert json.loads(out)["results"]["method"] == "caterpillar"
    code, out, err = run(*argv, "--budget-labeled", "11223")
    assert code == 3
    assert out == ""
    assert err == "error: caterpillar search exceeds budget 11223 after entering 11224 prefixes\n"


def test_enumerate_caterpillars_only_respects_budget(run, monkeypatch):
    # 4,3,2 internal: pendant vector (2,1,0) has 3! = 6 arrangements.
    argv = ("enumerate", "--degseq", "4,3,2,1*5", "--caterpillars-only")
    code, out, err = run(*argv, "--budget-labeled", "1")
    assert code == 3
    assert out == ""
    assert "predicted 6 caterpillar arrangements" in err
    monkeypatch.setenv("TREEXTREMAL_BUDGET", "5")
    code, _, err = run(*argv)
    assert code == 3
    assert "predicted 6 caterpillar arrangements exceeds budget 5" in err
    monkeypatch.setenv("TREEXTREMAL_BUDGET", "6")
    code, out, _ = run(*argv)
    assert code == 0
    assert json.loads(out)["results"]["count"] == 3


def test_verify_caterpillar_claims_respect_budget(run):
    for claim in ("thm-3.5", "thm-3.6-shape", "thm-4.1", "thm-4.2"):
        code, out, err = run("verify", claim, "--max-n", "8", "--budget-labeled", "1")
        assert code == 3, claim
        assert out == ""
        # k = 2 needs only the root; the first k = 3 search enters a second
        # prefix.
        assert "caterpillar search exceeds budget 1 after entering 2 prefixes" in err


def test_internal_inconsistency_exit_code(run, monkeypatch):
    from treextremal import extremal

    real = extremal.closed_form_phi
    monkeypatch.setattr(
        extremal, "closed_form_phi", lambda ds: (real(ds)[0] + 1, real(ds)[1])
    )
    code, out, err = run("extremal", "--degseq", "3,2,2,1,1,1", "--objective", "min")
    assert code == 4
    assert out == ""
    assert "closed form disagrees" in err
    assert "Traceback" not in err


def _miscount_recounts(monkeypatch):
    """Make the product DP that recounts each caterpillar winner one too
    high."""
    from treextremal import extremal

    real = extremal._rooted_counts
    monkeypatch.setattr(extremal, "_rooted_counts", lambda order, parent: real(order, parent) + [1])


def test_caterpillar_recount_mismatch_exit_code(run, monkeypatch):
    _miscount_recounts(monkeypatch)
    code, out, err = run(
        "extremal", "--degseq", "4,4,3,3,2,1*8", "--objective", "min", "--method", "caterpillar"
    )
    assert code == 4
    assert out == ""
    assert "count_subtrees" in err
    assert "Traceback" not in err


def test_verify_recount_mismatch_exit_code(run, monkeypatch):
    _miscount_recounts(monkeypatch)
    code, out, err = run("verify", "thm-4.1", "--max-n", "8")
    assert code == 4
    assert out == ""
    assert "count_subtrees" in err
    assert "Traceback" not in err


def test_verify_pass_and_exit_codes(run):
    code, out, _ = run("verify", "thm-4.1", "--max-n", "9")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["status"] == "pass"
    assert doc["results"]["failures"] == []


def test_verify_report_only_exits_zero(run):
    code, out, _ = run("verify", "wiener-correspondence", "--max-n", "6")
    assert code == 0
    assert json.loads(out)["results"]["status"] == "report-only"


def test_verify_zero_cap_is_an_empty_universe(run):
    # A cap of 0 bounds the universe; only an omitted cap takes the default.
    for argv, cap in (
        (("thm-4.1", "--max-n", "0"), ("max_n", 0)),
        (("thm-3.5", "--max-n", "8", "--max-k", "0"), ("max_k", 0)),
    ):
        code, out, _ = run("verify", *argv)
        assert code == 0
        results = json.loads(out)["results"]
        assert results["universe"][cap[0]] == cap[1]
        assert results["instances_checked"] == 0


def test_verify_negative_cap_is_an_input_error(run):
    for argv in (("thm-2.1", "--max-n", "-5"), ("thm-3.5", "--max-k", "-2")):
        code, out, err = run("verify", *argv)
        assert code == 2
        assert out == ""
        assert "must be >= 0" in err


def test_verify_max_k_without_a_k_cap_is_an_input_error(run):
    code, out, err = run("verify", "thm-2.1", "--max-n", "4", "--max-k", "4")
    assert code == 2
    assert out == ""
    assert "thm-2.1 takes no max_k" in err


def test_verify_refuses_over_budget_before_any_work(run, monkeypatch):
    from treextremal import enumeration

    def no_generation(n):
        raise AssertionError("generation started")

    monkeypatch.setattr(enumeration, "free_level_sequences", no_generation)
    code, out, err = run("verify", "thm-2.1", "--max-n", "17")
    assert code == 3
    assert out == ""
    assert "n=17 exceeds full-enumeration cap 16" in err


def test_verify_unknown_claim(run):
    code, _, _ = run("verify", "unknown-claim")
    assert code == 2


def test_output_to_file(run, tmp_path):
    target = tmp_path / "doc.json"
    code, out, _ = run("count", "--caterpillar", "1,0", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["results"]["phi"] == "17"


def test_main_reuses_one_parser(run, tmp_path, monkeypatch):
    f = tmp_path / "p4.txt"
    f.write_text("4\n0 1\n1 2\n2 3\n")
    calls = [
        ("count", str(f)),
        ("extremal", "--degseq", "3,3,1,1"),
        ("verify", "thm-4.1", "--max-n", "6"),
        ("count",),  # rejected by the parser itself
        ("count", str(f)),
    ]
    first = [run(*argv) for argv in calls]
    assert [code for code, _, _ in first] == [0, 2, 0, 2, 0]
    assert "usage:" in first[3][2]
    assert first[4] == first[0]

    def no_rebuild():
        raise AssertionError("main rebuilt its parser")

    monkeypatch.setattr(cli, "build_parser", no_rebuild)
    assert [run(*argv) for argv in calls] == first


def test_byte_identical_reruns(run):
    first = run("enumerate", "--degseq", "4,3,3,2,1*6")
    second = run("enumerate", "--degseq", "4,3,3,2,1*6")
    assert first == second
    v1 = run("verify", "thm-3.5", "--max-n", "9")
    v2 = run("verify", "thm-3.5", "--max-n", "9")
    assert v1 == v2


def test_out_of_memory_is_exit_3_without_a_traceback(run, monkeypatch):
    def exhausted(y):
        raise MemoryError

    monkeypatch.setattr(cli, "caterpillar_build", exhausted)
    code, out, err = run("count", "--caterpillar", "100000000")
    assert (code, out, err) == (3, "", "error: out of memory\n")


def _failing_report(*_):
    from treextremal.verify import FAIL, VerificationReport

    failures = [
        {"degree_sequence": [3, 3, 1, 1, 1, 1], "witnesses": ["(()())", "((()))"],
         "expected": "all minimizers are caterpillars", "observed": "1 non-caterpillar minimizer(s)"},
        {"degree_sequence": [], "witnesses": [], "expected": "", "observed": "é\"\\"},
    ]
    findings = {"table": [[1, "2"], []], "empty": {}, "nested": {"k": {"x": None, "y": True}},
                "ratio": "3/4", "count": 0}
    return VerificationReport("thm-2.1", {"max_n": 6}, 7, failures, FAIL, findings)


WRITER_COMMANDS = {
    "count-file": lambda tmp: ("count", _edge_file(tmp, 40, _broom_edges(40, 12))),
    "count-caterpillar": lambda tmp: ("count", "--caterpillar", "6,0,1,1,1"),
    "count-odd-file-name": lambda tmp: ("count", _named_file(tmp, 'trée "φ" \\ 1.txt')),
    "extremal-edges": lambda tmp: (
        "extremal", "--degseq", "3,2,2,2,1,1,1", "--objective", "max", "--method", "brute"
    ),
    "extremal-caterpillar": lambda tmp: ("extremal", "--degseq", "4,3,3,2,1*6"),
    "enumerate": lambda tmp: ("enumerate", "--degseq", "3,3,2,2,1*4"),
    "verify-failures-findings": lambda tmp: ("verify", "thm-2.1", "--max-n", "6"),
    "verify-findings": lambda tmp: ("verify", "wiener-correspondence", "--max-n", "6"),
}


def _named_file(tmp_path, name) -> str:
    f = tmp_path / name
    f.write_text("3\n0 1\n1 2\n")
    return str(f)


@pytest.mark.parametrize("name", sorted(WRITER_COMMANDS))
def test_writer_bytes_are_json_dumps_indent_2(run, tmp_path, monkeypatch, name):
    if "failures" in name:
        monkeypatch.setattr(cli, "run_claim", _failing_report)
    code, out, err = run(*WRITER_COMMANDS[name](tmp_path))
    assert code == (1 if "failures" in name else 0), err
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


@pytest.mark.parametrize(
    "value",
    [
        {},
        [],
        {"a": [], "b": {}, "c": [[]], "d": [{}], "e": ()},
        cli._Digits(),
        {"per_vertex": cli._Digits(["7", "12", "10"]), "n": 3},
        [cli._Digits(["1"]), cli._Digits()],
        {"s": "é\"\\\n\t\x00", "φ\"\\": ["x"], "n": None, "t": True, "f": False},
        {"a": {"b\n": [[1, 2], {"c": "x\ny", "d": cli._Digits(["5"])}], "e": cli._Digits(["6", "7"])}},
        {1: "int key", 2.5: "float key", True: "bool key", None: "none key"},
        {"big": 2**3000, "neg": -17, "float": 0.1, "tuple": (1, (2, 3))},
        _failing_report().to_payload(),
    ],
)
def test_writer_matches_json_dumps(value):
    assert "".join(cli._json_pieces(value)) == json.dumps(value, indent=2)


def _all_pairs_diameter(t):
    """The largest eccentricity, from a BFS at every vertex."""
    return max(max(bfs(t, v)[2]) for v in range(t.n))


def _all_pairs_wiener(t):
    return sum(sum(bfs(t, v)[2]) for v in range(t.n)) // 2


def _oracle_containing(t, v):
    """Subtrees through v by subset growth alone: phi(T) minus the subtrees
    of each component of T - v."""
    total = brute_force_count(t)
    for start in t.adjacency[v]:
        side, stack = {start}, [start]
        while stack:
            for w in t.adjacency[stack.pop()]:
                if w != v and w not in side:
                    side.add(w)
                    stack.append(w)
        label = {w: i for i, w in enumerate(sorted(side))}
        total -= brute_force_count(
            Tree(len(side), [(label[a], label[b]) for a, b in t.edges if a in side and b in side])
        )
    return total


def _seeded_trees():
    rng = random.Random(2024)
    yield Tree(1, [])
    yield path_tree(2)
    for n in (3, 5, 8, 12, 40):
        yield path_tree(n)
        yield star_tree(n)
        yield Tree(n, _broom_edges(n, max(2, n // 3)))
    for n in list(range(3, 13)) * 3 + [30, 60, 90]:
        yield prufer_decode([rng.randrange(n) for _ in range(n - 2)], n)


def test_count_fields_match_oracles(run, tmp_path):
    """Every field of a count document is read off one rooted traversal
    (the diameter off one more BFS). Each is held against the public function for it and against a route
    that shares none of its code: all-pairs BFS and, for n <= 12, subset
    growth."""
    for t in _seeded_trees():
        code, out, _ = run("count", _edge_file(tmp_path, t.n, t.edges))
        assert code == 0
        results = json.loads(out)["results"]
        per_vertex = [int(x) for x in results["per_vertex"]]
        assert results["diameter"] == diameter(t) == _all_pairs_diameter(t)
        assert int(results["wiener"]) == wiener_index(t) == _all_pairs_wiener(t)
        assert per_vertex == count_all_containing(t)
        assert int(results["phi"]) == count_subtrees(t)
        if t.n <= 12:
            assert int(results["phi"]) == brute_force_count(t)
            assert per_vertex == [_oracle_containing(t, v) for v in range(t.n)]


def test_exit_codes_reach_the_shell():
    """`python -m treextremal` passes main's exit code to the process."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    for argv, code, field, value in (
        (["count", "--caterpillar", "1,0"], 0, "phi", "17"),
        # A 1,500-vertex spine: the caterpillar search does not recurse.
        (["extremal", "--degseq", "2*1500,1*2"], 0, "optimum", str(1502 * 1503 // 2)),
        (["extremal", "--degseq", "3,3,1"], 2, None, None),
        (["extremal", "--degseq", "3,2,2,1,1,1", "--method", "brute", "--budget-labeled", "1"],
         3, None, None),
    ):
        done = subprocess.run(
            [sys.executable, "-m", "treextremal", *argv], env=env, capture_output=True, text=True
        )
        assert done.returncode == code, (argv, done.stderr)
        if code:
            assert done.stderr.startswith("error: ")
        else:
            assert done.stderr == ""
            assert json.loads(done.stdout)["results"][field] == value


def test_default_output_does_not_depend_on_the_hash_seed():
    """Default output is byte-identical across runs, whatever the seed of
    str hashing: set and dict order never reach it."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    for argv in (
        ["verify", "wiener-correspondence"],
        ["enumerate", "--degseq", "4,4,3,3,3,2,2,1*9"],  # 508 trees, coded by canonical_form
        ["extremal", "--degseq", "3,3,3,3,1*6", "--objective", "max"],  # no caterpillar wins
        ["count", "--caterpillar", "3,0,2"],
    ):
        outputs = []
        for seed in ("0", "1"):
            done = subprocess.run(
                [sys.executable, "-m", "treextremal", *argv],
                env=dict(env, PYTHONHASHSEED=seed), capture_output=True, text=True,
            )
            assert done.returncode == 0, (argv, done.stderr)
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1], argv


@pytest.fixture
def int_digit_cap():
    """Set CPython's cap on int-to-decimal conversion (3.10.7+, 3.11+) inside
    a test; the cap found before is put back after."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no cap on int-to-decimal conversion")
    before = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(before)


def test_counts_past_the_int_digit_cap_are_written_in_full(run, int_digit_cap):
    # K_{1,15001}: phi = 2^15001 + 15001 has 4,516 digits, past the default
    # cap of 4,300, which once made both commands exit 2.
    int_digit_cap(4300)
    code, out, err = run("extremal", "--degseq", "15001,1*15001")
    assert (code, err) == (0, "")
    optimum = json.loads(out)["results"]["optimum"]
    code, out, err = run("enumerate", "--degseq", "15001,1*15001", "--caterpillars-only")
    assert (code, err) == (0, "")
    (row,) = json.loads(out)["results"]["trees"]
    assert sys.get_int_max_str_digits() == 4300
    int_digit_cap(0)
    exact = str(2**15001 + 15001)
    assert len(exact) == 4516
    assert optimum == row["phi"] == exact


def test_main_leaves_the_callers_int_digit_cap(run, int_digit_cap):
    for cap in (0, 640, 5000):
        int_digit_cap(cap)
        for argv, code in (
            (("count", "--caterpillar", "1,0"), 0),
            (("extremal", "--degseq", "3,3,1"), 2),  # refused inside the command
            (("count",), 2),  # refused by the parser
        ):
            assert run(*argv)[0] == code
            assert sys.get_int_max_str_digits() == cap, (cap, argv)
