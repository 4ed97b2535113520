import json

import pytest

from treextremal.cli import main


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


def test_count_malformed_file(run, tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("nonsense\n")
    code, _, err = run("count", str(f))
    assert code == 2
    assert "error" in err


def test_count_missing_file(run, tmp_path):
    code, _, err = run("count", str(tmp_path / "absent.txt"))
    assert code == 2


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
        assert "caterpillar arrangements exceeds budget 1" in err


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


def test_caterpillar_recount_mismatch_exit_code(run, monkeypatch):
    from treextremal import extremal

    real = extremal.caterpillar_phi
    monkeypatch.setattr(extremal, "caterpillar_phi", lambda y: real(y) + 1)
    code, out, err = run(
        "extremal", "--degseq", "4,4,3,3,2,1*8", "--objective", "min", "--method", "caterpillar"
    )
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


def test_verify_unknown_claim(run):
    code, _, _ = run("verify", "unknown-claim")
    assert code == 2


def test_output_to_file(run, tmp_path):
    target = tmp_path / "doc.json"
    code, out, _ = run("count", "--caterpillar", "1,0", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["results"]["phi"] == "17"


def test_byte_identical_reruns(run):
    first = run("enumerate", "--degseq", "4,3,3,2,1*6")
    second = run("enumerate", "--degseq", "4,3,3,2,1*6")
    assert first == second
    v1 = run("verify", "thm-3.5", "--max-n", "9")
    v2 = run("verify", "thm-3.5", "--max-n", "9")
    assert v1 == v2
