"""Fast tests of the benchmark itself: every workload at toy size prints
every declared metric with its unit, and the answer checker rejects
corrupted answers."""

import json
import os
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

from worker import Outcomes, import_package  # noqa: E402
from workloads import (  # noqa: E402
    Counting,
    Query,
    Realizations,
    check_count,
    edge_list_text,
    extremal_digest,
    load_reference,
    make_tree,
    realization_queries,
    realization_universe,
)

tx = import_package()

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", "11", "--seconds", "0", "--trace", str(trace), "--toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_toy_run_prints_every_metric_with_its_unit(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert isinstance(printed["value"], (int, float))


def _outcomes_failed(workload, query, result) -> int:
    outcomes = Outcomes(workload, load_reference().get(workload.name))
    outcomes.record(query, result, None)
    return outcomes.failed()


def _small_queries():
    degs = realization_universe()[0]
    return realization_queries(tx, degs, tx.degree_sequence(degs))


def test_checker_accepts_true_answers():
    workload = Realizations(tx, ROOT)
    for query in _small_queries():
        assert _outcomes_failed(workload, query, query.fn(*query.args)) == 0


def test_checker_rejects_optimum_off_by_one():
    workload = Realizations(tx, ROOT)
    query = _small_queries()[0]
    report = query.fn(*query.args)
    report.optimum += 1
    assert workload.check(query, report) is not None
    assert _outcomes_failed(workload, query, report) == 1


def test_checker_rejects_dropped_tied_optimizer():
    # Two non-isomorphic realizations of one sequence with equal counts,
    # reported as tied optimizers; no query of the workloads has ties.
    degs = (4, 3, 2, 2, 2, 1, 1, 1, 1, 1)
    edge_sets = (
        [(0, 1), (0, 5), (0, 6), (0, 7), (1, 2), (1, 3), (2, 8), (3, 4), (4, 9)],
        [(0, 1), (0, 2), (0, 5), (0, 6), (1, 3), (1, 7), (2, 8), (3, 4), (4, 9)],
    )
    trees = [tx.Tree(10, e) for e in edge_sets]
    optimizers = [tx.Optimizer(t, tx.canonical_form(t), None) for t in trees]
    ds = tx.degree_sequence(degs)
    report = tx.ExtremalReport(ds, "max-subtrees", 128, optimizers, "brute", 2)
    query = Query("tied", None, (), degs)
    workload = Realizations(tx, ROOT)
    reference = {"tied": extremal_digest(report)}

    def failed(result):
        outcomes = Outcomes(workload, reference)
        outcomes.record(query, result, None)
        return outcomes.failed()

    assert failed(report) == 0
    del report.optimizers[1]
    assert failed(report) == 1


def test_checker_rejects_wrong_wiener(tmp_path):
    import random

    from treextremal import cli

    n = 150
    edges = make_tree("pruefer", n, random.Random(3))
    path = tmp_path / "tree.txt"
    path.write_text(edge_list_text(n, edges))
    out = tmp_path / "tree.json"
    assert cli.main(["count", str(path), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert check_count(n, edges, doc) is None
    doc["results"]["wiener"] = str(int(doc["results"]["wiener"]) + 2)
    assert "wiener" in check_count(n, edges, doc)
    out.write_text(json.dumps(doc))
    workload = Counting(tx, str(tmp_path))
    query = Query("count:tree.txt", None, (), (n, edges, str(out)))
    assert _outcomes_failed(workload, query, str(out)) == 1
