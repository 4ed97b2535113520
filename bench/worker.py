"""One workload in a fresh process: import, warm up, run the timed stream,
check every answer, print the result as one JSON line.

Started by run.py, never by hand. Protocol on stdout: a line ``READY`` once
the package is imported and the warm-up query has been answered (the parent
times set-up up to that line), then, unless ``--probe`` is given, the
result line.
"""

import argparse
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")


def import_package():
    sys.path.insert(0, SRC)
    import treextremal

    if os.path.dirname(os.path.dirname(os.path.abspath(treextremal.__file__))) != SRC:
        raise ImportError(f"treextremal imported from {treextremal.__file__}, not {SRC}")
    return treextremal


class Outcomes:
    """Per query key: attempts, answers that differ from the first answer,
    and the first answer for the invariant checks that run after timing."""

    def __init__(self, workload, reference: dict | None):
        self.workload = workload
        self.reference = reference
        self.first: dict[str, tuple] = {}
        self.digest: dict[str, str] = {}
        self.attempts: dict[str, int] = {}
        self.bad: dict[str, int] = {}
        self.errors: list[str] = []

    def record(self, query, result, exc) -> None:
        key = query.key
        self.attempts[key] = self.attempts.get(key, 0) + 1
        if exc is not None:
            self.bad[key] = self.bad.get(key, 0) + 1
            self.errors.append(f"{key}: {type(exc).__name__}: {exc}")
            return
        digest = self.workload.digest(query, result)
        if key not in self.first:
            self.first[key] = (query, result)
            self.digest[key] = digest
        elif digest != self.digest[key]:
            self.bad[key] = self.bad.get(key, 0) + 1
            self.errors.append(f"{key}: answer changed between repeats")

    def failed(self) -> int:
        """Failed attempts; a wrong first answer fails every attempt of its key."""
        total = 0
        for key, attempts in self.attempts.items():
            problem = None
            if key in self.first:
                query, result = self.first[key]
                problem = self.workload.check(query, result)
                if problem is None and self.reference is not None:
                    expected = self.reference.get(key)
                    if expected is None:
                        problem = "no reference digest"
                    elif expected != self.digest[key]:
                        problem = "digest differs from the reference"
            if problem is not None:
                self.errors.append(f"{key}: {problem}")
                total += attempts
            else:
                total += self.bad.get(key, 0)
        return total


def min_rounds(tail: int, per_round: int) -> int:
    """Rounds needed for at least ten samples beyond the tail percentile."""
    needed = math.ceil(10 / (1 - tail / 100)) + 1
    return max(1, math.ceil(needed / per_round))


def run_stream(groups, rng, seconds, rounds_needed, outcomes, call, shadow=None):
    """Closed loop, one client: each query starts when the previous returns.

    Rounds are drawn until the deadline has passed and at least
    rounds_needed were run. With shadow (an Outcomes), every query is run a
    second time, untraced, right after the first; returns the latencies of
    both runs."""
    latencies, shadow_latencies = [], []
    rounds = 0
    start = perf_counter()
    deadline = start + seconds
    while rounds < rounds_needed or perf_counter() < deadline:
        order = list(range(len(groups)))
        rng.shuffle(order)
        for gi in order:
            for query in groups[gi]:
                latencies.append(_timed(call, query, outcomes))
                if shadow is not None:
                    shadow_latencies.append(_timed(_direct, query, shadow))
        rounds += 1
    return perf_counter() - start, rounds, latencies, shadow_latencies


def _timed(call, query, outcomes) -> float:
    t0 = perf_counter()
    try:
        result, exc = call(query.fn, *query.args), None
    except Exception as err:  # a failed query is counted, not fatal
        result, exc = None, err
    latency = perf_counter() - t0
    outcomes.record(query, result, exc)
    return latency


def _direct(fn, *args):
    return fn(*args)


def percentile(values, p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(wall, latencies, failed, tail) -> dict:
    attempted = len(latencies)
    return {
        "throughput_qps": (attempted / wall, "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_tail_ms": (percentile(latencies, tail) * 1e3, "ms"),
        "success_rate": (1 - failed / attempted, "ratio"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def per_layer(tracer, traced_s, untraced_s) -> dict:
    from workloads import SWEEP_LADDERS

    m = {}

    def calls(name):
        m[f"{name}.calls"] = (tracer.metric(name, "calls"), "count")

    def self_s(name):
        m[f"{name}.self_s"] = (tracer.metric(name, "self_s"), "s")

    for name in ("prufer.prufer_decode", "trees.Tree", "canonical.canonical_form"):
        calls(name)
        self_s(name)
    words = tracer.pair("enumeration.enumerate_trees", "prufer.prufer_decode")
    trees = tracer.metric("enumeration.enumerate_trees", "yields")
    self_s("enumeration.enumerate_trees")
    m["enumeration.labeled_words"] = (words, "count")
    m["enumeration.trees_yielded"] = (trees, "count")
    m["enumeration.tree_yield_ratio"] = (_ratio(trees, words), "ratio")
    cats = tracer.metric("enumeration.enumerate_caterpillars", "yields")
    self_s("enumeration.enumerate_caterpillars")
    m["enumeration.caterpillar_arrangements"] = (tracer.arrangements, "count")
    m["enumeration.caterpillars_yielded"] = (cats, "count")
    m["enumeration.caterpillar_yield_ratio"] = (_ratio(cats, tracer.arrangements), "ratio")
    calls("caterpillars.caterpillar_build")
    self_s("caterpillars.caterpillar_build")
    for name in ("counting.count_subtrees", "counting.wiener_index"):
        calls(name)
        self_s(name)
    for name in (
        "counting.count_all_containing", "trees.tree_from_edge_list", "trees.diameter",
        "cli.main", "extremal.find_min_subtrees", "extremal.find_max_subtrees",
    ):
        self_s(name)
    for method in ("brute", "caterpillar", "closed-form"):
        m[f"extremal.reports_by_method.{method}"] = (tracer.reports_by_method.get(method, 0), "count")
    calls("extremal.branch_shift")
    self_s("extremal.branch_shift")
    self_s("verify.run_claim")
    for claim in SWEEP_LADDERS:
        m[f"verify.{claim}.wall_s"] = (tracer.claim_wall_s.get(claim, 0.0), "s")
    self_s("enumeration.enumerate_degree_sequences")
    for layer, seconds in tracer.layer_self_s().items():
        m[f"layer.{layer}.self_s"] = (seconds, "s")
    m["trace.overhead_frac"] = (traced_s / untraced_s - 1, "ratio")
    return m


def _ratio(useful: int, attempts: int) -> float:
    """Useful outcomes per candidate generated; with no candidates generated
    (a generator that makes only useful ones) nothing was wasted."""
    if attempts:
        return useful / attempts
    return 1.0 if useful else 0.0


# Toy runs (the benchmark's own tests) keep this many query groups and one round.
TOY_GROUPS = 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--toy", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, BENCH_DIR)
    tx = import_package()
    from workloads import WORKLOADS, load_reference

    workdir = os.path.join(ROOT, ".bench_run", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](tx, workdir)
        workload.warmup()
        print("READY", flush=True)
        if args.probe:
            return 0
        return _measure(args, workload, load_reference().get(args.workload))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, workload, reference) -> int:
    rng = random.Random(args.seed)
    groups = workload.population(rng)
    if args.toy:
        groups = groups[:TOY_GROUPS]
    per_round = sum(len(g) for g in groups)
    rounds_needed = 1 if args.toy else min_rounds(workload.tail, per_round)
    outcomes = [Outcomes(workload, reference)]

    if args.trace:
        from tracing import Tracer

        # Each query also runs untraced right after its traced run, so the
        # tracing overhead is measured on the same queries at the same time.
        outcomes.append(Outcomes(workload, reference))
        tracer = Tracer()
        tracer.install()
        try:
            _, rounds, latencies, untraced = run_stream(
                groups, rng, args.seconds, rounds_needed, outcomes[0], tracer.query, outcomes[1]
            )
        finally:
            tracer.uninstall()
        metrics = per_layer(tracer, sum(latencies), sum(untraced))
        spans_path = os.path.join(ROOT, ".bench_run", f"spans-{args.workload}-seed{args.seed}.tsv")
        tracer.write_spans(spans_path)
        print(f"spans: {os.path.relpath(spans_path, ROOT)}", file=sys.stderr)
        attempted = len(latencies) + len(untraced)
        failed = sum(o.failed() for o in outcomes)
    else:
        wall, rounds, latencies, _ = run_stream(
            groups, rng, args.seconds, rounds_needed, outcomes[0], _direct
        )
        attempted = len(latencies)
        failed = outcomes[0].failed()
        metrics = end_to_end(wall, latencies, failed, workload.tail)
    for o in outcomes:
        for line in o.errors[:20]:
            print(f"failed: {line}", file=sys.stderr)
    tail = percentile(latencies, workload.tail)
    info = {
        "workload": args.workload,
        "rounds": rounds,
        "queries_per_round": per_round,
        "tail_percentile": workload.tail,
        "samples_beyond_tail": sum(1 for x in latencies if x > tail),
    }
    print(json.dumps({
        "info": info,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
