"""The treextremal benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: realizations, caterpillars, sweep, counting (see workloads.py for
what each one stresses and why). Standard library only; the package is
imported from ``src/`` next to this directory, so nothing needs installing.

Each workload runs in a fresh child process (bench/worker.py), one process
at a time and single-threaded: a closed loop with one client, checking every
answer. Set-up time is the median over several fresh processes, each timed
from spawn until the package is imported and one warm-up query answered.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones (throughput, median and tail latency,
success rate, set-up time, peak RSS); with ``--trace 1`` they are the
per-layer ones from a traced run (see tracing.py), and the span log is
written under ``.bench_run/``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

from workloads import WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKER = os.path.join(BENCH_DIR, "worker.py")

SETUP_PROBES = 8  # plus the workload process itself
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def _worker_cmd(args, probe: bool) -> list[str]:
    cmd = [
        sys.executable, "-I", WORKER,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if probe:
        cmd.append("--probe")
    if args.toy:
        cmd.append("--toy")
    return cmd


def _start(cmd) -> tuple[subprocess.Popen, float]:
    """Spawn a worker and wait for its READY line; returns the set-up time."""
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = perf_counter() - t0
    if line.strip() != "READY":
        _finish(proc)
        raise BenchError(f"worker did not start (exit {proc.returncode})")
    return proc, setup


def _finish(proc: subprocess.Popen) -> str:
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker timed out") from None
    return out


def run(args) -> dict:
    if not os.path.isfile(os.path.join(ROOT, "src", "treextremal", "__init__.py")):
        raise BenchError("src/treextremal not found next to the benchmark")
    setups = []
    # The first process also writes the bytecode cache; it is not timed.
    for i in range(SETUP_PROBES + 1):
        proc, setup = _start(_worker_cmd(args, probe=True))
        _finish(proc)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe exited {proc.returncode}")
        if i:
            setups.append(setup)
    proc, setup = _start(_worker_cmd(args, probe=False))
    setups.append(setup)
    out = _finish(proc)
    if proc.returncode != 0:
        raise BenchError(f"workload process exited {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    if not args.trace:
        metrics = result["metrics"]
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        order = ("throughput_qps", "latency_p50_ms", "latency_tail_ms",
                 "success_rate", "setup_s", "peak_rss_mib")
        result["metrics"] = {k: metrics[k] for k in order}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="three query groups, one round (tests)")
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    info = result.pop("info")
    print(f"workload {info['workload']}: {info['rounds']} rounds of "
          f"{info['queries_per_round']} queries, tail = p{info['tail_percentile']} "
          f"with {info['samples_beyond_tail']} samples beyond it")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
