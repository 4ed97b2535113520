"""Seeded workloads, answer digests and answer checks.

Each workload turns a seed into a population of queries. The timed stream
runs the population in rounds: every round is a fresh seeded shuffle of the
whole population, and a run ends at the first round boundary after the
requested seconds (and after enough rounds that the tail percentile has at
least ten samples beyond it). Whole rounds keep the query mix, and so every
timing, the same from run to run; the seed changes the inputs and their
order.

Why these four workloads:

* realizations - every tree degree sequence with 8 <= n <= 11, k >= 2 and
  at most 5,000 labeled Pruefer words, each asked for its maximum (auto,
  which resolves to full enumeration) and its brute-force minimum. Time
  goes to Pruefer decode, Tree validation and canonical dedupe.
* caterpillars - one internal-degree multiset per multiplicity pattern of
  k = 3..9 internal vertices over the degrees 2..6 (79 patterns, up to
  22,680 arrangements); the seed picks which degrees fill each pattern,
  among the fillings with the pattern's median n.
  Each is asked for its minimum (auto) and its caterpillar maximum. Time
  goes to caterpillar_build, Tree and count_subtrees.
* sweep - run_claim on every claim id along a ladder of caps up to its
  default and, where that costs under a second, past it.
* counting - ``treextremal count FILE --out FILE`` through cli.main, on
  seeded trees of four shapes with n log-spaced over 100..2,000.
  The only workload with large trees and real Wiener-index work.

The program receives only the generated inputs: DegreeSequence objects,
claim ids with caps, and edge-list files.
"""

import hashlib
import itertools
import json
import math
import os
import random
from collections import deque
from dataclasses import dataclass

# Realizations: the labeled-word cap keeps one round of the population near
# four seconds, so a run holds several whole rounds.
REALIZATION_N = (8, 11)
REALIZATION_MAX_WORDS = 5_000

CATERPILLAR_K = (3, 9)
CATERPILLAR_DEGREES = (2, 3, 4, 5, 6)

# Caps per claim. thm-2.1, eq-2.1-monotonic and wiener-correspondence stop
# at their default cap of 9: n = 10 costs about 5 s per claim, longer than a
# whole round of everything else. The long ladders step by two so that the
# three n = 9 sweeps are more than 5% of a round and the p95 falls among
# them, not on the step below them.
SWEEP_LADDERS = {
    "thm-2.1": range(4, 10),
    "eq-2.1-monotonic": range(4, 10),
    "wiener-correspondence": range(4, 10),
    "thm-3.5": range(6, 17, 2),
    "thm-3.6-shape": range(6, 17, 2),
    "thm-4.1": range(8, 21, 2),
    "thm-4.2": range(8, 21, 2),
}

COUNTING_N = (100, 2000)
COUNTING_SHAPES = ("pruefer", "caterpillar", "path", "broom")
COUNTING_SIZES = 13  # two trees each: 26 trees per round

BRUTE_FORCE_MAX_N = 20  # the oracle's own guard

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


@dataclass
class Query:
    key: str  # identifies the question; equal keys must get equal answers
    fn: object
    args: tuple
    context: object = None  # what the checker needs (degree tuple, edges, claim)


# ---------------------------------------------------------------------------
# Input generation (the benchmark's own code; nothing here calls the package)
# ---------------------------------------------------------------------------


def partitions(total: int, parts: int, largest: int | None = None):
    """Partitions of total into exactly `parts` positive parts, nonincreasing."""
    largest = total if largest is None else largest
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(min(total - parts + 1, largest), 0, -1):
        if first * parts < total:
            break
        for rest in partitions(total - first, parts - 1, first):
            yield (first,) + rest


def tree_degree_sequences(n: int, k: int):
    """Tree degree sequences of order n with k internal vertices: d - 1 over
    the internal vertices is a partition of n - 2 into k parts."""
    for p in partitions(n - 2, k):
        yield tuple(x + 1 for x in p) + (1,) * (n - k)


def labeled_words(degrees: tuple[int, ...]) -> int:
    words = math.factorial(len(degrees) - 2)
    for d in degrees:
        words //= math.factorial(d - 1)
    return words


def realization_universe() -> list[tuple[int, ...]]:
    lo, hi = REALIZATION_N
    return [
        degs
        for n in range(lo, hi + 1)
        for k in range(2, n - 1)
        for degs in tree_degree_sequences(n, k)
        if labeled_words(degs) <= REALIZATION_MAX_WORDS
    ]


def multiplicity_patterns(k: int, max_parts: int):
    for parts_ in range(1, max_parts + 1):
        yield from partitions(k, parts_)


def caterpillar_degrees(internal) -> tuple[int, ...]:
    internal = sorted(internal, reverse=True)
    n = 2 + sum(d - 1 for d in internal)
    return tuple(internal) + (1,) * (n - len(internal))


def caterpillar_population(rng: random.Random) -> list[tuple[int, ...]]:
    """One multiset per multiplicity pattern. The seed fills each pattern
    with distinct degrees, choosing among the fillings whose vertex count is
    the pattern's median: cost per arrangement grows with n, so this keeps
    the cost of a round the same for every seed."""
    lo, hi = CATERPILLAR_K
    out = []
    for k in range(lo, hi + 1):
        for pattern in multiplicity_patterns(k, len(CATERPILLAR_DEGREES)):
            fillings = sorted({
                caterpillar_degrees([v for v, m in zip(values, pattern) for _ in range(m)])
                for values in itertools.permutations(CATERPILLAR_DEGREES, len(pattern))
            })
            sizes = sorted(len(f) for f in fillings)
            median = sizes[len(sizes) // 2]
            out.append(rng.choice([f for f in fillings if len(f) == median]))
    return out


def caterpillar_universe() -> list[tuple[int, ...]]:
    lo, hi = CATERPILLAR_K
    return [
        caterpillar_degrees(ms)
        for k in range(lo, hi + 1)
        for ms in itertools.combinations_with_replacement(CATERPILLAR_DEGREES, k)
    ]


def sweep_pairs() -> list[tuple[str, int]]:
    return [(claim, n) for claim, ladder in SWEEP_LADDERS.items() for n in ladder]


def counting_sizes(rng: random.Random) -> list[tuple[str, int]]:
    """(shape, n) pairs: two trees of different shapes at each of
    COUNTING_SIZES log-spaced sizes, the shapes taken in turn from a seeded
    order. Fixed sizes keep the O(n^2) cost of a round the same for every
    seed, and an odd number of sizes puts the median and the p90 inside a
    pair of equal n rather than on the step between two sizes."""
    lo, hi = COUNTING_N
    shapes = list(COUNTING_SHAPES)
    rng.shuffle(shapes)
    out = []
    for j in range(COUNTING_SIZES):
        n = round(lo * (hi / lo) ** ((j + 0.5) / COUNTING_SIZES))
        out += [(shapes[(2 * j) % len(shapes)], n), (shapes[(2 * j + 1) % len(shapes)], n)]
    return out


def make_tree(shape: str, n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Edges of a seeded tree of the given shape, with shuffled labels."""
    if shape == "pruefer":
        edges = _decode([rng.randrange(n) for _ in range(n - 2)], n)
    elif shape == "caterpillar":
        spine = rng.randint(2, n // 2)
        edges = [(i, i + 1) for i in range(spine - 1)]
        edges += [(rng.randrange(spine), v) for v in range(spine, n)]
    elif shape == "path":
        edges = [(i, i + 1) for i in range(n - 1)]
    elif shape == "broom":
        handle = rng.randint(n // 4, (3 * n) // 4)
        edges = [(i, i + 1) for i in range(handle - 1)]
        edges += [(handle - 1, v) for v in range(handle, n)]
    else:
        raise ValueError(f"unknown shape {shape!r}")
    label = list(range(n))
    rng.shuffle(label)
    return [(label[u], label[v]) for u, v in edges]


def _decode(word: list[int], n: int) -> list[tuple[int, int]]:
    """Pruefer decode in linear time (pointer walk, no heap)."""
    degree = [1] * n
    for a in word:
        degree[a] += 1
    edges = []
    ptr = 0
    while degree[ptr] != 1:
        ptr += 1
    leaf = ptr
    for a in word:
        edges.append((leaf, a))
        degree[a] -= 1
        if degree[a] == 1 and a < ptr:
            leaf = a
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    edges.append((leaf, n - 1))
    return edges


def edge_list_text(n: int, edges) -> str:
    return f"{n}\n" + "".join(f"{u} {v}\n" for u, v in edges)


# ---------------------------------------------------------------------------
# Workload definitions
# ---------------------------------------------------------------------------


class Workload:
    """A seeded query population, its warm-up query and its answer checks.

    ``tail`` is the latency percentile reported: the highest of p90, p95
    and p99 that leaves at least ten samples beyond it in a run of the
    committed length."""

    name = ""
    tail = 95

    def __init__(self, tx, workdir: str):
        self.tx = tx  # the imported treextremal package
        self.workdir = workdir

    def warmup(self) -> None:
        raise NotImplementedError

    def population(self, rng: random.Random) -> list[list[Query]]:
        """Groups of queries; a group is issued back to back."""
        raise NotImplementedError

    def digest(self, query: Query, result) -> str:
        raise NotImplementedError

    def check(self, query: Query, result) -> str | None:
        """Seed-independent invariants; an error message or None."""
        raise NotImplementedError


class _ExtremalWorkload(Workload):
    def digest(self, query, result):
        return extremal_digest(result)

    def check(self, query, result):
        return check_extremal(self.tx, query.context, result)


class Realizations(_ExtremalWorkload):
    name = "realizations"

    def warmup(self):
        self.tx.find_min_subtrees(self.tx.degree_sequence((3, 2, 2, 1, 1, 1)), method="brute")

    def population(self, rng):
        tx = self.tx
        return [realization_queries(tx, d, tx.degree_sequence(d)) for d in realization_universe()]


def degrees_key(degs) -> str:
    """A degree sequence in the package's own grammar: "3,3,2,1*5"."""
    internal = [d for d in degs if d > 1]
    return ",".join(map(str, internal + [f"1*{len(degs) - len(internal)}"]))


def realization_queries(tx, degs, ds) -> list[Query]:
    # Package functions are looked up at call time, so a traced run sees
    # the traced versions.
    key = degrees_key(degs)
    return [
        Query(f"max:{key}", lambda d: tx.find_max_subtrees(d), (ds,), degs),
        Query(f"min-brute:{key}", lambda d: tx.find_min_subtrees(d, method="brute"), (ds,), degs),
    ]


class Caterpillars(_ExtremalWorkload):
    name = "caterpillars"

    def warmup(self):
        self.tx.find_min_subtrees(self.tx.degree_sequence((3, 3, 3, 1, 1, 1, 1, 1)))

    def population(self, rng):
        tx = self.tx
        return [caterpillar_queries(tx, d, tx.degree_sequence(d)) for d in caterpillar_population(rng)]


def caterpillar_queries(tx, degs, ds) -> list[Query]:
    key = degrees_key(degs)
    return [
        Query(f"min:{key}", lambda d: tx.find_min_subtrees(d), (ds,), degs),
        Query(f"max-caterpillar:{key}", lambda d: tx.find_max_subtrees(d, method="caterpillar"), (ds,), degs),
    ]


class Sweep(Workload):
    name = "sweep"

    def warmup(self):
        self.tx.run_claim("thm-4.1", 8)

    def population(self, rng):
        return [[sweep_query(self.tx, claim, n)] for claim, n in sweep_pairs()]

    def digest(self, query, result):
        return claim_digest(result)

    def check(self, query, result):
        return check_claim(query.context, result)


def sweep_query(tx, claim, n) -> Query:
    return Query(f"{claim}@{n}", lambda c, m: tx.run_claim(c, m), (claim, n), (claim, n))


class Counting(Workload):
    name = "counting"
    tail = 90

    def __init__(self, tx, workdir):
        super().__init__(tx, workdir)
        from treextremal import cli

        self.cli = cli

    def warmup(self):
        path = os.path.join(self.workdir, "warmup.txt")
        with open(path, "w") as fh:
            fh.write(edge_list_text(4, [(0, 1), (1, 2), (1, 3)]))
        code = self.cli.main(["count", path, "--out", path + ".json"])
        if code != 0:
            raise RuntimeError(f"warm-up count exited {code}")

    def population(self, rng):
        groups = []
        for i, (shape, n) in enumerate(counting_sizes(rng)):
            edges = make_tree(shape, n, rng)
            path = os.path.join(self.workdir, f"tree-{i:02d}-{shape}-{n}.txt")
            with open(path, "w") as fh:
                fh.write(edge_list_text(n, edges))
            out = path[: -len(".txt")] + ".json"
            groups.append([Query(f"count:{os.path.basename(path)}", self._count, (path, out), (n, edges, out))])
        return groups

    def _count(self, path, out):
        code = self.cli.main(["count", path, "--out", out])
        if code != 0:
            raise RuntimeError(f"count exited {code}")
        return out

    def digest(self, query, result):
        with open(result, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()[:20]

    def check(self, query, result):
        n, edges, out = query.context
        with open(out) as fh:
            return check_count(n, edges, json.load(fh))


WORKLOADS = {cls.name: cls for cls in (Realizations, Caterpillars, Sweep, Counting)}


# ---------------------------------------------------------------------------
# Answer digests and checks (own code; none of it goes through the package's
# canonical_form, counting or verify code)
# ---------------------------------------------------------------------------


def short_hash(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:20]


def extremal_digest(report) -> str:
    """The optimum and the sorted isomorphism codes of the optimizers; the
    method, the number of trees examined and the output order are left out."""
    codes = sorted(iso_code(o.tree.n, o.tree.edges) for o in report.optimizers)
    return short_hash([str(report.optimum), codes])


def _adjacency(n: int, edges) -> list[list[int]]:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def iso_code(n: int, edges) -> str:
    """Isomorphism code: AHU strings from the center, or from the central edge
    (as a bracketed pair of half-tree codes) when there are two centers."""
    adj = _adjacency(n, edges)
    degree = [len(a) for a in adj]
    layer = [v for v in range(n) if degree[v] <= 1]
    left = n
    while left > 2:
        left -= len(layer)
        nxt = []
        for v in layer:
            for w in adj[v]:
                degree[w] -= 1
                if degree[w] == 1:
                    nxt.append(w)
        layer = nxt
    if len(layer) == 1:
        return _rooted(adj, layer[0], -1)
    a, b = layer
    return "[" + "".join(sorted((_rooted(adj, a, b), _rooted(adj, b, a)))) + "]"


def _rooted(adj, root: int, blocked: int) -> str:
    order = [root]
    parent = {root: blocked}
    for v in order:
        for w in adj[v]:
            if w != parent[v]:
                parent[w] = v
                order.append(w)
    kids: dict[int, list[str]] = {v: [] for v in order}
    code = ""
    for v in reversed(order):
        code = "(" + "".join(sorted(kids[v])) + ")"
        if v != root:
            kids[parent[v]].append(code)
    return code


def check_extremal(tx, degrees: tuple[int, ...], report) -> str | None:
    """Every optimizer realizes the sequence, optimizers are pairwise
    non-isomorphic, and for n <= 20 the subset-growth oracle agrees with the
    reported optimum."""
    if not report.optimizers:
        return "no optimizer reported"
    codes = set()
    for opt in report.optimizers:
        t = opt.tree
        degs = tuple(sorted((len(a) for a in _adjacency(t.n, t.edges)), reverse=True))
        if degs != degrees:
            return f"optimizer degrees {degs} do not realize {degrees}"
        codes.add(iso_code(t.n, t.edges))
        if t.n <= BRUTE_FORCE_MAX_N and tx.brute_force_count(t) != report.optimum:
            return f"optimum {report.optimum} differs from the oracle count"
    if len(codes) != len(report.optimizers):
        return "isomorphic optimizers reported twice"
    return None


def claim_digest(report) -> str:
    """Status, instances, failure count and the scalar findings; tables and
    orderings are left out."""
    scalars = {k: v for k, v in report.findings.items() if isinstance(v, (int, str))}
    return short_hash([report.status, report.instances_checked, len(report.failures), scalars])


def sequences_in(max_n: int, k_range: tuple[int, int] | None) -> int:
    """Tree degree sequences with 2 <= n <= max_n and k in k_range."""
    total = 0
    for n in range(2, max_n + 1):
        if n == 2:
            total += k_range is None or k_range[0] == 0
            continue
        for k in range(1, n - 1):
            if k_range is None or k_range[0] <= k <= k_range[1]:
                total += sum(1 for _ in partitions(n - 2, k))
    return total


CLAIM_UNIVERSE = {
    "thm-2.1": None,
    "wiener-correspondence": None,
    "thm-3.5": (3, 6),
    "thm-3.6-shape": (3, 6),
    "thm-4.1": (2, 4),
    "thm-4.2": (5, 5),
}


def check_claim(context, report) -> str | None:
    claim, n = context
    expected_status = "report-only" if claim == "wiener-correspondence" else "pass"
    if report.status != expected_status or report.failures:
        return f"{claim}@{n}: status {report.status}, {len(report.failures)} failures"
    if claim in CLAIM_UNIVERSE:
        expected = sequences_in(n, CLAIM_UNIVERSE[claim])
        if report.instances_checked != expected:
            return f"{claim}@{n}: {report.instances_checked} instances, expected {expected}"
    return None


def _rooted_counts(n: int, adj) -> tuple[list[int], list[int], list[int]]:
    parent = [-1] * n
    order = [0]
    seen = [False] * n
    seen[0] = True
    for v in order:
        for w in adj[v]:
            if not seen[w]:
                seen[w] = True
                parent[w] = v
                order.append(w)
    down = [1] * n
    for v in reversed(order):
        if parent[v] >= 0:
            down[parent[v]] *= 1 + down[v]
    return down, order, parent


def check_count(n: int, edges, doc: dict) -> str | None:
    """Recompute every field of a count document from the edges: subtree
    counts by a rooted product and exact-division rerooting, Wiener by the
    edge-cut sum of s(n - s), the diameter by double BFS."""
    results = doc["results"]
    adj = _adjacency(n, edges)
    down, order, parent = _rooted_counts(n, adj)
    per_vertex = [0] * n
    per_vertex[0] = down[0]
    for v in order[1:]:
        p = parent[v]
        outside = per_vertex[p] // (1 + down[v])
        per_vertex[v] = down[v] * (1 + outside)
    size = [1] * n
    for v in reversed(order):
        if parent[v] >= 0:
            size[parent[v]] += size[v]
    wiener = sum(size[v] * (n - size[v]) for v in order[1:])
    internal = [v for v in range(n) if len(adj[v]) >= 2]
    caterpillar = all(sum(1 for w in adj[v] if len(adj[w]) >= 2) <= 2 for v in internal)
    expected = {
        "n": n,
        "phi": str(sum(down)),
        "per_vertex": [str(x) for x in per_vertex],
        "diameter": _diameter(n, adj),
        "is_caterpillar": caterpillar,
        "wiener": str(wiener),
    }
    for field, value in expected.items():
        if results.get(field) != value:
            return f"count field {field!r} is wrong"
    return None


def _diameter(n: int, adj) -> int:
    def far(src):
        dist = [-1] * n
        dist[src] = 0
        queue = deque([src])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if dist[y] < 0:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        v = max(range(n), key=dist.__getitem__)
        return v, dist[v]

    v, _ = far(0)
    return far(v)[1]


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)
