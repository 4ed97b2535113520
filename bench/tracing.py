"""Span tracer that wraps the package's layer functions from outside.

Spans are recorded at the boundaries where one module calls into another:
every traced function is replaced in each ``treextremal`` module that binds
it, so a call from ``enumeration`` into ``prufer_decode`` or from
``caterpillars`` into ``Tree`` opens a span. Constructors are traced by
wrapping ``__init__`` / ``__post_init__`` on the class. Generators are timed
one ``next()`` at a time, so the self time of ``enumerate_trees`` excludes
the decode and canonical-form work it triggers.

Self time is accumulated online (a span's duration minus the time its child
spans cover); the spans themselves, up to ``SPAN_LOG_LIMIT``, are kept in
memory and written out by ``write_spans`` when the run ends.
"""

import importlib
import sys
from time import perf_counter

# Beyond this many spans only the aggregates are kept; a traced run of the
# realizations workload opens several million spans.
SPAN_LOG_LIMIT = 100_000

# (module, attribute, span name, kind). kind: "call", "gen" (generator timed
# per next()), "init" (class whose __init__ is wrapped), "post" (dataclass
# whose __post_init__ is wrapped).
TRACED = (
    ("trees", "Tree", "trees.Tree", "init"),
    ("trees", "tree_from_edge_list", "trees.tree_from_edge_list", "call"),
    ("trees", "diameter", "trees.diameter", "call"),
    ("trees", "is_caterpillar", "trees.is_caterpillar", "call"),
    ("degrees", "DegreeSequence", "degrees.DegreeSequence", "post"),
    ("prufer", "prufer_decode", "prufer.prufer_decode", "call"),
    ("canonical", "canonical_form", "canonical.canonical_form", "call"),
    ("caterpillars", "caterpillar_build", "caterpillars.caterpillar_build", "call"),
    ("caterpillars", "caterpillar_from_tree", "caterpillars.caterpillar_from_tree", "call"),
    ("counting", "count_subtrees", "counting.count_subtrees", "call"),
    ("counting", "count_all_containing", "counting.count_all_containing", "call"),
    ("counting", "wiener_index", "counting.wiener_index", "call"),
    ("enumeration", "enumerate_trees", "enumeration.enumerate_trees", "gen"),
    ("enumeration", "enumerate_caterpillars", "enumeration.enumerate_caterpillars", "gen"),
    ("enumeration", "enumerate_degree_sequences", "enumeration.enumerate_degree_sequences", "gen"),
    ("extremal", "find_min_subtrees", "extremal.find_min_subtrees", "call"),
    ("extremal", "find_max_subtrees", "extremal.find_max_subtrees", "call"),
    ("extremal", "branch_shift_context", "extremal.branch_shift", "call"),
    ("extremal", "branch_shift_inequality", "extremal.branch_shift", "call"),
    ("extremal", "shift_branch_to_end", "extremal.branch_shift", "call"),
    ("verify", "run_claim", "verify.run_claim", "call"),
    ("cli", "main", "cli.main", "call"),
)

LAYERS = (
    "trees", "degrees", "prufer", "canonical", "caterpillars",
    "counting", "enumeration", "extremal", "verify", "cli",
)

ROOT = "bench.query"
PACKAGE = "treextremal"


class Tracer:
    """Online span aggregation plus a bounded in-memory span log."""

    def __init__(self):
        self.names: list[str] = [ROOT]
        self.ids: dict[str, int] = {ROOT: 0}
        self.calls: list[int] = [0]
        self.self_s: list[float] = [0.0]
        self.yields: list[int] = [0]
        # (parent name id, child name id) -> calls; "parent" is the
        # innermost open span when the child starts.
        self.pair_calls: dict[tuple[int, int], int] = {}
        self.arrangements = 0
        self.reports_by_method: dict[str, int] = {}
        self.claim_wall_s: dict[str, float] = {}
        self.spans: list[tuple[int, int, float, float, int]] = []
        self.spans_dropped = 0
        self._next_span = 1
        # Frames: [name id, span id, start, time covered by children].
        self.stack: list[list] = []
        self._restore: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.yields.append(0)
        return self.ids[name]

    # -- span bookkeeping -------------------------------------------------

    def _open(self, nid: int) -> list:
        stack = self.stack
        parent = stack[-1]
        key = (parent[0], nid)
        self.pair_calls[key] = self.pair_calls.get(key, 0) + 1
        span_id = self._next_span
        self._next_span = span_id + 1
        frame = [nid, span_id, perf_counter(), 0.0]
        stack.append(frame)
        return frame

    def _close(self, frame: list) -> float:
        end = perf_counter()
        stack = self.stack
        stack.pop()
        nid, span_id, start, covered = frame
        duration = end - start
        self.calls[nid] += 1
        self.self_s[nid] += duration - covered
        parent = stack[-1]
        parent[3] += duration
        if len(self.spans) < SPAN_LOG_LIMIT:
            self.spans.append((span_id, nid, start, end, parent[1]))
        else:
            self.spans_dropped += 1
        return duration

    def query(self, fn, *args):
        """Run one benchmark query under a root span."""
        frame = [0, self._next_span, perf_counter(), 0.0]
        self._next_span += 1
        self.stack = [[-1, 0, 0.0, 0.0], frame]
        try:
            return fn(*args)
        finally:
            self._close(frame)
            self.stack = []

    # -- wrappers ---------------------------------------------------------

    def _wrap_call(self, fn, nid, on_result=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.stack:
                return fn(*args, **kwargs)
            frame = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = tracer._close(frame)
            if on_result is not None:
                on_result(args, kwargs, result, duration)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_gen(self, fn, nid):
        tracer = self

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            if not tracer.stack:
                yield from inner
                return
            while True:
                frame = tracer._open(nid)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer._close(frame)
                tracer.yields[nid] += 1
                yield item

        traced.__wrapped__ = fn
        return traced

    def _count_arrangements(self, fn, parent_nid):
        """Count items the permutation generator yields to enumerate_caterpillars."""
        tracer = self

        def counted(*args, **kwargs):
            inner = fn(*args, **kwargs)
            if not tracer.stack or tracer.stack[-1][0] != parent_nid:
                return inner
            return tracer._counting(inner)

        counted.__wrapped__ = fn
        return counted

    def _counting(self, inner):
        for item in inner:
            self.arrangements += 1
            yield item

    def _on_report(self, args, kwargs, report, duration):
        self.reports_by_method[report.method] = self.reports_by_method.get(report.method, 0) + 1

    def _on_claim(self, args, kwargs, report, duration):
        claim = args[0] if args else kwargs["claim"]
        self.claim_wall_s[claim] = self.claim_wall_s.get(claim, 0.0) + duration

    def install(self) -> None:
        for module, _, _, _ in TRACED:
            importlib.import_module(f"{PACKAGE}.{module}")
        modules = {
            name: mod for name, mod in sys.modules.items()
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        }
        hooks = {
            "find_min_subtrees": self._on_report,
            "find_max_subtrees": self._on_report,
            "run_claim": self._on_claim,
        }
        for module, attr, span, kind in TRACED:
            original = getattr(modules[f"{PACKAGE}.{module}"], attr)
            nid = self._name_id(span)
            if kind == "init":
                self._patch(original, "__init__", self._wrap_call(original.__init__, nid))
                continue
            if kind == "post":
                self._patch(original, "__post_init__", self._wrap_call(original.__post_init__, nid))
                continue
            if kind == "gen":
                wrapper = self._wrap_gen(original, nid)
            else:
                wrapper = self._wrap_call(original, nid, hooks.get(attr))
            self._rebind(modules, original, wrapper)
        enum_mod = modules[f"{PACKAGE}.enumeration"]
        perms = enum_mod.lexicographic_multiset_permutations
        cat_nid = self.ids["enumeration.enumerate_caterpillars"]
        self._rebind(modules, perms, self._count_arrangements(perms, cat_nid))

    def _rebind(self, modules, original, wrapper) -> None:
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results ----------------------------------------------------------

    def metric(self, name: str, field: str):
        nid = self.ids.get(name)
        if nid is None:
            return 0
        return {"calls": self.calls, "self_s": self.self_s, "yields": self.yields}[field][nid]

    def pair(self, parent: str, child: str) -> int:
        return self.pair_calls.get((self.ids[parent], self.ids[child]), 0)

    def layer_self_s(self) -> dict[str, float]:
        totals = {layer: 0.0 for layer in LAYERS}
        for nid, name in enumerate(self.names):
            layer = name.split(".", 1)[0]
            if layer in totals:
                totals[layer] += self.self_s[nid]
        return totals

    def write_spans(self, path: str) -> None:
        """One line per span: id, name, start, end, parent id (0 = none)."""
        with open(path, "w") as fh:
            fh.write("span_id\tname\tstart_s\tend_s\tparent_id\n")
            for span_id, nid, start, end, parent in self.spans:
                fh.write(f"{span_id}\t{self.names[nid]}\t{start:.9f}\t{end:.9f}\t{parent}\n")
            if self.spans_dropped:
                fh.write(f"# {self.spans_dropped} further spans aggregated but not logged\n")
