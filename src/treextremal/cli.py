"""Command-line front end.

Subcommands: count, extremal, enumerate, verify. Output is a JSON document
(CSV for enumerate tables on request) in which every subtree/Wiener count is
a decimal string, since the values outgrow JSON numbers fast. Exit codes are
a stable contract: 0 success or verified pass, 1 verification failure,
2 invalid input, 3 budget exceeded or out of memory, 4 internal
inconsistency (two routes to the same answer disagree: a bug, never a
counterexample). main builds its parser once per process, on its first
call.

Every JSON document is written by one writer whose bytes are those of
json.dumps(document, indent=2). `count` on a file builds no Tree: it
validates and roots the edge list in one walk (trees._checked_walk), reads
all its fields off that rooted traversal, plus one BFS from its last vertex
for the diameter, makes the decimal text of each distinct per-vertex count
once, and hands the list to the writer as _Digits, which it joins without
escaping. `enumerate` reads each row's phi and Wiener index off one rooted
traversal too (a class's parent array with --caterpillars-only, so no
Tree) and writes its JSON list or CSV table from one (code, y, phi, wiener)
tuple per row. main lifts CPython's int-to-decimal digit cap while a
command runs, so a count of any size is written in full.
"""

import argparse
import csv
import functools
import io
import json
import os
import sys
from typing import Iterable

from .caterpillars import _caterpillar_parents, caterpillar_build, caterpillar_from_tree
from .canonical import _caterpillar_code, canonical_form
from .counting import _reroot, _rooted_counts, _wiener
from .degrees import parse_degree_sequence
from .enumeration import DEFAULT_BUDGET, EnumerationBudget, enumerate_caterpillars, enumerate_trees
from .errors import BudgetExceeded, InternalInconsistency, ParseError, TooLarge, TreextremalError
from .extremal import METHODS, find_max_subtrees, find_min_subtrees
from .trees import _checked_walk, _is_caterpillar, _parse_edge_list, _walk, bfs
from .verify import CLAIM_IDS, FAIL, run_claim

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

BUDGET_ENV = "TREEXTREMAL_BUDGET"
BUDGET_HELP = (
    "cap on candidates generated: free trees on n vertices for a full "
    "enumeration, arrangements for --caterpillars-only, prefixes entered by a "
    f"caterpillar search (overrides {BUDGET_ENV})"
)


def _document(command: str, inputs: dict, results) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "results": results,
    }


class _Digits(list):
    """A list of decimal digit strings: _json_pieces writes it without escaping."""


def _json_pieces(value, indent: str = "", out: list[str] | None = None) -> list[str]:
    """The text of json.dumps(value, indent=2) as a list of pieces, with
    `indent` the indentation value starts at.

    Dicts are laid out here, each key going through json. A _Digits list is
    joined in one step, as its items need no escaping. Anything else is
    json.dumps(value, indent=2) with every line break re-indented, which is
    exact because json never writes a raw line break inside a string. The
    pieces are written as they are, so no large string is copied again.
    """
    if out is None:
        out = []
    if isinstance(value, _Digits) and value:
        inner = indent + "  "
        out += (f'[\n{inner}"', f'",\n{inner}"'.join(value), f'"\n{indent}]')
    elif isinstance(value, dict) and value:
        inner = indent + "  "
        sep = "{\n"
        for k, v in value.items():
            out.append(f"{sep}{inner}{json.dumps(k if isinstance(k, str) else json.dumps(k))}: ")
            _json_pieces(v, inner, out)
            sep = ",\n"
        out.append(f"\n{indent}}}")
    else:
        out.append(json.dumps(value, indent=2).replace("\n", "\n" + indent))
    return out


_CSV_FIELDS = ("canonical_code", "y_vector_or_blank", "phi", "wiener")


def _emit(args, document: dict | None, csv_rows: Iterable[tuple] | None = None) -> None:
    """Write the document as JSON, or csv_rows (tuples in _CSV_FIELDS order)
    as CSV when they are given."""
    if csv_rows is not None:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(_CSV_FIELDS)
        writer.writerows(csv_rows)
        pieces = [buf.getvalue()]
    else:
        pieces = _json_pieces(document)
        pieces.append("\n")
    if args.out:
        with open(args.out, "w") as fh:
            fh.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


def _budget(args) -> EnumerationBudget:
    cap = getattr(args, "budget_labeled", None)
    if cap is None:
        env = os.environ.get(BUDGET_ENV)
        if env is not None:
            try:
                cap = int(env)
            except ValueError:
                raise TreextremalError(f"{BUDGET_ENV} must be an integer, got {env!r}")
    if cap is None:
        return DEFAULT_BUDGET
    return EnumerationBudget(max_labeled=cap)


def _parse_y_vector(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(tok.strip()) for tok in text.split(","))
    except ValueError:
        raise ParseError(f"malformed pendant vector {text!r}") from None
    if not values or any(v < 0 for v in values):
        raise ParseError(f"pendant vector needs nonnegative entries: {text!r}")
    return values


def _optimizer_payload(report) -> list[dict]:
    rows = []
    for opt in report.optimizers:
        rows.append(
            {
                "canonical_code": opt.canonical_code,
                "y_vector": list(opt.y_vector) if opt.y_vector is not None else None,
                "edges": None if opt.y_vector is not None else [list(e) for e in opt.tree.edges],
                "phi": str(report.optimum),
            }
        )
    return rows


def cmd_count(args) -> int:
    if args.caterpillar is not None:
        t = caterpillar_build(_parse_y_vector(args.caterpillar))
        adjacency, edges = t.adjacency, t.edges
        order, parent, _ = _walk(adjacency, 0)
        source = {"caterpillar": args.caterpillar}
    else:
        with open(args.tree_file) as fh:
            n, edges = _parse_edge_list(fh.read())
        adjacency, order, parent = _checked_walk(n, edges)
        source = {"tree_file": args.tree_file}
    _emit(args, _document("count", source, _count_results(adjacency, edges, order, parent)))
    return EXIT_OK


def _count_results(adjacency, edges, order, parent) -> dict:
    """Every field of a count document, read off one rooted traversal
    (order, parent) of the tree with these adjacency lists and edges, plus
    one BFS from its last vertex (an end of a longest path) for the
    diameter. No field depends on the order of the lists or the traversal.
    The integers are dropped on return, before the document is written."""
    down = _rooted_counts(order, parent)
    per_vertex = _reroot(down, order, parent)
    text = {v: str(v) for v in set(per_vertex)}  # leaves sharing a neighbour share a count
    far, _, dist = _walk(adjacency, order[-1])
    return {
        "n": len(order),
        "phi": str(sum(down)),
        "per_vertex": _Digits(map(text.__getitem__, per_vertex)),
        "diameter": dist[far[-1]],
        "is_caterpillar": _is_caterpillar(list(map(len, adjacency)), edges),
        "wiener": str(_wiener(order, parent)),
    }


def cmd_extremal(args) -> int:
    ds = parse_degree_sequence(args.degseq)
    budget = _budget(args)
    finder = find_min_subtrees if args.objective == "min" else find_max_subtrees
    report = finder(ds, method=args.method, budget=budget)
    results = {
        "degree_sequence": list(ds.degrees),
        "objective": report.objective,
        "optimum": str(report.optimum),
        "method": report.method,
        "trees_examined": report.trees_examined,
        "optimizers": _optimizer_payload(report),
    }
    inputs = {"degseq": args.degseq, "objective": args.objective, "method": args.method}
    _emit(args, _document("extremal", inputs, results))
    return EXIT_OK


def cmd_enumerate(args) -> int:
    ds = parse_degree_sequence(args.degseq)
    budget = _budget(args)
    if args.caterpillars_only and ds.k:  # k = 0 has no pendant vector: list its tree
        ys = enumerate_caterpillars(ds, budget)
        walks = ((None, y, range(ds.n), _caterpillar_parents(y)) for y in ys)
    else:
        walks = ((t, caterpillar_from_tree(t), *bfs(t, 0)[:2]) for t in enumerate_trees(ds, budget))
    rows = [  # (code, y, phi, wiener): phi and wiener off one rooted traversal
        (
            canonical_form(t) if y is None else _caterpillar_code(y),
            y,
            str(sum(_rooted_counts(order, parent))),
            str(_wiener(order, parent)),
        )
        for t, y, order, parent in walks
    ]
    if args.format == "csv":
        _emit(args, None, ((c, " ".join(map(str, y)) if y else "", p, w) for c, y, p, w in rows))
        return EXIT_OK
    trees = [{"canonical_code": c, "y_vector": y, "phi": p, "wiener": w} for c, y, p, w in rows]
    inputs = {"degseq": args.degseq, "caterpillars_only": args.caterpillars_only}
    _emit(args, _document("enumerate", inputs, {"count": len(rows), "trees": trees}))
    return EXIT_OK


def cmd_verify(args) -> int:
    report = run_claim(args.claim, args.max_n, args.max_k, _budget(args))
    inputs = {"claim": args.claim, "max_n": args.max_n, "max_k": args.max_k}
    _emit(args, _document("verify", inputs, report.to_payload()))
    return EXIT_VERIFY_FAIL if report.status == FAIL else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treextremal",
        description="Count subtrees, enumerate realizations of a degree "
        "sequence, search for extremal trees, and verify the structural "
        "claims behind the search.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--out", metavar="FILE", default=None, help="write output to FILE")

    p = sub.add_parser("count", help="subtree counts for one tree")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("tree_file", nargs="?", help="edge-list file (first line n, then 'u v' lines)")
    group.add_argument("--caterpillar", metavar="Y", help="pendant vector, e.g. '1,0'")
    common(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("extremal", help="minimize or maximize the subtree count")
    p.add_argument("--degseq", required=True, help="degree sequence, e.g. '8,3,3,3,2,1*11'")
    p.add_argument("--objective", choices=("min", "max"), default="min")
    p.add_argument("--method", choices=METHODS, default="auto")
    p.add_argument("--budget-labeled", type=int, default=None, help=BUDGET_HELP)
    common(p)
    p.set_defaults(func=cmd_extremal)

    p = sub.add_parser("enumerate", help="all realizations of a degree sequence")
    p.add_argument("--degseq", required=True)
    p.add_argument("--caterpillars-only", action="store_true")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--budget-labeled", type=int, default=None, help=BUDGET_HELP)
    common(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify", help="run one structural claim check")
    p.add_argument("claim", choices=CLAIM_IDS)
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument("--max-k", type=int, default=None)
    p.add_argument("--budget-labeled", type=int, default=None, help=BUDGET_HELP)
    common(p)
    p.set_defaults(func=cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad input already; normalize anything else.
        return EXIT_INPUT if exc.code not in (0,) else 0
    digits = getattr(sys, "get_int_max_str_digits", lambda: None)()  # None: no cap here
    if digits is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except (BudgetExceeded, TooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_BUDGET
    except InternalInconsistency as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (TreextremalError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    finally:
        if digits is not None:
            sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
