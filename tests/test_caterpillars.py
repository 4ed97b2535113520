import csv
import functools
import io
import itertools
import json
import random

import pytest

from treextremal import caterpillars
from treextremal.caterpillars import (
    _caterpillar_parents,
    caterpillar_build,
    caterpillar_canonical,
    caterpillar_from_tree,
)
from treextremal.canonical import _caterpillar_code, canonical_form
from treextremal.cli import main
from treextremal.counting import count_subtrees, wiener_index
from treextremal.enumeration import (
    enumerate_caterpillars,
    enumerate_degree_sequences,
    enumerate_trees,
)
from treextremal.errors import EmptySpine
from treextremal.degrees import degree_sequence
from treextremal.trees import Tree, diameter, is_caterpillar, path_tree, star_tree


def test_build_reference_shapes():
    claw = caterpillar_build((1,))  # K_{1,3}
    assert degree_sequence(map(len, claw.adjacency)).degrees == (3, 1, 1, 1)
    t = caterpillar_build((1, 0, 0))
    assert t.n == 6
    assert degree_sequence(map(len, t.adjacency)).degrees == (3, 2, 2, 1, 1, 1)
    p4 = caterpillar_build((0, 0))
    assert degree_sequence(map(len, p4.adjacency)).degrees == (2, 2, 1, 1)
    # deterministic labels: spine first, pendants in spine order
    assert caterpillar_build((1, 0)).edges == ((0, 1), (1, 2), (1, 4), (2, 3))


def test_build_rejects_bad_vectors():
    with pytest.raises(EmptySpine):
        caterpillar_build(())
    with pytest.raises(EmptySpine):
        caterpillar_build((1, -1))
    for bad in [(1.5,), ("2",), ["2", 1.9, True]]:
        with pytest.raises(EmptySpine, match="^pendant counts must be integers: "):
            caterpillar_build(bad)


def test_canonical_orientation():
    assert caterpillar_canonical((0, 0, 1)) == (1, 0, 0)
    assert caterpillar_canonical((1, 0, 1)) == (1, 0, 1)
    assert caterpillar_canonical((2, 0, 1)) == (2, 0, 1)
    assert caterpillar_canonical((1, 0, 0, 1, 1)) == (1, 1, 0, 0, 1)
    # idempotent
    for y in itertools.product(range(3), repeat=4):
        assert caterpillar_canonical(caterpillar_canonical(y)) == caterpillar_canonical(y)


def _edge_loop_build(y) -> Tree:
    """C(y) built edge by edge: the spine path 0..k+1, then the pendants of
    each v_j in spine order from label k + 2. The oracle for the labels of
    caterpillar_build."""
    k = len(y)
    edges = [(j, j + 1) for j in range(k + 1)]
    nxt = k + 2
    for j, cnt in enumerate(y, start=1):
        for _ in range(cnt):
            edges.append((j, nxt))
            nxt += 1
    return Tree(nxt, edges)


@functools.cache
def _pendant_vectors() -> tuple[tuple[int, ...], ...]:
    """Every y in {0,1,2}^k for k <= 7, 3,000 seeded random y (k <= 12,
    entries 0-5), and every caterpillar class of every sequence with
    n <= 14."""
    ys = [y for k in range(1, 8) for y in itertools.product(range(3), repeat=k)]
    rng = random.Random(2113)
    for _ in range(3000):
        ys.append(tuple(rng.randint(0, 5) for _ in range(rng.randint(1, 12))))
    for n in range(3, 15):
        for ds in enumerate_degree_sequences(n, min_k=1):
            ys.extend(enumerate_caterpillars(ds))
    return tuple(ys)


def test_caterpillar_code_matches_the_validated_tree():
    ys = _pendant_vectors()
    # Harary and Schwenk: 2^(n-4) + 2^floor((n-4)/2) caterpillars on n >= 4
    # vertices; n = 3 has one, the path.
    classes = 1 + sum(2 ** (n - 4) + 2 ** ((n - 4) // 2) for n in range(4, 15))
    assert len(ys) == sum(3**k for k in range(1, 8)) + 3000 + classes
    assert {len(y) for y in ys} == set(range(1, 13))
    for y in ys:
        assert _caterpillar_code(y) == canonical_form(_edge_loop_build(y)), y


def test_build_from_parents_matches_the_edge_loop():
    small = [y for k in range(1, 6) for y in itertools.product(range(4), repeat=k)]
    for y in small + list(_pendant_vectors()):
        t, want = caterpillar_build(y), _edge_loop_build(y)
        assert (t.n, t.edges, t.adjacency) == (want.n, want.edges, want.adjacency), y
        assert t == want and hash(t) == hash(want)
        parent = _caterpillar_parents(y)
        assert parent[0] == -1
        assert all(parent[v] < v for v in range(1, t.n))


def test_build_round_trip_properties():
    for k in range(1, 6):
        for y in itertools.product(range(3), repeat=k):
            t = caterpillar_build(y)
            assert is_caterpillar(t)
            assert len(t.leaves()) == sum(y) + 2
            assert diameter(t) == k + 1
            assert caterpillar_from_tree(t) == caterpillar_canonical(y)


def test_from_tree_edge_cases():
    from treextremal.trees import Tree

    assert caterpillar_from_tree(path_tree(2)) is None
    assert caterpillar_from_tree(Tree(1, [])) is None
    spider = Tree(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
    assert caterpillar_from_tree(spider) is None
    assert caterpillar_from_tree(path_tree(5)) == (0, 0, 0)
    assert caterpillar_from_tree(star_tree(6)) == (3,)


def test_from_tree_on_every_free_tree_up_to_12():
    trees = 0
    for n in range(1, 13):
        for ds in enumerate_degree_sequences(n):
            for t in enumerate_trees(ds):
                trees += 1
                y = caterpillar_from_tree(t)
                if t.n <= 2 or not is_caterpillar(t):
                    assert y is None
                else:
                    assert y == caterpillar_canonical(y)
                    assert canonical_form(caterpillar_build(y)) == canonical_form(t)
    assert trees == 987  # OEIS A000055, n = 1..12


def test_degree_sequence_of_caterpillar():
    t = caterpillar_build((6, 0, 1, 1, 1))
    assert degree_sequence(map(len, t.adjacency)).degrees == (8, 3, 3, 3, 2) + (1,) * 11
    assert t.n == 16


def _enumerate_rows(capsys, degseq, *flags):
    """The rows of `enumerate`, run in process, as JSON and as CSV: lists
    of (code, y, phi, wiener), y a tuple or None."""
    rows = {}
    for fmt in ("json", "csv"):
        assert main(["enumerate", "--degseq", degseq, "--format", fmt, *flags]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        if fmt == "json":
            rows[fmt] = [
                (r["canonical_code"], r["y_vector"] and tuple(r["y_vector"]), r["phi"], r["wiener"])
                for r in json.loads(captured.out)["results"]["trees"]
            ]
        else:
            header, *table = csv.reader(io.StringIO(captured.out))
            assert header == ["canonical_code", "y_vector_or_blank", "phi", "wiener"]
            rows[fmt] = [(c, tuple(map(int, y.split())) if y else None, p, w) for c, y, p, w in table]
    assert rows["json"] == rows["csv"]
    return rows["json"]


def test_caterpillar_rows_match_the_validated_tree(capsys):
    """Each row of `enumerate --caterpillars-only`, scored off the class's
    parent array with no Tree, against the Tree that Tree(n, edges)
    validates, for every class of every sequence with 3 <= n <= 14."""
    classes = 0
    for n in range(3, 15):
        for ds in enumerate_degree_sequences(n, min_k=1):
            degseq = ",".join(map(str, ds.degrees))
            rows = _enumerate_rows(capsys, degseq, "--caterpillars-only")
            assert [y for _, y, _, _ in rows] == list(map(tuple, enumerate_caterpillars(ds)))
            for code, y, phi, wiener in rows:
                t = _edge_loop_build(y)
                assert (code, phi, wiener) == (
                    canonical_form(t), str(count_subtrees(t)), str(wiener_index(t))
                ), (degseq, y)
            classes += len(rows)
    assert classes == 2142


def test_free_tree_rows_match_the_public_counts(capsys):
    """Each row of plain `enumerate`, scored off one BFS of its tree, against
    the public functions, for all 201 free trees with n <= 10."""
    trees = 0
    for n in range(1, 11):
        for ds in enumerate_degree_sequences(n):
            rows = _enumerate_rows(capsys, ",".join(map(str, ds.degrees)))
            expected = [
                (canonical_form(t), caterpillar_from_tree(t), str(count_subtrees(t)),
                 str(wiener_index(t)))
                for t in enumerate_trees(ds)
            ]
            assert rows == expected, ds.degrees
            trees += len(rows)
    assert trees == 201  # OEIS A000055, n = 1..10


def test_caterpillar_rows_build_no_tree(monkeypatch, capsys):
    def no_tree(*_):
        raise AssertionError("a Tree was built")

    monkeypatch.setattr(Tree, "__init__", no_tree)
    monkeypatch.setattr(caterpillars, "_tree_from_parents", no_tree)
    rows = _enumerate_rows(capsys, "6,5,4,3,1*12", "--caterpillars-only")
    assert len(rows) == 12  # 4! arrangements of (4, 3, 2, 1), mirror pairs merged
