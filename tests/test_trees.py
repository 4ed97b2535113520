import json
import tracemalloc

import pytest

from treextremal.degrees import degree_sequence
from treextremal.enumeration import _free_trees, enumerate_all_trees
from treextremal.errors import InvalidTree, ParseError, VertexOutOfRange
from treextremal.trees import (
    Tree,
    _checked_walk,
    _tree_from_parents,
    bfs,
    diameter,
    is_caterpillar,
    path_tree,
    star_tree,
    tree_from_edge_list,
)


def test_tree_validation_accepts_paths_and_stars():
    assert degree_sequence(map(len, path_tree(5).adjacency)).degrees == (2, 2, 2, 1, 1)
    assert degree_sequence(map(len, star_tree(5).adjacency)).degrees == (4, 1, 1, 1, 1)
    assert Tree(1, []).n == 1
    assert Tree(2, [(1, 0)]).edges == ((0, 1),)


def test_tree_validation_rejects_bad_inputs():
    with pytest.raises(InvalidTree):
        Tree(3, [(0, 1)])  # too few edges
    with pytest.raises(InvalidTree):
        Tree(3, [(0, 1), (0, 1)])  # duplicate
    with pytest.raises(InvalidTree):
        Tree(3, [(0, 0), (1, 2)])  # self loop
    with pytest.raises(InvalidTree):
        Tree(3, [(0, 3), (1, 2)])  # label out of range
    with pytest.raises(InvalidTree):
        Tree(4, [(0, 1), (2, 3), (0, 1)])  # disconnected once deduped fails count
    with pytest.raises(InvalidTree):
        Tree(0, [])
    with pytest.raises(InvalidTree):
        Tree(3, [(0, 1.0), (1, 2)])  # float label
    with pytest.raises(InvalidTree):
        Tree(3.0, [(0, 1), (1, 2)])  # float vertex count
    with pytest.raises(InvalidTree):
        Tree(3, [(0, "1"), (1, 2)])  # string label
    with pytest.raises(InvalidTree):
        Tree(3, [(0, 1, 2), (1, 2)])  # edge that is not a pair


def test_tree_validation_messages():
    # Each rejection's message, checked in this order: vertex count, then
    # per edge (as given) range and self-loop, edge count, duplicates,
    # connectivity.
    cases = [
        (3, [(0, 1)], "expected 2 edges for n=3, got 1"),
        (3, [(0, 1), (0, 1)], "duplicate edge"),
        (3, [(1, 0), (0, 1)], "duplicate edge"),
        (3, [(0, 0), (1, 2)], "self-loop at vertex 0"),
        (3, [(0, 3), (1, 2)], "edge (0, 3) has a label outside 0..2"),
        (3, [(5, 2), (1, 2)], "edge (5, 2) has a label outside 0..2"),
        (3, [(0, 1), (2, 2)], "self-loop at vertex 2"),
        (3, [(1, 1), (0, 7)], "self-loop at vertex 1"),
        (3, [(0, 1), (1, 2), (2, 0)], "expected 2 edges for n=3, got 3"),
        (4, [(0, 1), (2, 3), (0, 1)], "duplicate edge"),
        (4, [(0, 1), (1, 2), (2, 0)], "edge set is not connected"),
        (4, [(1, 2), (2, 3), (3, 1)], "edge set is not connected"),  # vertex 0 cut off
        (0, [], "vertex count must be >= 1, got 0"),
        (0, [(0, 1)], "vertex count must be >= 1, got 0"),
        (2.5, [(0, 1)], "labels and count must be integers, edges pairs: "
         "'float' object cannot be interpreted as an integer"),
        (2.0, [(0, 1)], "labels and count must be integers, edges pairs: "
         "'float' object cannot be interpreted as an integer"),
    ]
    for n, edges, message in cases:
        with pytest.raises(InvalidTree) as info:
            Tree(n, edges)
        assert str(info.value) == message, (n, edges)


def test_checked_walk_roots_the_edges_as_given():
    edges = [(5, 0), (3, 1), (0, 3), (4, 3), (2, 3)]
    adjacency, order, parent = _checked_walk(6, edges)
    assert adjacency == [[5, 3], [3], [3], [1, 0, 4, 2], [3], [0]]  # input order
    assert (order, parent) == ([0, 5, 3, 1, 4, 2], [-1, 3, 3, 0, 3, 0])
    assert _checked_walk(1, []) == ([[]], [0], [-1])


def test_short_edge_list_allocates_nothing_per_vertex():
    # The edge count is checked after the edges, and a huge vertex count
    # with too few edges must not build a list per vertex first.
    tracemalloc.start()
    try:
        with pytest.raises(InvalidTree, match="^expected 999999 edges for n=1000000, got 1$"):
            Tree(10**6, [(0, 1)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6


def test_tree_from_parents_matches_the_validated_tree():
    checked = 0
    for n in range(1, 11):
        for parent, _ in _free_trees(n):
            t = _tree_from_parents(parent)
            want = Tree(n, [(parent[v], v) for v in range(1, n)])
            assert (t.n, t.edges, t.adjacency) == (want.n, want.edges, want.adjacency)
            assert t == want and hash(t) == hash(want)
            checked += 1
    assert checked == 1 + 1 + 1 + 2 + 3 + 6 + 11 + 23 + 47 + 106
    # parent[0] is ignored, whatever it holds
    assert _tree_from_parents([7, 0, 1]) == path_tree(3)


def test_tree_from_parents_rejects_a_parent_not_below_its_child():
    cases = [
        ([-1, 0, 2], "vertex 2 has parent 2, not a label in 0..1"),  # itself
        ([-1, 2, 0], "vertex 1 has parent 2, not a label in 0..0"),  # above
        ([-1, 0, 1, 3], "vertex 3 has parent 3, not a label in 0..2"),
        ([-1, 0, -1], "vertex 2 has parent -1, not a label in 0..1"),  # negative
        ([0, -2], "vertex 1 has parent -2, not a label in 0..0"),
    ]
    for parent, message in cases:
        with pytest.raises(InvalidTree) as info:
            _tree_from_parents(parent)
        assert str(info.value) == message, parent


def test_tree_adjacency_is_sorted():
    t = Tree(6, [(5, 0), (3, 1), (0, 3), (4, 3), (2, 3)])
    assert t.edges == ((0, 3), (0, 5), (1, 3), (2, 3), (3, 4))
    assert t.adjacency == ((3, 5), (3,), (3,), (0, 1, 2, 4), (3,), (0,))


def test_degree_queries():
    t = star_tree(4)
    assert len(t.adjacency[0]) == 3
    assert t.leaves() == (1, 2, 3)
    with pytest.raises(VertexOutOfRange):
        t.check_vertex(7)


def _all_pairs_diameter(t):
    """The largest eccentricity, from a BFS at every vertex."""
    return max(max(bfs(t, v)[2]) for v in range(t.n))


def test_diameter():
    assert diameter(Tree(1, [])) == 0
    assert diameter(path_tree(2)) == 1
    for n in range(2, 9):
        assert diameter(path_tree(n)) == n - 1
    assert diameter(star_tree(5)) == 2
    # path on 4 plus a pendant at the second vertex
    fork = Tree(5, [(0, 1), (1, 2), (2, 3), (1, 4)])
    assert diameter(fork) == 3
    checked = 0
    for n in range(1, 13):
        for _, trees in enumerate_all_trees(n):
            for t in trees:
                assert diameter(t) == _all_pairs_diameter(t), t
                checked += 1
    assert checked == 1 + 1 + 1 + 2 + 3 + 6 + 11 + 23 + 47 + 106 + 235 + 551


def test_is_caterpillar():
    for n in range(1, 8):
        assert is_caterpillar(path_tree(n))
    assert is_caterpillar(star_tree(6))
    spider = Tree(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
    assert not is_caterpillar(spider)


def test_edge_list_round_trip():
    t = Tree(5, [(0, 1), (1, 2), (2, 3), (1, 4)])
    assert tree_from_edge_list("5\n0 1\n1 2\n2 3\n1 4\n") == t


def test_edge_list_parse_errors():
    with pytest.raises(ParseError):
        tree_from_edge_list("")
    with pytest.raises(ParseError):
        tree_from_edge_list("x\n0 1\n")
    with pytest.raises(ParseError):
        tree_from_edge_list("3\n0 1 2\n")
    with pytest.raises(ParseError):
        tree_from_edge_list("3\n0 a\n1 2\n")


def test_bfs_order_parents_and_distances():
    t = Tree(6, [(0, 1), (1, 2), (1, 3), (3, 4), (0, 5)])
    order, parent, dist = bfs(t, 1)
    assert order == [1, 0, 2, 3, 5, 4]
    assert parent == [1, -1, 1, 1, 3, 0]
    assert dist == [1, 0, 1, 1, 2, 2]
    assert bfs(Tree(1, []), 0) == ([0], [-1], [0])
    with pytest.raises(VertexOutOfRange):
        bfs(t, 6)


# (edge-list text, the Tree it parses to or the (error type, message) it is
# refused with). Frozen from the line-by-line parser, before edges were
# converted in one pass; a bad line is named as the first one found. The
# duplicate and connectivity rows hold `count`'s failed validation walk,
# which looks for a repeat only once the walk misses a vertex.
EDGE_LIST_TABLE = [
    ("crlf", "3\r\n0 1\r\n1 2\r\n", Tree(3, [(0, 1), (1, 2)])),
    ("tabs", "3\n0\t1\n\t1  \t2\t\n", Tree(3, [(0, 1), (1, 2)])),
    ("leading blank line", "\n  \n3\n0 1\n1 2\n", Tree(3, [(0, 1), (1, 2)])),
    ("blank lines between edges", "4\n0 1\n\n \t\n1 2\n\n2 3", Tree(4, [(0, 1), (1, 2), (2, 3)])),
    ("single vertex", "1\n", Tree(1, [])),
    ("empty", "", (ParseError, "empty edge-list document")),
    ("only blank lines", "\n \r\n\t\n", (ParseError, "empty edge-list document")),
    ("bad vertex count", "x\n0 1\n", (ParseError, "first line must be the vertex count, got 'x'")),
    ("one token", "3\n0 1\n2\n", (ParseError, "expected 'u v', got '2'")),
    ("three tokens", "3\n0 1 2\n1 2\n", (ParseError, "expected 'u v', got '0 1 2'")),
    ("non-integer token", "3\n0 1\n1 a\n", (ParseError, "non-integer endpoint in '1 a'")),
    ("first bad line wins", "4\n0 1\n1 x\n7\n", (ParseError, "non-integer endpoint in '1 x'")),
    ("label too large", "3\n0 1\n1 3\n", (InvalidTree, "edge (1, 3) has a label outside 0..2")),
    ("negative label", "3\n0 1\n-1 2\n", (InvalidTree, "edge (-1, 2) has a label outside 0..2")),
    ("self-loop", "3\n0 1\n2 2\n", (InvalidTree, "self-loop at vertex 2")),
    ("duplicate edge", "3\n0 1\n1 0\n", (InvalidTree, "duplicate edge")),
    ("duplicate among other edges", "4\n0 1\n2 3\n1 0\n", (InvalidTree, "duplicate edge")),
    ("disconnected", "4\n0 1\n1 2\n2 0\n", (InvalidTree, "edge set is not connected")),
    ("cut-off vertex 0", "4\n1 2\n2 3\n3 1\n", (InvalidTree, "edge set is not connected")),
    ("too few edges", "4\n0 1\n1 2\n", (InvalidTree, "expected 3 edges for n=4, got 2")),
    ("too many edges", "3\n0 1\n1 2\n0 2\n", (InvalidTree, "expected 2 edges for n=3, got 3")),
    ("zero vertices", "0\n", (InvalidTree, "vertex count must be >= 1, got 0")),
]


@pytest.mark.parametrize("text, expected", [row[1:] for row in EDGE_LIST_TABLE],
                         ids=[row[0] for row in EDGE_LIST_TABLE])
def test_edge_list_table(text, expected, tmp_path, capsys):
    from treextremal.cli import main

    path = tmp_path / "tree.txt"
    path.write_bytes(text.encode())
    code = main(["count", str(path)])
    out, err = capsys.readouterr()
    if isinstance(expected, Tree):
        assert tree_from_edge_list(text) == expected
        assert code == 0
        assert json.loads(out)["results"]["n"] == expected.n
    else:
        error, message = expected
        with pytest.raises(error) as caught:
            tree_from_edge_list(text)
        assert str(caught.value) == message
        assert (code, out, err) == (2, "", f"error: {message}\n")
