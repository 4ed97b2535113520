from dataclasses import fields

import pytest

from treextremal.degrees import DegreeSequence, degree_sequence, parse_degree_sequence
from treextremal.errors import NotATreeSequence, ParseError


def test_parse_with_repetition():
    assert parse_degree_sequence("3,2,1*3").degrees == (3, 2, 1, 1, 1)
    assert parse_degree_sequence("2,2,1,1").degrees == (2, 2, 1, 1)
    assert parse_degree_sequence("8,3,3,3,2,1*11").n == 16
    assert parse_degree_sequence(" 2 , 1*2 ").degrees == (2, 1, 1)


def test_parse_rejects_non_tree_sums():
    with pytest.raises(NotATreeSequence):
        parse_degree_sequence("3,3,1,1")
    with pytest.raises(NotATreeSequence):
        parse_degree_sequence("2,2,2")
    with pytest.raises(NotATreeSequence):
        parse_degree_sequence("0,1")


def test_empty_sequence_is_refused():
    with pytest.raises(NotATreeSequence, match="^empty degree sequence$"):
        DegreeSequence(())


def test_parse_rejects_malformed_text():
    for bad in ("", "  ", "a,b", "3,,1", "2*0,1,1", "1*x", "-2,1"):
        with pytest.raises(ParseError):
            parse_degree_sequence(bad)


def test_non_integer_degrees_are_refused():
    for bad in ([2.5, 1.5, 1, 1], [3.0, 1, 1, 1], ["2", 1, 1], [2, 1, None]):
        with pytest.raises(NotATreeSequence, match="integers"):
            degree_sequence(bad)


def test_sorting_is_automatic():
    assert degree_sequence([1, 3, 1, 2, 1]).degrees == (3, 2, 1, 1, 1)


def test_single_vertex_and_edge():
    assert parse_degree_sequence("0").degrees == (0,)
    assert DegreeSequence((0,)).k == 0
    assert DegreeSequence((1, 1)).k == 0
    with pytest.raises(NotATreeSequence):
        DegreeSequence((1,))


def test_k_and_internal():
    ds = parse_degree_sequence("8,3,3,3,2,1*11")
    assert ds.k == 5
    assert ds.internal == (8, 3, 3, 3, 2)
    assert ds.n - ds.k == 11
    assert str(ds) == "8,3,3,3,2,1,1,1,1,1,1,1,1,1,1,1"


def test_k_is_counted_once_outside_the_fields():
    a = parse_degree_sequence("4,3,2,1*5")
    b = parse_degree_sequence("4,3,2,1*5")
    assert (a.k, a.internal, a.n - a.k) == (3, (4, 3, 2), 5)
    # Counted at construction, before any read, and kept outside the fields.
    assert vars(b)["k"] == 3 and "k" not in {f.name for f in fields(b)}
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
