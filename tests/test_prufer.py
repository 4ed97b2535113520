import random
from itertools import product

import pytest

from treextremal.errors import LabelOutOfRange, LengthMismatch
from treextremal.prufer import prufer_decode


def test_decode_reference_cases():
    assert prufer_decode([], 2).edges == ((0, 1),)
    # Hand-run of the smallest-leaf algorithm: all entries 1 gives the star.
    star = prufer_decode([1, 1, 1], 5)
    assert star.edges == ((0, 1), (1, 2), (1, 3), (1, 4))
    # [0, 1] on four vertices is the path 2-0-1-3.
    assert prufer_decode([0, 1], 4).edges == ((0, 1), (0, 2), (1, 3))


def test_decode_errors():
    with pytest.raises(LengthMismatch):
        prufer_decode([0], 2)
    with pytest.raises(LengthMismatch):
        prufer_decode([], 1)
    with pytest.raises(LabelOutOfRange):
        prufer_decode([4], 3)
    with pytest.raises(LabelOutOfRange):
        prufer_decode([-1], 3)


def test_round_trip_exhaustive_small():
    # Decoding is a bijection: the n^(n-2) words give n^(n-2) distinct trees.
    for n in range(2, 8):
        words = product(range(n), repeat=n - 2)
        edge_sets = {prufer_decode(list(seq), n).edges for seq in words}
        assert len(edge_sets) == n ** (n - 2)


def test_decode_degree_multiset():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(2, 30)
        seq = [rng.randrange(n) for _ in range(n - 2)]
        t = prufer_decode(seq, n)
        for v in range(n):
            assert len(t.adjacency[v]) == seq.count(v) + 1
