import random

import pytest

from sigmaloc import pair_decode, pair_encode


def test_first_values():
    assert pair_encode(0, 0) == 0
    assert pair_encode(1, 0) == 1
    assert pair_encode(0, 1) == 2
    assert pair_encode(2, 0) == 3
    assert pair_encode(1, 1) == 4
    assert pair_encode(0, 2) == 5


def test_round_trip():
    rng = random.Random(7)
    for _ in range(500):
        m = rng.randrange(0, 10000)
        n = rng.randrange(0, 10000)
        assert pair_decode(pair_encode(m, n)) == (m, n)
    for k in range(200):
        m, n = pair_decode(k)
        assert pair_encode(m, n) == k


def test_codes_are_a_bijection_on_a_square():
    codes = {pair_encode(m, n) for m in range(40) for n in range(40)}
    assert len(codes) == 1600


def test_monotone_in_each_argument():
    for m in range(20):
        for n in range(20):
            assert pair_encode(m + 1, n) > pair_encode(m, n)
            assert pair_encode(m, n + 1) > pair_encode(m, n)


def test_negative_rejected():
    with pytest.raises(ValueError):
        pair_encode(-1, 0)
    with pytest.raises(ValueError):
        pair_encode(0, -1)
    with pytest.raises(ValueError):
        pair_decode(-1)
