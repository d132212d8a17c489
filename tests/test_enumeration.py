"""Enumerated countable sets and their operations against set oracles."""

import random

import pytest

from sigmaloc import (
    BLANK,
    Confirmed,
    DetachableSubset,
    Enumeration,
    MissingSurjectivityBound,
    SemiDecidableEquality,
    ext_equal_finite,
    from_detachable,
    intersect_binary,
    map_enumeration,
    member_semidecide,
    restrict_detachable,
    run,
    to_detachable,
    union_countable,
)

EQ = SemiDecidableEquality.from_decidable()


def test_from_iterable_elements():
    e = Enumeration.from_iterable(["p", "q", "p", "r"])
    assert e.bound == 3
    assert e.elements() == ["p", "q", "r"]
    assert e.alpha(0) == "p"
    assert e.alpha(10) is BLANK


def test_empty():
    e = Enumeration.empty()
    assert e.bound == 0
    assert e.elements() == []


def test_elements_needs_bound():
    e = Enumeration(lambda n: n)
    with pytest.raises(MissingSurjectivityBound):
        e.elements()


def test_map_enumeration():
    e = Enumeration.from_iterable([1, 2, 3])
    doubled = map_enumeration(lambda x: 2 * x, e)
    assert doubled.elements() == [2, 4, 6]


def test_detachable_round_trip():
    e = Enumeration.from_iterable(["a", "b", "c"])
    d, g = to_detachable(e)
    assert d.chi(0) and d.chi(2)
    assert g(1) == "b"
    back = from_detachable(d, g, bound=e.bound)
    assert ext_equal_finite(e, back)


def test_to_detachable_blank_raises():
    e = Enumeration.from_iterable(["a"])
    d, g = to_detachable(e)
    assert not d.chi(5)
    with pytest.raises(ValueError):
        g(5)


def test_restrict_detachable():
    e = Enumeration.from_iterable(["a", "b", "c", "d"])
    kept = restrict_detachable(e, lambda x: x in ("b", "d"))
    assert sorted(kept.elements()) == ["b", "d"]
    via_subset = restrict_detachable(e, DetachableSubset(lambda x: x == "a"))
    assert via_subset.elements() == ["a"]


def test_union_countable_against_set_oracle():
    rng = random.Random(11)
    universe = "vwxyz"
    for _ in range(60):
        k = rng.randrange(1, 4)
        members = {}
        expected = set()
        for i in range(k):
            vals = [rng.choice(universe) for _ in range(rng.randrange(0, 4))]
            members[i] = Enumeration.from_iterable(vals)
            expected |= set(vals)
        got = union_countable(Enumeration.from_iterable(range(k)), members)
        assert set(got.elements()) == expected
        assert got.bound is not None


def test_union_countable_bound_needs_every_member_bounded():
    index = Enumeration.from_iterable(["a", "b"])
    members = {"a": Enumeration.from_iterable(["x"]),
               "b": Enumeration(lambda n: "y")}
    assert union_countable(index, members).bound is None
    assert union_countable(index, lambda i: members["a"]).bound is not None


def test_union_countable_skips_a_blank_index_entry():
    # index 1 is blank, and the member at index 2 holds the last values
    index = Enumeration(lambda n: {0: "a", 2: "b"}.get(n, BLANK), bound=2)
    members = {"a": Enumeration.from_iterable(["x", "y"]),
               "b": Enumeration.from_iterable(["z", "w", "v"])}
    got = union_countable(index, members)
    assert sorted(got.elements()) == ["v", "w", "x", "y", "z"]
    # the last value of the last member sits at the bound itself
    assert got.alpha(got.bound) == "v"


def test_intersect_binary_against_set_oracle():
    rng = random.Random(12)
    universe = "vwxyz"
    for _ in range(40):
        xs = [rng.choice(universe) for _ in range(rng.randrange(0, 4))]
        ys = [rng.choice(universe) for _ in range(rng.randrange(0, 4))]
        e = intersect_binary(Enumeration.from_iterable(xs),
                             Enumeration.from_iterable(ys), EQ)
        expected = set(xs) & set(ys)
        for v in universe:
            res = run(member_semidecide(v, e, EQ), 3000)
            if v in expected:
                assert isinstance(res, Confirmed), (xs, ys, v)
            else:
                assert res is not None and not isinstance(res, Confirmed)


def test_member_semidecide_frozen_steps():
    # stage k decodes to (index, equality budget); q sits at index 1,
    # equality confirms at budget 0, and pair_encode(1, 0) == 1.
    e = Enumeration.from_iterable(["p", "q"])
    assert run(member_semidecide("p", e, EQ), 100) == Confirmed(0)
    assert run(member_semidecide("q", e, EQ), 100) == Confirmed(1)


def test_ext_equal_finite():
    e1 = Enumeration.from_iterable(["a", "b"])
    e2 = Enumeration.from_iterable(["b", "a", "a"])
    e3 = Enumeration.from_iterable(["a"])
    assert ext_equal_finite(e1, e2)
    assert not ext_equal_finite(e1, e3)
    with pytest.raises(MissingSurjectivityBound):
        ext_equal_finite(e1, Enumeration(lambda n: "a"))


def test_detachable_subset_operations_agree_with_sets():
    carrier = range(8)
    rng = random.Random(3)
    for _ in range(20):
        a = {x for x in carrier if rng.random() < 0.5}
        b = {x for x in carrier if rng.random() < 0.5}
        da, db = DetachableSubset.from_set(a), DetachableSubset.from_set(b)
        for subset, expected in ((da, a),
                                 (da.complement(), set(carrier) - a),
                                 (da.union(db), a | b),
                                 (da.intersect(db), a & b)):
            assert {x for x in carrier if subset.chi(x)} == expected
