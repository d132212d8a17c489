"""Enumerated countable sets and their operations against set oracles.

elements() is compared with list_elements, the list scan it replaced,
and the == comparisons it and ext_equal_finite make are counted.
Every enumeration built here lists itself by a lister: from_iterable
by its items, a union by its index's and members' listings, and the
dovetails of intersect_binary and free_meet by their (n, m) pairs.
Their listings are compared with the scan over every code on seeded
inputs (budgeted equalities, gaps, values past the bound,
TOP_GENERATOR, cut bounds), also through map_enumeration and
restrict_detachable, and on seeded trees of all of these.  The pick
and alpha calls of a 26 x 26 listing, plain, mapped and restricted,
the alpha calls of a union of bare alphas and the probes of an
intersection under a decided equality are counted.
"""

import random
from math import isqrt

import pytest

from sigmaloc import (
    BLANK,
    Confirmed,
    DetachableSubset,
    Enumeration,
    MissingSurjectivityBound,
    SemiDecidableEquality,
    SemiDecision,
    TOP_GENERATOR,
    ext_equal_finite,
    extend_equality_to_free,
    free_meet,
    from_detachable,
    intersect_binary,
    map_enumeration,
    member_semidecide,
    restrict_detachable,
    run,
    to_detachable,
    union_countable,
)

from oracles import list_elements

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


def seeded_value(rng):
    """A blank, a scalar among ==-equal ones of other types (1, True,
    1.0; 0, False, 0.0), or a frozenset or tuple built anew, so equal
    values are distinct objects."""
    kind = rng.randrange(4)
    if kind == 0:
        return BLANK
    if kind == 1:
        return rng.choice([0, 1, 2, True, False, 1.0, 0.0, "a", None])
    if kind == 2:
        return frozenset(rng.sample(range(3), rng.randint(0, 2)))
    return tuple(rng.randrange(2) for _ in range(rng.randint(0, 2)))


def test_elements_match_the_list_scan():
    rng = random.Random(19)
    collapsed = 0
    for _ in range(300):
        items = [seeded_value(rng) for _ in range(rng.randint(0, 25))]
        kind = rng.randrange(3)
        if kind == 0:
            e = Enumeration.from_iterable(items)
        elif kind == 1 and items:
            e = Enumeration(lambda n, items=items: items[n % len(items)],
                            bound=rng.randrange(2 * len(items)))
        else:
            e = Enumeration(Enumeration.from_iterable(items).alpha,
                            bound=rng.randrange(len(items) + 3))
        got, expected = e.elements(), list_elements(e)
        # the same objects: the first occurrence of each value is kept
        assert [id(v) for v in got] == [id(v) for v in expected], items
        # distinct objects merged because they are ==
        shown = {id(e.alpha(n)) for n in range(e.bound + 1)} - {id(BLANK)}
        collapsed += len(got) < len(shown)
    assert collapsed > 100


class CountedEq:
    """A hashable value that counts the == comparisons made on it."""

    calls = 0

    def __init__(self, key):
        self.key = key

    def __hash__(self):
        return hash(self.key)

    def __eq__(self, other):
        CountedEq.calls += 1
        return isinstance(other, CountedEq) and self.key == other.key


def test_listing_compares_a_few_times_per_value():
    size = 2000
    values = [CountedEq(i) for i in range(size)] + \
        [CountedEq(i) for i in range(size)]
    e1 = Enumeration.from_iterable(values)
    e2 = Enumeration.from_iterable(CountedEq(i) for i in reversed(range(size)))
    CountedEq.calls = 0
    listed = e1.elements()
    assert [id(v) for v in listed] == [id(v) for v in values[:size]]
    assert CountedEq.calls <= 2 * len(values)
    CountedEq.calls = 0
    assert ext_equal_finite(e1, e2)
    assert CountedEq.calls <= 2 * (len(values) + size)


def budgeted_equality(rng, last):
    """psi(x, y) confirms x == y at a step drawn per pair of types, at
    most last when last is given, so 1, True and 1.0 confirm at
    different steps; unequal values never confirm."""
    steps = {}

    def psi(x, y):
        if x != y:
            return SemiDecision(lambda k: False)
        key = type(x), type(y)
        if key not in steps:
            steps[key] = rng.randint(0, 3 if last is None else last)
        step = steps[key]
        return SemiDecision(lambda k: k >= step)

    return SemiDecidableEquality(psi, max_confirm_budget=last)


def seeded_input(rng, top):
    """Up to 8 seeded values, some BLANK and some TOP_GENERATOR when
    top is set; blank past the end, cut short, or repeating past its
    bound."""
    items = [TOP_GENERATOR if top and rng.random() < 0.15
             else seeded_value(rng) for _ in range(rng.randint(0, 8))]
    kind = rng.randrange(3)
    if kind == 0:
        return Enumeration.from_iterable(items)
    if kind == 1 and items:
        return Enumeration(lambda n, items=items: items[n % len(items)],
                           bound=rng.randrange(len(items)))
    return Enumeration(Enumeration.from_iterable(items).alpha,
                       bound=rng.randrange(len(items) + 2))


def test_dovetails_list_as_the_code_scan():
    rng = random.Random(20)
    seen = {"budgeted": 0, "cut": 0, "no budget": 0, "top": 0,
            "collapsed": 0}
    for case in range(900):
        last = rng.choice([0, 1, 2, 3, None])
        eq = (EQ if last == 0 and rng.random() < 0.5
              else budgeted_equality(rng, last))
        meet = case % 2
        e1, e2 = seeded_input(rng, meet), seeded_input(rng, meet)
        e = (free_meet(e1, e2, extend_equality_to_free(eq)) if meet
             else intersect_binary(e1, e2, eq))
        if e.bound is None or rng.random() < 0.3:
            natural = 500 if e.bound is None else e.bound
            e = e._replace(bound=rng.randrange(natural + 1))
            seen["cut"] += 1
            seen["no budget"] += last is None
        got, expected = e.elements(), list_elements(e)
        assert [id(v) for v in got] == [id(v) for v in expected], case
        seen["budgeted"] += eq is not EQ and last is not None and bool(got)
        seen["top"] += any(v is TOP_GENERATOR for v in got)
        shown = {id(e.alpha(k)) for k in range(e.bound + 1)} - {id(BLANK)}
        seen["collapsed"] += len(got) < len(shown)
    assert min(seen.values()) > 50, seen


def test_a_dovetail_lists_by_its_pairs_not_its_codes():
    rng = random.Random(59)
    first = rng.sample(range(52), 26)
    second = rng.sample(first, 13) + rng.sample(
        [x for x in range(52) if x not in first], 13)
    rng.shuffle(second)
    counts = {"psi": 0, "alpha": 0}

    def counted(values):
        def alpha(n):
            counts["alpha"] += 1
            return values[n] if n < len(values) else BLANK
        return Enumeration(alpha, bound=len(values) - 1)

    def psi(x, y):
        counts["psi"] += 1
        return EQ.psi(x, y)

    eq = SemiDecidableEquality(psi, max_confirm_budget=0)
    e = intersect_binary(counted(first), counted(second), eq)
    assert e.bound == 61750
    common = set(first) & set(second)
    # one pick per pair of values, one alpha call per index in reach,
    # also through a map or a restriction of the dovetail
    for listed, expected in (
            (e, sorted(common)),
            (map_enumeration(str, e), sorted(map(str, common))),
            (restrict_detachable(e, lambda v: v % 2),
             sorted(v for v in common if v % 2))):
        counts.update(psi=0, alpha=0)
        assert sorted(listed.elements()) == expected
        assert counts["psi"] <= (len(first) + 1) * (len(second) + 1)
        assert counts["alpha"] <= 2 * isqrt(e.bound) + 2
    # an e1 that lists itself is read by its listing, not past its bound
    e1 = counted(first)
    e1.alpha.lister = Enumeration.from_iterable(first).alpha.lister
    counts.update(psi=0, alpha=0)
    e = intersect_binary(e1, counted(second), eq)
    assert sorted(e.elements()) == sorted(common)
    assert counts["psi"] <= len(first) * (len(second) + 1)
    assert counts["alpha"] <= isqrt(e.bound) + 1


def test_mapped_and_restricted_dovetails_list_as_the_code_scan():
    # str separates ==-equal values (1, True and 1.0), so a map of the
    # deduplicated listing would lose some of them
    rng = random.Random(21)
    maps = (str, repr, lambda v: (type(v).__name__, v))

    def odd_length(v):
        return len(str(v)) % 2 == 1

    def not_bool(v):
        return type(v) is not bool

    seen = {"separated": 0, "restricted": 0, "cut": 0}
    for case in range(400):
        last = rng.choice([0, 1, 2, None])
        eq = budgeted_equality(rng, last)
        meet = case % 2
        e1, e2 = seeded_input(rng, meet), seeded_input(rng, meet)
        e = (free_meet(e1, e2, extend_equality_to_free(eq)) if meet
             else intersect_binary(e1, e2, eq))
        if e.bound is None or rng.random() < 0.3:
            natural = 500 if e.bound is None else e.bound
            e = e._replace(bound=rng.randrange(natural + 1))
            seen["cut"] += 1
        f, test = rng.choice(maps), rng.choice((odd_length, not_bool))
        mapped = map_enumeration(f, e)
        restricted = restrict_detachable(e, test)
        for wrapped in (mapped, map_enumeration(f, restricted),
                        restrict_detachable(mapped, odd_length)):
            got, expected = wrapped.elements(), list_elements(wrapped)
            assert [(type(v), v) for v in got] == \
                [(type(v), v) for v in expected], case
        got, expected = restricted.elements(), list_elements(restricted)
        assert [id(v) for v in got] == [id(v) for v in expected], case
        seen["separated"] += len(mapped.elements()) > len(e.elements())
        seen["restricted"] += len(got) < len(e.elements())
    assert min(seen.values()) >= 10, seen


MAPPED = {}


def mapped(v):
    """The same object for the same type and value, so a map keeps the
    ids the scan compares, but 1, True and 1.0 map apart."""
    return MAPPED.setdefault((type(v), v), (type(v).__name__, v))


def odd_length(v):
    return len(str(v)) % 2 == 1


def seeded_tree(rng, depth, top):
    """An enumeration built by the module's combinators on seeded
    leaves, to the given depth: a union (dict members, callable
    members or a family of enumerations, with blank index entries and
    some members unbounded), an intersection, a free meet, a map or a
    restriction."""
    kind = rng.randrange(6) if depth else 0
    if kind == 0:
        return seeded_input(rng, top)
    if kind == 1:
        children = [seeded_tree(rng, depth - 1, top)
                    for _ in range(rng.randint(0, 3))]
        children = [c._replace(bound=None) if rng.random() < 0.15 else c
                    for c in children]
        form = rng.randrange(3)
        items = list(range(len(children))) if form < 2 else children
        for _ in range(rng.randint(0, 2)):
            items.insert(rng.randint(0, len(items)), BLANK)
        index = Enumeration.from_iterable(items)
        if rng.random() < 0.3:
            index = Enumeration(index.alpha, bound=rng.randrange(
                len(items) + 2))
        if form == 0:
            return union_countable(index, dict(enumerate(children)))
        if form == 1:
            return union_countable(index, lambda i: children[i])
        return union_countable(index, lambda e: e)
    if kind in (2, 3):
        last = rng.choice([0, 1, 2, None])
        eq = budgeted_equality(rng, last)
        e1 = seeded_tree(rng, depth - 1, top)
        e2 = seeded_tree(rng, depth - 1, top)
        if kind == 2:
            return intersect_binary(e1, e2, eq)
        return free_meet(e1, e2, extend_equality_to_free(eq))
    child = seeded_tree(rng, depth - 1, top)
    if kind == 4:
        return map_enumeration(mapped, child)
    return restrict_detachable(child, odd_length)


def test_trees_of_combinators_list_as_the_code_scan():
    rng = random.Random(32)
    seen = {"natural": 0, "cut": 0, "zero": 0, "collapsed": 0}
    for case in range(600):
        e = seeded_tree(rng, rng.randint(1, 3), case % 2)
        natural = e.bound
        if natural is None or natural > 2000 or rng.random() < 0.3:
            cap = 2000 if natural is None else min(natural, 2000)
            e = e._replace(bound=0 if rng.random() < 0.15
                           else rng.randrange(cap + 1))
            seen["cut"] += 1
            seen["zero"] += e.bound == 0
        else:
            seen["natural"] += 1
        got, expected = e.elements(), list_elements(e)
        assert [id(v) for v in got] == [id(v) for v in expected], case
        shown = {id(e.alpha(k)) for k in range(e.bound + 1)} - {id(BLANK)}
        seen["collapsed"] += len(got) < len(shown)
    assert min(seen.values()) >= 30, seen


def test_a_union_reads_its_members_by_index_not_by_code():
    calls = {}

    def counted(name, values):
        def alpha(n):
            calls[name] = calls.get(name, 0) + 1
            return values[n] if n < len(values) else BLANK
        return Enumeration(alpha, bound=len(values) - 1)

    rng = random.Random(32)
    sets = [rng.sample(range(200), 40) for _ in range(4)]
    members = {i: counted(i, s) for i, s in enumerate(sets)}
    index = counted("index", list(range(4)))
    union = union_countable(index, members)
    assert union.bound == 942
    calls.clear()
    assert sorted(union.elements()) == sorted(set().union(*sets))
    # the index up to the bound's diagonal, and each member at every
    # position in reach of its index: pair_encode(n, m) <= 942 for
    # m <= 42 - n from n = 3 on, and m <= 41 - n below it
    assert calls.pop("index") == 43
    assert calls == {0: 42, 1: 41, 2: 40, 3: 40}
    # one call per code before
    assert sum(calls.values()) < (union.bound + 1) / 5


def test_an_intersection_under_a_decided_equality_makes_no_probe(
        monkeypatch):
    probes = []
    probe = SemiDecision.probe

    def counted(self, budget):
        probes.append(budget)
        return probe(self, budget)

    monkeypatch.setattr(SemiDecision, "probe", counted)
    rng = random.Random(32)
    first = rng.sample(range(52), 26)
    second = rng.sample(range(52), 26)
    e1, e2 = Enumeration.from_iterable(first), Enumeration.from_iterable(second)
    common = sorted(set(first) & set(second))
    assert sorted(intersect_binary(e1, e2, EQ).elements()) == common
    free = extend_equality_to_free(EQ)
    top = Enumeration.from_iterable([TOP_GENERATOR])
    assert sorted(free_meet(e1, e2, free).elements()) == common
    assert free_meet(top, e2, free).elements() == second
    assert probes == []
