"""Finite lattice validation, homomorphisms, and the free layer."""

import random

import pytest

from sigmaloc import (
    Enumeration,
    LatticeError,
    MissingMeetOrJoin,
    MissingSurjectivityBound,
    NotAPartialOrder,
    NotDistributive,
    SemiDecidableEquality,
    SigmaFrameHom,
    TOP_GENERATOR,
    boolean_lattice,
    chain_lattice,
    check_sigma_hom,
    extend_equality_to_free,
    extend_to_free,
    extend_to_free_table,
    find_isomorphism,
    free_bottom,
    free_class_of,
    free_element,
    free_ext_equal,
    free_generator,
    free_join,
    free_lattice,
    free_meet,
    free_top,
    lattice_from_leq_pairs,
    respects_disjointness,
    validate_lattice,
)

EQ = extend_equality_to_free(SemiDecidableEquality.from_decidable())


def test_validate_chain():
    lat = validate_lattice(["0", "a", "1"],
                           lambda x, y: "0a1".index(x) <= "0a1".index(y))
    assert lat.bottom == "0" and lat.top == "1"
    assert lat.meet("a", "1") == "a"
    assert lat.join("a", "0") == "a"
    assert lat.meet_all([]) == "1"
    assert lat.join_all([]) == "0"


def test_validate_rejects_non_orders():
    with pytest.raises(NotAPartialOrder):
        validate_lattice([0, 1], lambda x, y: True)
    skips = {(0, 1), (1, 2)}
    with pytest.raises(NotAPartialOrder):
        validate_lattice([0, 1, 2], lambda x, y: x == y or (x, y) in skips)


def test_validate_rejects_posets_without_meets():
    # two incomparable atoms with two incomparable coatoms: no meets
    elements = ["a", "b", "c", "d"]
    order = {("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")}

    def leq(x, y):
        return x == y or (x, y) in order

    with pytest.raises(MissingMeetOrJoin):
        validate_lattice(elements, leq)


def test_validate_rejects_nondistributive():
    # the diamond M3: three incomparable middles
    elements = ["0", "x", "y", "z", "1"]

    def leq(a, b):
        return a == b or a == "0" or b == "1"

    with pytest.raises(NotDistributive):
        validate_lattice(elements, leq)


def test_lattice_from_leq_pairs_closure():
    lat = lattice_from_leq_pairs(["0", "a", "b", "1"],
                                 [("0", "a"), ("a", "b"), ("b", "1")])
    assert lat.leq("0", "1")
    assert lat.meet("a", "b") == "a"


def test_check_sigma_hom_catches_each_law():
    c2 = chain_lattice(1)
    c3 = chain_lattice(2)
    ok = SigmaFrameHom(c2, c3, {"0": "0", "1": "1"})
    assert check_sigma_hom(ok)
    bad_top = SigmaFrameHom(c2, c3, {"0": "0", "1": "a"})
    assert check_sigma_hom(bad_top).detail == "top not preserved"
    missing = SigmaFrameHom(c2, c3, {"0": "0"})
    assert check_sigma_hom(missing).detail == "unmapped element"
    diamond = boolean_lattice(2)
    not_join = SigmaFrameHom(diamond, chain_lattice(1),
                             {"00": "0", "01": "0", "10": "0", "11": "1"})
    report = check_sigma_hom(not_join)
    assert not report and report.detail == "join not preserved"


def test_find_isomorphism():
    c3 = chain_lattice(2)
    other = validate_lattice(["x", "y", "z"],
                             lambda a, b: "xyz".index(a) <= "xyz".index(b))
    iso = find_isomorphism(c3, other)
    assert iso == {"0": "x", "a": "y", "1": "z"}
    assert find_isomorphism(c3, boolean_lattice(2)) is None
    assert find_isomorphism(boolean_lattice(2), chain_lattice(3)) is None


def test_free_lattice_shape():
    lat = free_lattice(["u", "v"])
    assert len(lat) == 5
    assert lat.bottom == frozenset()
    assert lat.top == frozenset({TOP_GENERATOR})
    # generators are atoms here, so distinct generators meet at bottom
    assert lat.meet(frozenset({"u"}), frozenset({"v"})) == lat.bottom
    assert len(free_lattice(["u", "v", "w"])) == 9


def test_free_join_and_class_of():
    e = free_join(Enumeration.from_iterable(
        [free_generator("u"), free_generator("v")]))
    assert free_class_of(e) == frozenset({"u", "v"})
    assert free_class_of(free_bottom()) == frozenset()
    assert free_class_of(free_top()) == frozenset({TOP_GENERATOR})


def test_free_top_absorbs():
    glued = free_element(["u", TOP_GENERATOR])
    assert free_class_of(glued) == frozenset({TOP_GENERATOR})
    assert free_ext_equal(glued, free_top())


def test_free_meet_top_neutral_and_independence():
    m = free_meet(free_top(), free_generator("u"), EQ)
    assert free_class_of(m) == frozenset({"u"})
    both = free_meet(free_element(["u", "v"]), free_element(["v", "w"]), EQ)
    assert free_class_of(both) == frozenset({"v"})
    disjoint = free_meet(free_generator("u"), free_generator("v"), EQ)
    assert free_class_of(disjoint) == frozenset()


def test_free_ext_equal_ignores_order_and_repeats():
    e1 = free_element(["u", "v", "u"])
    e2 = free_element(["v", "u"])
    assert free_ext_equal(e1, e2)
    assert not free_ext_equal(e1, free_element(["u"]))


def test_extend_to_free_needs_bound():
    hom = extend_to_free(["u"], chain_lattice(1), {"u": "1"})
    with pytest.raises(MissingSurjectivityBound):
        hom(Enumeration(lambda n: free_generator("u")))


def test_extension_is_hom_iff_disjointness_respected():
    rng = random.Random(3)
    gens = ["u", "v"]
    lat = boolean_lattice(2)
    for _ in range(40):
        f = {g: rng.choice(lat.elements) for g in gens}
        table = extend_to_free_table(gens, lat, f)
        assert bool(check_sigma_hom(table)) == respects_disjointness(lat, f)


def test_extend_to_free_values():
    gens = ["u", "v"]
    lat = boolean_lattice(2)
    f = {"u": "01", "v": "10"}
    h = extend_to_free(gens, lat, f)
    assert h(free_generator("u")) == "01"
    assert h(free_element(["u", "v"])) == "11"
    assert h(free_bottom()) == "00"
    assert h(free_top()) == "11"


def test_lattice_errors_name_the_bad_element():
    def raises(message, fn, *args):
        with pytest.raises(LatticeError) as info:
            fn(*args)
        assert info.type is LatticeError
        assert str(info.value) == message
        return info.value

    raises("empty carrier", validate_lattice, [], [])
    dup = raises("duplicate element", validate_lattice, ["a", "a"],
                 [[True, True], [True, True]])
    assert dup.witnesses == ("a",)
    unknown = raises("unknown element in order pair: 'z'",
                     lattice_from_leq_pairs, ["a", "b"], [("a", "z")])
    assert unknown.witnesses == ("z",)
    outside = raises("not a lattice element: 'zz'",
                     chain_lattice(2).index, "zz")
    assert outside.witnesses == ("zz",)
