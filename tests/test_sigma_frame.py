"""Finite lattice validation, homomorphisms, and the free layer."""

import random
from itertools import combinations

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
    envelope_cover,
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
    frame_of_presentation,
    lattice_from_leq_pairs,
    respects_disjointness,
    validate_lattice,
)

from corpus import (
    bench_cover_queries,
    corpus,
    downset_lattice,
    product_lattice,
)
from oracles import permutation_isomorphism, text_sorted_isomorphism

EQ = extend_equality_to_free(SemiDecidableEquality.from_decidable())


def test_validate_chain():
    lat = validate_lattice(["0", "a", "1"],
                           lambda x, y: "0a1".index(x) <= "0a1".index(y))
    assert lat.bottom == "0" and lat.top == "1"
    assert lat.meet("a", "1") == "a"
    assert lat.join("a", "0") == "a"
    assert lat.meet_all([]) == "1"
    assert lat.meet_all(["1", "a", "1"]) == "a"
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
    diamond = boolean_lattice(2)
    cases = (
        (c2, c3, {"0": "0", "1": "1"}, True, "sigma-frame homomorphism", ()),
        (c2, c3, {"0": "0"}, False, "unmapped element", ("1",)),
        (c2, c3, {"0": "0", "1": "zz"}, False, "image outside target",
         ("1", "zz")),
        (c2, c3, {"0": "0", "1": "a"}, False, "top not preserved",
         ("1", "a")),
        (c2, c3, {"0": "a", "1": "1"}, False, "bottom not preserved",
         ("0", "a")),
        # 01 and 10 meet at 00, but both go to 1
        (diamond, c3, {"00": "0", "01": "1", "10": "1", "11": "1"}, False,
         "meet not preserved", ("01", "10")),
        # every meet holds, but 01 and 10 join to 11 and both go to 0
        (diamond, c2, {"00": "0", "01": "0", "10": "0", "11": "1"}, False,
         "join not preserved", ("01", "10")),
    )
    for source, target, mapping, ok, detail, witnesses in cases:
        report = check_sigma_hom(SigmaFrameHom(source, target, mapping))
        assert (report.ok, report.detail, report.witnesses) == \
            (ok, detail, witnesses)


def test_find_isomorphism():
    c3 = chain_lattice(2)
    other = validate_lattice(["x", "y", "z"],
                             lambda a, b: "xyz".index(a) <= "xyz".index(b))
    iso = find_isomorphism(c3, other)
    assert iso == {"0": "x", "a": "y", "1": "z"}
    assert find_isomorphism(c3, boolean_lattice(2)) is None
    assert find_isomorphism(boolean_lattice(2), chain_lattice(3)) is None


def assert_order_isomorphism(first, second, iso):
    assert sorted(iso, key=first.elements.index) == first.elements
    assert sorted(iso.values(), key=second.elements.index) == second.elements
    for x in first.elements:
        for y in first.elements:
            assert first.leq(x, y) == second.leq(iso[x], iso[y])


def small_lattices():
    """Corpus lattices and down-set lattices of 4-point posets, each
    poset also under a relabelling of its points, all of at most 7
    elements and each once: isomorphic pairs whose element orders
    differ."""
    out = {}
    for _name, lat in corpus():
        out[repr(lat.elements), tuple(lat.down)] = lat
    pairs = list(combinations(range(4), 2))
    for mask in range(1 << len(pairs)):
        chosen = [pairs[k] for k in range(len(pairs)) if mask >> k & 1]
        for relabel in ((0, 1, 2, 3), (3, 1, 0, 2)):
            lat = downset_lattice(list(range(4)), [
                (relabel[x], relabel[y]) for x, y in chosen])
            out[repr(lat.elements), tuple(lat.down)] = lat
    return [lat for lat in out.values() if len(lat) <= 7]


def test_find_isomorphism_matches_the_permutation_oracle():
    lattices = small_lattices()
    isomorphic = 0
    for first in lattices:
        for second in lattices:
            if len(first) != len(second):
                continue
            iso = find_isomorphism(first, second)
            assert (iso is None) == \
                (permutation_isomorphism(first, second) is None)
            if iso is not None:
                isomorphic += 1
                assert_order_isomorphism(first, second, iso)
    assert isomorphic > len(lattices)


def test_find_isomorphism_places_as_the_text_sort():
    # the label text breaks only ties of signature; the dict, in item
    # order, is the one of the sort that makes every label's text, on
    # every pair of corpus lattices of one size, each corpus envelope's
    # frame with its lattice, and the 31 frame/source pairs of the
    # bench's cover workload
    lattices = [lattice for _name, lattice in corpus()]
    pairs = [(first, second) for first in lattices for second in lattices
             if len(first) == len(second)]
    for lattice in lattices:
        pairs.append((frame_of_presentation(envelope_cover(lattice)[0]),
                      lattice))
    sources = [query.inp[0] for query in bench_cover_queries(59)
               if query.label.startswith("envelope")]
    assert len(sources) == 31
    for source in sources:
        pairs.append((frame_of_presentation(envelope_cover(source)[0]),
                      source))
    found = 0
    for first, second in pairs:
        iso = find_isomorphism(first, second)
        expected = text_sorted_isomorphism(first, second)
        assert iso == expected
        if iso is not None:
            assert list(iso.items()) == list(expected.items())
            found += 1
    assert found > len(lattices) + 31


def test_find_isomorphism_backtracks_on_the_grid():
    # two 2-chains side by side, labelled two ways: both down-set
    # lattices are the 3x3 grid, and the corners (0,1) and (1,0) share a
    # signature, so some placements must be undone
    first = downset_lattice([0, 1, 2, 3], [(0, 3), (1, 2)])
    second = downset_lattice([0, 1, 2, 3], [(0, 1), (2, 3)])
    grid = product_lattice([chain_lattice(2), chain_lattice(2)])
    for a, b in ((first, second), (second, first), (first, grid),
                 (grid, second)):
        assert_order_isomorphism(a, b, find_isomorphism(a, b))
    assert find_isomorphism(first, chain_lattice(8)) is None


def test_find_isomorphism_places_a_thousand_elements():
    # the backtracking keeps its own stack, so its depth is not bounded
    # by the interpreter's recursion limit
    chain = list(range(1100))
    for lattice in (free_lattice(range(10)),
                    lattice_from_leq_pairs(chain, zip(chain, chain[1:]))):
        assert len(lattice) > 1000
        assert_order_isomorphism(lattice, lattice,
                                 find_isomorphism(lattice, lattice))


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
    m = free_meet(free_generator("u"), free_top(), EQ)
    assert free_class_of(m) == frozenset({"u"})
    both = free_meet(free_element(["u", "v"]), free_element(["v", "w"]), EQ)
    assert free_class_of(both) == frozenset({"v"})
    disjoint = free_meet(free_generator("u"), free_generator("v"), EQ)
    assert free_class_of(disjoint) == frozenset()


def test_lifted_equality_decides_the_top_generator():
    assert EQ.psi(TOP_GENERATOR, TOP_GENERATOR).confirmed(0)
    for x, y in ((TOP_GENERATOR, "u"), ("u", TOP_GENERATOR)):
        p = EQ.psi(x, y)
        assert not p.confirmed(10) and p.refuted
    assert EQ.psi("u", "u").confirmed(0)
    assert EQ.max_confirm_budget == 0


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
    # the first element of a pair is checked first
    first = raises("unknown element in order pair: 'y'",
                   lattice_from_leq_pairs, ["a", "b"], [("y", "z")])
    assert first.witnesses == ("y",)
    outside = raises("not a lattice element: 'zz'",
                     chain_lattice(2).index, "zz")
    assert outside.witnesses == ("zz",)
    missing = raises("assignment misses generator 'v'", extend_to_free,
                     ["u", "v"], chain_lattice(1), {"u": "1"})
    assert missing.witnesses == ("v",)
