"""Stock instances behave like their intended structures."""

import pytest

from sigmaloc import (
    ABSURD,
    Confirmed,
    boolean_lattice,
    cantor_cover,
    baire_cover,
    chain_lattice,
    check_formal_cover_axioms,
    check_overt_cover,
    derive,
    discrete_cover,
    failed,
    frame_of_presentation,
    find_isomorphism,
    run,
    saturate,
    validate_lattice,
    with_nonzero_pos,
)

from oracles import index_tables


def test_discrete_cover_shape():
    p, pos = discrete_cover(["x", "y"])
    assert len(p.base) == 4
    assert p.top == frozenset(["x", "y"])
    assert p.meet(frozenset(["x"]), frozenset(["y"])) == frozenset()
    assert pos.holds(frozenset(["x"]))
    assert not pos.holds(frozenset())


def test_discrete_cover_presents_the_powerset():
    p, _pos = discrete_cover(["x", "y"])
    frame = frame_of_presentation(p)
    assert find_isomorphism(frame, boolean_lattice(2)) is not None
    assert check_formal_cover_axioms(p)


def test_discrete_cover_singleton_axioms():
    p, _pos = discrete_cover(["x", "y"])
    both = frozenset(["x", "y"])
    sat = saturate(p, (frozenset(["x"]), frozenset(["y"])))
    assert both in sat
    assert frozenset() in saturate(p, ())


def test_discrete_cover_empty_set_is_degenerate_but_valid():
    p, pos = discrete_cover([])
    assert p.base == [frozenset()]
    assert pos.members == frozenset()
    assert check_overt_cover(p, pos)


def test_cantor_cover_meets():
    p = cantor_cover()
    assert p.meet("0", "01") == "01"
    assert p.meet("01", "0") == "01"
    assert p.meet("0", "1") is ABSURD
    assert p.meet("", "1101") == "1101"
    assert p.meet(ABSURD, "") is ABSURD


def test_cantor_cover_membership_and_uppers():
    p = cantor_cover()
    assert p.contains("0101") and p.contains("") and p.contains(ABSURD)
    assert not p.contains("012")
    assert not p.contains(7)
    assert p.uppers_of("011") == ("", "0", "01")
    assert p.uppers_of("") == ()


def test_cantor_axioms_are_memoized():
    p = cantor_cover()
    assert p.axioms_of("1") is p.axioms_of("1")
    assert p.axioms_of("1") == (("10", "11"),)
    assert p.axioms_of(ABSURD) == ((),)


def test_baire_cover_children():
    p = baire_cover()
    u = p.axioms_of((1, 2))[0]
    assert u.bound is None
    assert u.alpha(0) == (1, 2, 0)
    assert u.alpha(41) == (1, 2, 41)
    assert p.axioms_of((1, 2))[0] is u


def test_baire_meets_and_membership():
    p = baire_cover()
    assert p.meet((1,), (1, 2)) == (1, 2)
    assert p.meet((1,), (2,)) is ABSURD
    assert p.contains(()) and p.contains((0, 5))
    assert not p.contains((-1,))
    assert not p.contains("01")


def test_baire_uppers_and_both_trees_absurd_element():
    p = baire_cover()
    assert p.uppers_of((3, 1, 4)) == ((), (3,), (3, 1))
    assert p.uppers_of(()) == ()
    for q in (cantor_cover(), p):
        assert q.axioms_of(ABSURD) == ((),)
        assert q.uppers_of(ABSURD) == ()


def test_tree_local_covers_list_each_step_once():
    # the uppers list the top, so {top} is listed once
    cantor, baire = cantor_cover(), baire_cover()
    cases = [(cantor, w) for w in ("", "0", "011", "10110")]
    cases += [(baire, t) for t in ((), (4,), (3, 1, 4), (0, 0, 7, 2))]
    cases += [(cantor, ABSURD), (baire, ABSURD)]
    for p, x in cases:
        steps = list(p.local_covers(x))
        assert len(set(steps)) == len(steps), x
        uppers = p.uppers_of(x)
        assert len(steps) == 1 + 2 * len(uppers), x
        if x != p.top and x is not ABSURD:
            assert ((p.top,), x) in steps, x
    assert list(cantor.local_covers(ABSURD)) == [((), ABSURD)]


def test_baire_derive_child_axiom():
    p = baire_cover()
    u = p.axioms_of(())[0]
    assert run(derive(p, (), u), 10) == Confirmed(0)


def test_chain_lattice_labels():
    assert chain_lattice(1).elements == ["0", "1"]
    assert chain_lattice(2).elements == ["0", "a", "1"]
    assert chain_lattice(4).elements == ["0", "a", "b", "c", "1"]
    lat = chain_lattice(3)
    assert lat.leq("a", "b") and not lat.leq("b", "a")


def test_chain_lattice_args():
    with pytest.raises(ValueError):
        chain_lattice(0)
    with pytest.raises(ValueError):
        chain_lattice(31)


def test_boolean_lattice_shape():
    lat = boolean_lattice(3)
    assert len(lat) == 8
    assert lat.bottom == "000" and lat.top == "111"
    assert lat.meet("011", "110") == "010"
    assert lat.join("001", "100") == "101"
    assert boolean_lattice(0).elements == [""]
    with pytest.raises(ValueError):
        boolean_lattice(-1)
    with pytest.raises(ValueError):
        boolean_lattice(7)


def test_boolean_lattice_matches_the_parsed_order():
    # the order that parses each bitstring label at every comparison
    def parsed_leq(x, y):
        return int(x, 2) & int(y, 2) == int(x, 2)

    for k in range(7):
        lat = boolean_lattice(k)
        labels = [format(mask, "0%db" % k) for mask in range(1 << k)]
        expected = validate_lattice(labels if k else [""],
                                    parsed_leq if k else lambda x, y: True)
        assert lat.elements == expected.elements
        assert lat.down == expected.down and lat.up == expected.up
        assert index_tables(lat) == index_tables(expected)


def test_with_nonzero_pos():
    lat, pos = with_nonzero_pos(chain_lattice(3))
    assert not pos.holds(lat.bottom)
    assert all(pos.holds(x) for x in lat.elements if x != lat.bottom)


def test_with_nonzero_pos_refuses_a_lattice_that_is_not_overt(monkeypatch):
    # unreachable on a lattice: nonzero positivity is always overt
    monkeypatch.setattr("sigmaloc.generators.check_overt",
                        lambda lattice, pos: failed("overt laws fail"))
    with pytest.raises(ValueError) as info:
        with_nonzero_pos(chain_lattice(2))
    assert str(info.value) == \
        "nonzero positivity is not overt here: overt laws fail"
