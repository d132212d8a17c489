"""Overtness, congruences, the Booleanization quotient, overlap laws."""

import pytest

from sigmaloc import (
    CheckReport,
    Congruence,
    CoverPresentation,
    NoMaximumFound,
    Positivity,
    RepresentativeDependentPos,
    SizeCapExceeded,
    bool_congruence,
    boolean_lattice,
    chain_lattice,
    check_overt,
    check_overt_cover,
    check_sigma_hom,
    congruence_leq,
    discrete_cover,
    enumerate_congruences,
    envelope_cover,
    find_isomorphism,
    is_congruence,
    is_dense,
    is_overlap_cover,
    is_sigma_overlap_algebra,
    is_strongly_dense,
    quotient,
    smallest_strongly_dense_oracle,
    with_nonzero_pos,
)

from corpus import corpus

CHAIN3, CHAIN3_POS = with_nonzero_pos(chain_lattice(2))


def test_check_overt_passes_nonzero():
    assert check_overt(CHAIN3, CHAIN3_POS)


def test_check_overt_failure_order():
    # positive bottom is reported first
    rep = check_overt(CHAIN3, Positivity.of(["0", "a", "1"]))
    assert rep.detail == "bottom is positive"
    # a non-positive nonzero element trips the positivity axiom; with
    # upward closure intact that is the first failure
    rep = check_overt(CHAIN3, Positivity.of(["1"]))
    assert rep.detail == "positivity axiom fails"
    assert rep.witnesses == ("a",)
    # positive element below a non-positive one trips upward closure
    rep = check_overt(CHAIN3, Positivity.of(["a"]))
    assert rep.detail == "upward closure fails"
    assert rep.witnesses == ("a", "1")


def test_check_overt_join_splitting():
    # pos on the diamond holding only at the top breaks join-splitting:
    # 1 = x join y is positive but neither joinand is
    diamond = boolean_lattice(2)
    rep = check_overt(diamond, Positivity.of(["11"]))
    assert not rep
    assert rep.detail == "join-splitting fails"
    assert rep.witnesses == (("01", "10"),)


def test_congruence_normal_form_and_relates():
    c = Congruence.from_class_ids(("0", "a", "1"), [7, 3, 3])
    assert c.class_of == (0, 1, 1)
    assert c.classes() == (("0",), ("a", "1"))
    assert c.relates("a", "1")
    assert not c.relates("0", "1")
    with pytest.raises(ValueError, match="one class id per element"):
        Congruence.from_class_ids(("0", "a", "1"), [0, 1])


def test_is_congruence():
    good = Congruence.from_class_ids(("0", "a", "1"), [0, 1, 1])
    assert is_congruence(CHAIN3, good)
    # {0,1} vs {a} breaks join compatibility: 0 ~ 1 but 0 v a = a
    # while 1 v a = 1 land in different classes
    bad = Congruence.from_class_ids(("0", "a", "1"), [0, 1, 0])
    assert not is_congruence(CHAIN3, bad)
    other = Congruence.from_class_ids(("0", "1", "a"), [0, 1, 1])
    assert is_congruence(CHAIN3, other) == CheckReport(
        False, "partition is over different elements", ())


def test_congruence_leq_is_refinement():
    fine = Congruence.identity(CHAIN3)
    coarse = Congruence.from_class_ids(("0", "a", "1"), [0, 1, 1])
    total = Congruence.from_class_ids(("0", "a", "1"), [0, 0, 0])
    assert congruence_leq(fine, coarse)
    assert congruence_leq(coarse, total)
    assert not congruence_leq(coarse, fine)


def test_bool_congruence_chain3():
    c = bool_congruence(CHAIN3, CHAIN3_POS)
    assert c.classes() == (("0",), ("a", "1"))


def test_bool_congruence_diamond_is_identity():
    lat, pos = with_nonzero_pos(boolean_lattice(2))
    c = bool_congruence(lat, pos)
    assert c == Congruence.identity(lat)


def test_bool_congruence_requires_overt():
    with pytest.raises(ValueError):
        bool_congruence(CHAIN3, Positivity.of(["1"]))


def test_quotient_chain3():
    c = bool_congruence(CHAIN3, CHAIN3_POS)
    q, projection, qpos = quotient(CHAIN3, c, CHAIN3_POS)
    assert len(q) == 2
    assert check_sigma_hom(projection)
    assert projection("a") == projection("1") == frozenset(["a", "1"])
    assert qpos.holds(frozenset(["a", "1"]))
    assert not qpos.holds(frozenset(["0"]))


def test_quotient_rejects_non_congruences():
    bad = Congruence.from_class_ids(("0", "a", "1"), [0, 1, 0])
    with pytest.raises(ValueError):
        quotient(CHAIN3, bad)


def test_quotient_pos_must_be_class_constant():
    # {0, a} vs {1} is a congruence of the chain, but nonzero pos
    # disagrees inside {0, a}
    c = Congruence.from_class_ids(("0", "a", "1"), [0, 0, 1])
    assert is_congruence(CHAIN3, c)
    with pytest.raises(RepresentativeDependentPos):
        quotient(CHAIN3, c, CHAIN3_POS)


def test_overlap_algebra_frozen_witness():
    ok, witness = is_sigma_overlap_algebra(CHAIN3, CHAIN3_POS)
    assert not ok
    assert witness == ("1", "a")
    lat, pos = with_nonzero_pos(boolean_lattice(2))
    assert is_sigma_overlap_algebra(lat, pos) == (True, None)


def test_is_dense_and_strongly_dense():
    c = bool_congruence(CHAIN3, CHAIN3_POS)
    assert is_dense(CHAIN3, c)
    assert is_strongly_dense(CHAIN3, c, CHAIN3_POS)
    total = Congruence.from_class_ids(("0", "a", "1"), [0, 0, 0])
    assert not is_dense(CHAIN3, total)
    assert not is_strongly_dense(CHAIN3, total, CHAIN3_POS)


def test_enumerate_congruences_chain3():
    family = enumerate_congruences(CHAIN3)
    assert len(family) == 4
    assert [c.classes() for c in family] == [
        (("0", "a", "1"),),
        (("0", "a"), ("1",)),
        (("0",), ("a", "1")),
        (("0",), ("a",), ("1",)),
    ]


def test_enumerate_congruences_cap(monkeypatch):
    # the guard is on the 2^|J(L)| congruences, not on the elements:
    # bool4 (16 elements, |J| = 4) and the 16-element chain (|J| = 15)
    # answer, and the 17-element chain is refused before any is listed
    assert len(enumerate_congruences(boolean_lattice(4))) == 16
    assert len(enumerate_congruences(chain_lattice(15))) == 1 << 15

    def listing(*_args):
        raise AssertionError("a congruence was listed")

    # every Congruence is made through its constructor, so this trips
    # on a listing, as the 2-element chain shows
    monkeypatch.setattr(Congruence, "__new__", listing)
    with pytest.raises(AssertionError, match="^a congruence was listed$"):
        enumerate_congruences(chain_lattice(1))
    with pytest.raises(SizeCapExceeded,
                       match="^more than 32768 congruences$"):
        enumerate_congruences(chain_lattice(16))


def test_smallest_strongly_dense_matches_bool_congruence():
    for name, lat in corpus()[:10]:
        lat, pos = with_nonzero_pos(lat)
        c = bool_congruence(lat, pos)
        assert smallest_strongly_dense_oracle(lat, pos) == c, name


def test_check_overt_cover_discrete():
    p, pos = discrete_cover(["x", "y"])
    assert check_overt_cover(p, pos)
    # making the empty set positive breaks splitting at U = {}
    bad = Positivity.of(list(p.base))
    rep = check_overt_cover(p, bad)
    assert not rep
    assert rep.detail == "cover splitting fails"


def test_check_overt_cover_witness_is_first_in_base_order():
    # top <| a covers both positive elements b and top; the witness used
    # to be whichever a frozenset of them yielded first, which varied
    # with the hash seed
    base = ["bot", "a", "b", "top"]
    p = CoverPresentation.finite(
        base, lambda x, y: base[min(base.index(x), base.index(y))], "top",
        [("top", ("a",)), ("bot", ())])
    report = check_overt_cover(p, Positivity.of(["b", "top"]))
    assert report.detail == "cover splitting fails"
    assert report.witnesses == ("b", ("a",))


def test_is_overlap_cover_frozen_cases():
    p, pos = discrete_cover(["x", "y", "z"])
    assert is_overlap_cover(p, pos) == (True, None)
    chain_env, _ = envelope_cover(CHAIN3)
    ok, witness = is_overlap_cover(chain_env, Positivity.of(["a", "1"]))
    assert not ok
    assert witness == ("1", ("a",))


def test_is_overlap_cover_precondition():
    from sigmaloc import CoverError
    p, _pos = discrete_cover(["x", "y"])
    with pytest.raises(CoverError):
        is_overlap_cover(p, Positivity.of(list(p.base)))


def test_booleanization_is_idempotent_on_chain():
    c = bool_congruence(CHAIN3, CHAIN3_POS)
    q, _, qpos = quotient(CHAIN3, c, CHAIN3_POS)
    c2 = bool_congruence(q, qpos)
    q2, _, _ = quotient(q, c2, qpos)
    assert find_isomorphism(q2, q) is not None


def test_no_maximum_found_is_reachable_in_principle():
    # sanity: the falsification branch exists and raising it is how a
    # counterexample would surface; on valid overt inputs it must not
    # trigger (covered by the oracle equality test above)
    assert issubclass(NoMaximumFound, Exception)


def test_a_family_without_a_coarsest_dense_member_raises(monkeypatch):
    # an empty family has no maximum: what a counterexample would show
    monkeypatch.setattr("sigmaloc.booleanization.enumerate_congruences",
                        lambda lattice: [])
    with pytest.raises(NoMaximumFound) as info:
        smallest_strongly_dense_oracle(CHAIN3, CHAIN3_POS)
    assert str(info.value) == \
        "strongly dense congruences have no coarsest member"
