"""Cover presentations: saturation, derivation search, frames, envelopes."""

import random
import time

import pytest

from sigmaloc import (
    ABSURD,
    UNKNOWN,
    BaseTooLarge,
    Confirmed,
    CoverError,
    CoverPresentation,
    Enumeration,
    MissingSurjectivityBound,
    Positivity,
    baire_cover,
    boolean_lattice,
    cantor_cover,
    chain_lattice,
    check_compactness,
    check_formal_cover_axioms,
    check_overt_cover,
    derive,
    derive_with_trace,
    discrete_cover,
    envelope_cover,
    frame_of_presentation,
    is_overlap_cover,
    relation_as_morphism,
    run,
    saturate,
)

from corpus import corpus


def two_cover():
    # bot < x, y < top with x, y incomparable; top covered by {x, y}
    base = ["bot", "x", "y", "top"]
    meets = {}
    for a in base:
        for b in base:
            if a == b:
                meets[(a, b)] = a
            elif a == "top":
                meets[(a, b)] = b
            elif b == "top":
                meets[(a, b)] = a
            else:
                meets[(a, b)] = "bot"
    return CoverPresentation.finite(
        base=base, meet=meets, top="top",
        axioms=[("top", ("x", "y")), ("bot", ())])


def test_finite_requires_total_meet():
    with pytest.raises(CoverError):
        CoverPresentation.finite(base=["a", "b"], meet={("a", "a"): "a"},
                                 top="a", axioms=[])


def test_meet_laws_checked():
    bad = {("a", "a"): "a", ("a", "b"): "a", ("b", "a"): "b",
           ("b", "b"): "b"}
    with pytest.raises(CoverError):
        CoverPresentation.finite(base=["a", "b"], meet=bad, top="a",
                                 axioms=[])


def test_saturate_two_cover():
    p = two_cover()
    assert saturate(p, ("x", "y")) == frozenset(["bot", "x", "y", "top"])
    assert saturate(p, ("x",)) == frozenset(["bot", "x"])
    assert saturate(p, ()) == frozenset(["bot"])
    assert saturate(p, ("top",)) == frozenset(["bot", "x", "y", "top"])


def test_saturate_is_a_closure_operator():
    p = two_cover()
    rng = random.Random(5)
    for _ in range(30):
        u = tuple(a for a in p.base if rng.random() < 0.5)
        v = tuple(a for a in p.base if rng.random() < 0.5)
        su = saturate(p, u)
        assert set(u) <= su
        assert saturate(p, tuple(su)) == su
        if set(u) <= set(v):
            assert su <= saturate(p, v)


def test_derive_agrees_with_saturate_on_two_cover():
    p = two_cover()
    for a in p.base:
        for mask in range(16):
            u = tuple(p.base[i] for i in range(4) if mask >> i & 1)
            expected = a in saturate(p, u)
            got = run(derive(p, a, u), 10000)
            assert isinstance(got, Confirmed) == expected, (a, u)


def test_derive_refl_confirms_at_zero():
    p = two_cover()
    assert run(derive(p, "x", ("x",)), 10) == Confirmed(0)


def test_derive_unknown_is_stable_on_finite_failure():
    p = two_cover()
    sd = derive(p, "top", ("x",))
    assert run(sd, 50000) is UNKNOWN
    assert not sd.confirmed(50000)


def test_a_refuted_derive_stops_probing():
    # top is not below the bottom: the search at effort 8 is complete
    # and fails, so no budget probes past it
    lattice = chain_lattice(3)
    p, _embedding = envelope_cover(lattice)
    sd = derive(p, lattice.top, (lattice.bottom,))
    stage = sd._stage
    calls = []

    def counted(k):
        calls.append(k)
        assert len(calls) <= 8, "probed past the refutation"
        return stage(k)

    sd._stage = counted
    assert run(sd, 10 ** 9) is UNKNOWN
    assert run(sd, 10 ** 12) is UNKNOWN


def test_derive_rejects_unknown_elements():
    p = two_cover()
    with pytest.raises(CoverError):
        derive(p, "zz", ("x",))


def test_trace_replays_the_confirmed_bucket():
    p = two_cover()
    res = run(derive(p, "top", ("x", "y")), 100)
    assert isinstance(res, Confirmed)
    trace = derive_with_trace(p, "top", ("x", "y"), res.at_step)
    assert trace[0] in ("refl", "below", "axiom", "axiom-in-cover")
    assert trace[1] == "top"


def test_cantor_slices_confirm_at_frozen_steps():
    p = cantor_cover()
    expected = {1: 1, 2: 2, 3: 4, 4: 8}
    for n, step in expected.items():
        u = [format(i, "0%db" % n) for i in range(1 << n)]
        assert run(derive(p, "", u), 100) == Confirmed(step), n


def test_cantor_proper_subcover_stays_unknown():
    p = cantor_cover()
    t0 = time.time()
    assert run(derive(p, "0", ["00"]), 10 ** 5) is UNKNOWN
    assert not derive(p, "0", ["00"]).confirmed(10 ** 5)
    assert time.time() - t0 < 30.0
    # one search per effort bucket: a large budget is not a linear scan
    t0 = time.time()
    assert run(derive(p, "", ["00", "01", "10"]), 10 ** 9) is UNKNOWN
    baire = baire_cover()
    stranger = derive(baire, (5, 2), baire.axioms_of((3,))[0])
    assert run(stranger, 10 ** 4) is UNKNOWN
    assert time.time() - t0 < 5.0


def test_cantor_absurd_and_refl():
    p = cantor_cover()
    assert run(derive(p, ABSURD, ()), 10) == Confirmed(0)
    assert run(derive(p, "01", ["01"]), 10) == Confirmed(0)


def test_baire_child_cover_discharges_identically():
    p = baire_cover()
    u = p.axioms_of(())[0]
    assert run(derive(p, (), u), 10) == Confirmed(0)
    deeper = p.axioms_of((3,))[0]
    assert run(derive(p, (3,), deeper), 10) == Confirmed(0)


def test_baire_up_rule_reaches_prefix_cover():
    p = baire_cover()
    u = p.axioms_of(())[0]
    # (5,) is below the root, whose own cover is u
    res = run(derive(p, (5,), u), 1000)
    assert isinstance(res, Confirmed)


def test_frame_of_two_cover_is_diamond():
    p = two_cover()
    frame = frame_of_presentation(p)
    assert len(frame) == 4
    from sigmaloc import find_isomorphism
    assert find_isomorphism(frame, boolean_lattice(2)) is not None


class _FakeFinite:
    def __init__(self, base):
        self.base = base


def test_frame_cap_fires_before_any_sweep():
    with pytest.raises(BaseTooLarge):
        frame_of_presentation(_FakeFinite(list("abcdefghijklmnopq")),
                              max_base=15)


def test_envelope_chain3_axiom_count_and_frame():
    lat = chain_lattice(2)
    p, embedding = envelope_cover(lat)
    assert len(p.axioms) == 15
    frame = frame_of_presentation(p)
    assert len(frame) == 3
    assert embedding["0"] == frozenset(["0"])
    assert embedding["1"] == frozenset(["0", "a", "1"])


def test_envelope_embedding_is_order_embedding():
    # the embedding is read off the lattice; the saturations it stands
    # for are computed here and embed the order
    for name, lat in corpus()[:12]:
        p, embedding = envelope_cover(lat)
        sat = {a: saturate(p, (a,)) for a in lat.elements}
        assert embedding == sat, name
        for a in lat.elements:
            for b in lat.elements:
                assert (sat[a] <= sat[b]) == lat.leq(a, b), name


def test_cover_laws_hold_on_envelopes():
    for name, lat in corpus()[:8]:
        p, _ = envelope_cover(lat)
        report = check_formal_cover_axioms(p)
        assert report, (name, report.detail)


def test_cover_laws_are_imposed_by_saturation():
    # the laws are axiom schemes of the generated cover, so even a
    # sparse axiom set yields a saturation satisfying them; the checker
    # guards the closure engine, not the input
    base = ["bot", "x", "y", "top"]
    meets = {}
    for a in base:
        for b in base:
            if a == b:
                meets[(a, b)] = a
            elif a == "top":
                meets[(a, b)] = b
            elif b == "top":
                meets[(a, b)] = a
            else:
                meets[(a, b)] = "bot"
    p = CoverPresentation.finite(base=base, meet=meets, top="top",
                                 axioms=[("top", ("x",))])
    assert check_formal_cover_axioms(p)
    # localization is really in the generated cover: top <| {x} forces
    # y = top meet y to be covered by {x meet y} = {bot}
    assert "y" in saturate(p, ("x",))
    assert saturate(p, ("x",)) == frozenset(base)


def test_check_compactness_frozen_cases():
    lat = chain_lattice(2)
    p, _ = envelope_cover(lat)
    assert check_compactness(p, ("a", "1")) == ("1",)
    assert check_compactness(p, ("1",)) == ("1",)
    assert check_compactness(p, ("0", "a")) is None
    diamond, _ = envelope_cover(boolean_lattice(2))
    assert check_compactness(diamond, ("01", "10")) == ("01", "10")


def test_saturate_and_compactness_read_a_bounded_enumeration():
    p, _pos = discrete_cover(["a", "b"])
    u = (frozenset("a"), frozenset("b"))
    listed = Enumeration.from_iterable(u)
    assert saturate(p, listed) == saturate(p, u)
    assert check_compactness(p, listed) == check_compactness(p, u) == u
    unbounded = Enumeration(lambda n: u[n % 2])
    with pytest.raises(MissingSurjectivityBound):
        saturate(p, unbounded)
    with pytest.raises(MissingSurjectivityBound):
        check_compactness(p, unbounded)


def test_check_compactness_on_corpus_cover_of_top():
    for name, lat in corpus()[:10]:
        p, _ = envelope_cover(lat)
        sub = check_compactness(p, tuple(lat.elements))
        assert sub is not None, name
        assert lat.top in saturate(p, sub)


def test_relation_as_morphism_reports():
    chain2, _ = envelope_cover(chain_lattice(1))
    chain3, _ = envelope_cover(chain_lattice(2))
    good = relation_as_morphism({"0": ["0"], "1": ["1"]}, chain2, chain3)
    assert good
    bad = relation_as_morphism({"0": ["a"], "1": ["1"]}, chain2, chain3)
    assert not bad
    with pytest.raises(CoverError):
        relation_as_morphism({"0": ["0"]}, chain2, chain3)
    images = {"0": Enumeration.from_iterable(["0", "0"]),
              "1": Enumeration.from_iterable(["a", "1"])}
    assert relation_as_morphism(images, chain2, chain3)
    images["1"] = Enumeration.from_iterable(["a"])
    assert not relation_as_morphism(images, chain2, chain3)
    images["1"] = Enumeration.from_iterable(["1", "zz"])
    raises_exactly(CoverError, "relation image 'zz' not in target base",
                   relation_as_morphism, images, chain2, chain3)


def test_set_covers_read_as_sorted_tuples():
    p = two_cover()
    for u in ({"x", "y"}, frozenset({"y"}), set()):
        listed = tuple(sorted(u))
        assert derive(p, "top", u).probe(100) == \
            derive(p, "top", listed).probe(100)
        assert check_compactness(p, u) == check_compactness(p, listed)
    assert derive(p, "top", {"y", "x"}).probe(100) == Confirmed(1)
    assert derive_with_trace(p, "top", {"y", "x"}, 1) == \
        derive_with_trace(p, "top", ("x", "y"), 1)


def test_a_bounded_goal_outside_the_base_is_refused_at_the_call():
    # a finite derive checks a bounded Enumeration goal's elements as
    # it checks a tuple goal, before any probe; a goal of base elements
    # still confirms at the step of its tuple, and an unbounded goal is
    # not listed at the call
    p, _ = envelope_cover(chain_lattice(2))
    for goal in (("zz",), Enumeration.from_iterable(["zz"]),
                 Enumeration.from_iterable(["a", "zz"])):
        raises_exactly(CoverError, "cover member 'zz' not in base",
                       derive, p, "1", goal)
        raises_exactly(CoverError, "cover member 'zz' not in base",
                       derive_with_trace, p, "1", goal, 3)
    for a, u, step in (("a", ("1",), 0), ("1", ("a", "1"), 0),
                       ("0", (), 0), ("1", ("a",), None)):
        listed = Enumeration.from_iterable(u)
        got = derive(p, a, listed).probe(100)
        assert got == derive(p, a, u).probe(100), (a, u)
        assert (got.at_step if isinstance(got, Confirmed) else None) == \
            step, (a, u)
    derive(p, "1", Enumeration(lambda n: "zz"))


def raises_exactly(exc, message, fn, *args):
    """fn(*args) raises exc itself, not a subclass, with this message."""
    with pytest.raises(exc) as info:
        fn(*args)
    assert info.type is exc
    assert str(info.value) == message


def test_finite_only_checks_refuse_a_countable_base():
    p = cantor_cover()
    pos = Positivity.of([""])
    for fn, args in [(saturate, ([""],)),
                     (frame_of_presentation, ()),
                     (check_formal_cover_axioms, ()),
                     (check_compactness, ([""],)),
                     (check_overt_cover, (pos,)),
                     (is_overlap_cover, (pos,))]:
        name = "check_overt_cover" if fn is is_overlap_cover else fn.__name__
        raises_exactly(CoverError, "%s needs a finite base" % name,
                       fn, p, *args)
    raises_exactly(CoverError, "not a base element: 5", derive, p, 5, ["0"])


def test_finite_presentation_refuses_names_outside_its_base():
    def finite(base, top, axioms):
        return CoverPresentation.finite(base, lambda x, y: x if x == y
                                        else "a", top, axioms)

    raises_exactly(CoverError, "empty base", finite, [], "a", [])
    raises_exactly(CoverError, "duplicate base element: 'a'",
                   finite, ["a", "a"], "a", [])
    raises_exactly(CoverError, "top element 'z' not in base",
                   finite, ["a"], "z", [])
    raises_exactly(CoverError, "axiom head 'z' not in base",
                   finite, ["a"], "a", [("z", ())])
    raises_exactly(CoverError, "cover member 'z' not in base",
                   finite, ["a"], "a", [("a", ("z",))])
    raises_exactly(CoverError, "cover member 'y' not in base",
                   finite, ["a"], "a", [("a", ("a", "y", "x", "z"))])
    p = two_cover()
    raises_exactly(CoverError, "meet undefined at ('x', 'zz')",
                   p.meet, "x", "zz")
    raises_exactly(CoverError, "not a base element: 'zz'",
                   p.mask, ["x", "zz"])


CHAIN3 = chain_lattice(2)
CHAIN3_MEET = {(x, y): CHAIN3.meet(x, y)
               for x in CHAIN3.elements for y in CHAIN3.elements}
# commutative and idempotent with t as unit, but
# (a ∧ b) ∧ c = c while a ∧ (b ∧ c) = a
UNASSOCIATIVE = {**{(x, x): x for x in "abct"},
                 **{(x, "t"): x for x in "abc"},
                 **{("t", x): x for x in "abc"},
                 ("a", "b"): "a", ("b", "a"): "a", ("b", "c"): "b",
                 ("c", "b"): "b", ("a", "c"): "c", ("c", "a"): "c"}


@pytest.mark.parametrize("base, meet, top, axioms, message", [
    (["0", "a", "1", "a"], CHAIN3_MEET, "1", [],
     "duplicate base element: 'a'"),
    (["0", "a", "1"], CHAIN3_MEET, "z", [], "top element 'z' not in base"),
    (list("abct"), UNASSOCIATIVE, "t", [],
     "meet not associative at ('a', 'b', 'c')"),
    (["0", "a", "1"], {**CHAIN3_MEET, ("0", "a"): "a"}, "1", [],
     "meet not commutative at ('0', 'a')"),
    (["0", "a", "1"],
     {k: v for k, v in CHAIN3_MEET.items() if k != ("a", "1")}, "1", [],
     "meet table missing pair ('a', '1')"),
    (["0", "a", "1"], CHAIN3_MEET, "1", [("1", ("a",)), ("z", ())],
     "axiom head 'z' not in base"),
    (["0", "a", "1"], CHAIN3_MEET, "1", [("1", ("a",)), ("a", ("0", "z"))],
     "cover member 'z' not in base"),
])
def test_finite_keeps_the_checks_the_envelope_skips(base, meet, top, axioms,
                                                    message):
    # envelope_cover builds on a validated lattice's own tables without
    # these checks; every other caller of finite still gets them
    raises_exactly(CoverError, message, CoverPresentation.finite,
                   base, meet, top, axioms)


@pytest.mark.parametrize("p, a, u, at_step", [
    (discrete_cover(["a", "b"])[0], "zz", (), 0),
    (cantor_cover(), 5, ("0",), 3),
    (cantor_cover(), "x2", ("0",), 3),
])
def test_derive_with_trace_refuses_what_derive_refuses(p, a, u, at_step):
    message = "not a base element: %r" % (a,)
    raises_exactly(CoverError, message, derive, p, a, u)
    raises_exactly(CoverError, message, derive_with_trace, p, a, u, at_step)


def test_derive_with_trace_refuses_a_negative_step():
    raises_exactly(ValueError, "at_step must be a natural number",
                   derive_with_trace, cantor_cover(), "0", ("0",), -5)
