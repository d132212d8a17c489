"""The bitmask cover kernel against the name-based sweeps it replaces.

saturate, frame_of_presentation, check_formal_cover_axioms,
check_overt_cover and is_overlap_cover all read
CoverPresentation.closure; each is compared with its name-based
oracle from oracles.py on corpus envelopes, discrete covers and seeded
random axiom sets, under several seeded positivities each.  The index
meet table of CoverPresentation.finite is compared with the name-pair
validation on seeded, mutated meet tables.
"""

import random
from itertools import combinations

import pytest

from sigmaloc import (
    CoverError,
    CoverPresentation,
    Positivity,
    chain_lattice,
    check_formal_cover_axioms,
    check_overt_cover,
    discrete_cover,
    envelope_cover,
    frame_of_presentation,
    is_overlap_cover,
    saturate,
)

from corpus import corpus
from oracles import (
    cover_laws_sweep,
    frame_sweep,
    name_pair_meet,
    name_saturation,
    overlap_cover_sweep,
    overt_cover_sweep,
    sample_subsets,
    subsets,
)

CORPUS = corpus()


def random_cover(lattice, rng):
    """The lattice's meet-semilattice with a few random axioms."""
    base = list(lattice.elements)
    axioms = []
    for _ in range(rng.randint(1, 6)):
        size = rng.randint(0, min(3, len(base)))
        axioms.append((rng.choice(base), tuple(rng.sample(base, size))))
    return CoverPresentation.finite(base, lattice.meet, lattice.top, axioms)


def positivities(p, rng):
    """Elements not covered by the empty set, two random subsets and
    the upward closures of two more."""
    zero = saturate(p, ())
    out = [Positivity.of(x for x in p.base if x not in zero)]
    for _ in range(2):
        out.append(Positivity.of(x for x in p.base if rng.random() < 0.5))
    for _ in range(2):
        seeds = [x for x in p.base if rng.random() < 0.3]
        out.append(Positivity.of(y for y in p.base
                                 if any(p.meet(x, y) == x for x in seeds)))
    return out


def cases():
    """(name, presentation, positivities) for every compared instance."""
    out = []
    for name, lattice in CORPUS:
        p, _embedding = envelope_cover(lattice)
        out.append(("envelope-" + name, p,
                    positivities(p, random.Random("env" + name))))
    for k in range(1, 4):
        p, pos = discrete_cover(["v%d" % i for i in range(k)])
        out.append(("discrete%d" % k, p,
                    [pos] + positivities(p, random.Random(k))))
    for name, lattice in CORPUS:
        for seed in range(3):
            rng = random.Random("%s-%d" % (name, seed))
            p = random_cover(lattice, rng)
            out.append(("random-%s-%d" % (name, seed), p,
                        positivities(p, rng)))
    return out


CASES = cases()


def test_saturate_matches_the_name_saturation():
    for name, p, _positivities in CASES:
        oracle = name_saturation(p)
        for subset in subsets(p.base):
            assert saturate(p, subset) == oracle(subset), (name, subset)


def test_frame_matches_the_name_sweep():
    for name, p, _positivities in CASES:
        fast = frame_of_presentation(p)
        slow = frame_sweep(p)
        assert fast.elements == slow.elements, name
        assert fast.down == slow.down, name


def test_cover_laws_match_the_name_sweep():
    wide = [("discrete4", discrete_cover(["v%d" % i for i in range(4)])[0]),
            ("envelope-chain13", envelope_cover(chain_lattice(12))[0])]
    for name, p in [(name, p) for name, p, _ in CASES] + wide:
        assert check_formal_cover_axioms(p) == cover_laws_sweep(p), name


def test_cover_laws_sample_draws_the_oracle_subsets(monkeypatch):
    # above 12 base elements the sample must be the same seeded subsets
    # in the same order: each is closed, then its closure is closed
    p, _pos = discrete_cover(["v%d" % i for i in range(4)])
    requested = []
    closure = CoverPresentation.closure

    def recording(self, mask):
        requested.append(mask)
        return closure(self, mask)

    monkeypatch.setattr(CoverPresentation, "closure", recording)
    report = check_formal_cover_axioms(p)
    expected = sample_subsets(p)
    assert report.detail == "cover laws hold (%d subsets checked)" % (
        len(expected),)
    sampled = requested[:2 * len(expected):2]
    assert [p.members(mask) for mask in sampled] == expected


def test_overt_cover_matches_the_name_sweep():
    for name, p, positivity_list in CASES:
        for pos in positivity_list:
            fast = check_overt_cover(p, pos)
            slow = overt_cover_sweep(p, pos)
            assert (fast.ok, fast.detail) == (slow.ok, slow.detail), name
            if fast.detail != "cover splitting fails":
                assert fast.witnesses == slow.witnesses, name
                continue
            # same failing subset; the element is the first positive
            # covered one in base order
            a, subset = fast.witnesses
            assert subset == slow.witnesses[1], name
            covered = saturate(p, subset)
            assert a == next(x for x in p.base
                             if x in covered and pos.holds(x)), name


def test_overlap_cover_matches_the_name_sweep():
    for name, p, positivity_list in CASES:
        for pos in positivity_list:
            expected = overlap_cover_sweep(p, pos)
            if expected is None:
                with pytest.raises(CoverError):
                    is_overlap_cover(p, pos)
            else:
                assert is_overlap_cover(p, pos) == expected, name


def mutated_meet(lattice, rng):
    """The lattice's meet table as a dict on name pairs over its
    shuffled elements, with 0-2 of the faults the validation names: a
    missing pair, a value outside the base, a broken diagonal, a broken
    top row, one side of a pair changed, or both sides of some pairs
    of distinct elements below the top changed (which can only break
    associativity)."""
    base = list(lattice.elements)
    rng.shuffle(base)
    table = {(x, y): lattice.meet(x, y) for x in base for y in base}
    for _ in range(rng.choice((0, 0, 1, 1, 2))):
        x, y, v = rng.choice(base), rng.choice(base), rng.choice(base)
        fault = rng.randrange(6)
        if fault == 0:
            table.pop((x, y), None)
        elif fault == 1:
            table[(x, y)] = "outside"
        elif fault == 2:
            table[(x, x)] = v
        elif fault == 3:
            table[rng.choice(((x, lattice.top), (lattice.top, x)))] = v
        elif fault == 4:
            table[(x, y)] = v
        else:
            for x, y in combinations(base, 2):
                if lattice.top not in (x, y) and rng.random() < 0.3:
                    table[(x, y)] = table[(y, x)] = rng.choice(base)
    return base, table


FAULTS = ("missing pair", "outside the base", "not idempotent",
          "not a meet unit", "not commutative", "not associative")


def test_meet_validation_matches_the_name_pair_oracle():
    rng = random.Random(11)
    seen = set()
    for _round in range(30):
        for _name, lattice in CORPUS:
            base, table = mutated_meet(lattice, rng)
            meet = table if rng.random() < 0.5 else (
                lambda x, y, table=table: table[(x, y)])
            try:
                expected = name_pair_meet(base, meet, lattice.top)
            except (CoverError, KeyError) as err:
                with pytest.raises(type(err)) as raised:
                    CoverPresentation.finite(base, meet, lattice.top, [])
                assert raised.value.args == err.args
                seen.add(next((kind for kind in FAULTS if kind in str(err)),
                              type(err).__name__))
                continue
            p = CoverPresentation.finite(base, meet, lattice.top, [])
            assert {(x, y): p.meet(x, y) for x in base for y in base} == \
                expected
            seen.add("valid")
    assert seen == {"valid", "KeyError"} | set(FAULTS)
