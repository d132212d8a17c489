"""The bitmask cover kernel against the name-based sweeps it replaces.

saturate, frame_of_presentation, check_formal_cover_axioms,
check_overt_cover and is_overlap_cover all read
CoverPresentation.closure; each is compared with its name-based
oracle from oracles.py on corpus envelopes, discrete covers and seeded
random axiom sets, under several seeded positivities each.  The
frame's tables, and its errors on seeded families of closed sets, are
compared with validation on the inclusion matrix.  The index
meet table of CoverPresentation.finite is compared with the name-pair
validation on seeded, mutated meet tables, and its associativity test
by down-sets with the triple loop on seeded idempotent, commutative
tables with a unit, associative or not.  The rule table, which
keeps meet-below and axioms localized below their heads, less
self-headed and subsumed covers, is compared with the oracle's
saturation over the full compiled list, on random axiom sets rich in
both, and on a chain whose closure adds one element per pass, and
derive on it with derive over the full list; the table is compared
with the construction that localizes every axiom at every element
below its head.  closure's grouped table is checked to give back
each head's rules, and closure to match chaining over the rules as
they stand, on whole and on seeded broken presentations.  The
envelope's axioms are compared with their name-based construction,
and its presentation, built on the lattice's own tables, with the one
CoverPresentation.finite validates; its rule table, written from the
join table without compiling or localizing the axioms, is compared
with the compiled one on shuffled corpus, bool6, chain31 and seeded
down-set lattices, and a rule dropped from it, a pair or a singleton,
still fails the laws check.  Its raw axioms are kept as one entry per
cover, its heads' down-sets, compared with a fold of the name-based
list, and the list itself is made only when p.axioms is read.  The closed-set kernel (frames
listed by the closure-start walk, the greedy overt check and the
closed-set overlap test) gets a time bound.  Presentations broken on purpose pin each failing report
of the cover laws check, and on seeded broken ones (a rule dropped,
or raw axioms the rule table does not enforce) the report, witness
included, is compared with the sweep over the rule table as it stands.
Closures on fresh presentations are compared with the oracle's in
decreasing and in shuffled query order.  The laws check and the
closed-set listing must close every closure start of the increasing
sweep, the listing give every name saturation once, in order, and the
laws check fail as the sweep does under a closure broken at one mask,
keep within a work bound in fixpoint passes and in the closures of
each of its phases, and add no passes after the frame has walked the
same starts.
"""

import random
import time
from collections import Counter
from itertools import combinations, count

import pytest

from sigmaloc import (
    CoverError,
    CoverPresentation,
    LatticeError,
    Positivity,
    boolean_lattice,
    chain_lattice,
    check_formal_cover_axioms,
    check_overt_cover,
    derive,
    derive_with_trace,
    discrete_cover,
    envelope_cover,
    frame_of_presentation,
    is_overlap_cover,
    saturate,
    validate_lattice,
)

from sigmaloc import formal_cover
from sigmaloc.reports import failed
from sigmaloc.semidecision import Confirmed

from corpus import corpus, downset_lattice
from oracles import (
    compile_rules,
    compiled_by_name,
    cover_laws_sweep,
    envelope_axioms_by_name,
    fold_by_cover,
    frame_by_matrix,
    frame_sweep,
    full_list_derive,
    name_pair_meet,
    name_saturation,
    overlap_cover_sweep,
    overt_cover_sweep,
    rule_table_saturation,
    sample_subsets,
    subsets,
)

CORPUS = corpus()
# The derive probe budget.  No question of the derive comparison
# confirms later than step 2 (budget 64 gives the same answers), so 4
# also compares one deeper effort bucket.
BUDGET = 4


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


def frame_outcome(build, p):
    """The error class, message and witnesses, or the frame's tables."""
    try:
        frame = build(p)
    except LatticeError as err:
        return type(err), err.args[0], err.witnesses
    if isinstance(frame, tuple):
        return frame
    return (frame.elements, frame.down, frame.meet_table,
            frame.join_table, frame.bottom, frame.top)


def test_frame_matches_the_matrix_build():
    # the frame's tables on every case, then seeded families of masks
    # standing in for the closed sets, with the base or without it and
    # closed under intersection or not, so the constructor meets
    # missing meets and joins and non-distributive lattices
    for name, p, _positivities in CASES:
        assert frame_outcome(frame_of_presentation, p) == \
            frame_outcome(frame_by_matrix, p), name
    rng = random.Random("frame-families")
    seen = set()
    for name, p, _positivities in CASES:
        n = len(p.base)
        full = (1 << n) - 1
        for _ in range(6):
            family = {rng.getrandbits(n) for _ in range(6)}
            if rng.random() < 0.7:
                family.add(full)
            if rng.random() < 0.7:
                family |= {s & t for s in family for t in family}
                family |= {s & t for s in family for t in family}
            p.closed_sets = lambda family=sorted(family): family
            try:
                expected = frame_outcome(frame_by_matrix, p)
                assert frame_outcome(frame_of_presentation, p) == \
                    expected, (name, family)
            finally:
                del p.closed_sets
            seen.add(expected[1] if isinstance(expected[0], type) else "ok")
    assert seen == {"no meet", "no join", "distributivity fails", "ok"}


def test_cover_laws_match_the_name_sweep():
    for name, p in [(name, p) for name, p, _ in CASES] + REDUNDANT:
        assert check_formal_cover_axioms(p) == cover_laws_sweep(p), name
    # each wide presentation has more than 12 base elements, where the
    # oracle samples its subsets unless told to sweep every one, and the
    # check covers every subset
    wide = [("discrete4", discrete_cover(["v%d" % i for i in range(4)])[0],
             True),
            ("envelope-chain13", envelope_cover(chain_lattice(12))[0], True),
            ("envelope-bool5", envelope_cover(boolean_lattice(5))[0], False),
            ("envelope-chain31", envelope_cover(chain_lattice(30))[0], False)]
    for name, p, every in wide:
        report = check_formal_cover_axioms(p)
        sweep = cover_laws_sweep(p, every=every)
        assert (report.ok, report.witnesses) == (sweep.ok, sweep.witnesses)
        assert report.detail == "cover laws hold (%d subsets checked)" % (
            1 << len(p.base),), name
        if every:
            assert report == sweep, name


def sweep_starts(p):
    """The closure starts of the increasing sweep over every subset M
    that it does not find closed already, as masks: cl(M - i) | i for
    the lowest bit i of M, when i is outside cl(M - i); cl is the name
    saturation."""
    saturate = name_saturation(p)
    n = len(p.base)
    cl = [p.mask(saturate(p.members(mask))) for mask in range(1 << n)]
    return {cl[mask & (mask - 1)] | (mask & -mask) for mask in range(1, 1 << n)
            if not cl[mask & (mask - 1)] & mask & -mask}


def test_cover_laws_walk_requests_every_start_of_the_sweep():
    # the laws check and closed_sets read the one walk; closed_sets
    # gives every name saturation, each once, in increasing order
    starts = masks = 0
    for name, p, _ in CASES:
        if len(p.base) > 12:
            continue
        expected = sweep_starts(p)
        saturate = name_saturation(p)
        frame = sorted({p.mask(saturate(p.members(mask)))
                        for mask in range(1 << len(p.base))})
        closure = p.closure
        for walk, result in ((formal_cover._walk_starts, None),
                             (CoverPresentation.closed_sets, frame)):
            requested = set()
            p.closure = lambda mask: requested.add(mask) or closure(mask)
            try:
                assert walk(p) == result, (name, walk.__name__)
            finally:
                del p.closure
            assert expected <= requested, (name, walk.__name__)
        starts += len(expected)
        masks += 1 << len(p.base)
    assert 0 < starts < masks


def test_cover_laws_catch_a_closure_broken_at_one_mask():
    # closure drops a seeded bit of one start of the sweep that is not
    # closed, or grows one seeded closed set by a bit whose closure adds
    # more; the check and the sweep read closure through the same wrapper
    rng = random.Random("faults")
    faults = 0
    for name, p, _ in CASES:
        n = len(p.base)
        if n > 12:
            continue
        closure = p.closure
        starts = [t for t in sorted(sweep_starts(p)) if closure(t) != t]
        grown = rng.choice(p.closed_sets())
        extra = [1 << i for i in range(n) if not grown >> i & 1
                 and closure(grown | 1 << i) != grown | 1 << i]
        wrappers = []
        if starts:
            target = rng.choice(starts)
            bit = 1 << rng.choice([i for i in range(n) if target >> i & 1])

            def dropping(mask, target=target, bit=bit):
                sat = closure(mask)
                return sat & ~bit if mask == target else sat

            wrappers.append(("reflexivity fails", dropping))
        if extra:
            bit = rng.choice(extra)

            def growing(mask, grown=grown, bit=bit):
                sat = closure(mask)
                return sat | bit if sat == grown else sat

            wrappers.append(("saturation not idempotent", growing))
        for detail, wrapper in wrappers:
            p.closure = wrapper
            try:
                report = check_formal_cover_axioms(p)
            finally:
                del p.closure
            sweep = cover_laws_sweep(p, lambda subset: frozenset(
                p.members(wrapper(p.mask(subset)))))
            assert report.detail == sweep.detail == detail, (name, detail)
            if detail == "reflexivity fails":
                assert report == sweep, name
            faults += 1
    assert faults > len(CASES)


def test_cover_laws_name_the_first_failure_of_a_broken_presentation():
    # each presentation is broken after it is built, so closure's table
    # is rebuilt from the edited rules, or the cache of closures it
    # already holds is emptied
    p, _ = envelope_cover(chain_lattice(3))
    assert [p.members(bits) for bits in p._rules[p._base_index["b"]]] == [
        ("1",)]
    p._rules[p._base_index["b"]] = []
    p._group_rules()
    assert check_formal_cover_axioms(p) == failed("meet-left fails",
                                                  ("b", "1"))

    p, _ = envelope_cover(boolean_lattice(2))
    head, pair = p._base_index["11"], p.mask(("01", "10"))
    assert pair in p._rules[head]
    p._rules[head] = [bits for bits in p._rules[head] if bits != pair]
    p._group_rules()
    assert check_formal_cover_axioms(p) == failed(
        "stability fails", ("11", "11", ("01", "10")))

    # the failing axiom shares its cover with an earlier one that
    # passes, and fails at a b other than its head
    bool3 = boolean_lattice(3)
    cover = ("011", "101")
    p = CoverPresentation.finite(bool3.elements, bool3.meet, bool3.top,
                                 [("001", cover), ("111", cover)])
    head, pair = p._base_index["110"], p.mask(("010", "100"))
    assert pair in p._rules[head]
    p._rules[head] = [bits for bits in p._rules[head] if bits != pair]
    p._group_rules()
    assert check_formal_cover_axioms(p) == failed(
        "stability fails", ("111", "110", cover))

    p, _ = envelope_cover(chain_lattice(2))
    closure = p.closure
    p.closure = lambda mask: closure(mask) & ~1
    p._closed = {}
    assert check_formal_cover_axioms(p) == failed("reflexivity fails",
                                                  ("0", ("0",)))

    p, _ = envelope_cover(chain_lattice(2))
    closure, calls = p.closure, count()
    p.closure = lambda mask: closure(mask) | 1 << next(calls)
    p._closed = {}
    report = check_formal_cover_axioms(p)
    assert not report.ok
    assert report.detail == "saturation not idempotent"


def drop_one_rule(p, rng, copy):
    """p with one seeded rule removed, one of the localized axiom copies
    when copy is set, and closure's table rebuilt from what is left;
    None when p has no such rule.  Dropping a meet-below rule y <| {a}
    mostly breaks meet-left, dropping a copy mostly stability."""
    meet = p.meet_table
    rules = [(h, bits) for h, covers in enumerate(p._rules)
             for bits in covers
             if not (copy and bits & (bits - 1) == 0 and bits
                     and meet[h][bits.bit_length() - 1] == h)]
    if not rules:
        return None
    h, bits = rng.choice(rules)
    p._rules[h] = [rule for rule in p._rules[h] if rule != bits]
    p._group_rules()
    return p


def add_unenforced_axioms(p, rng, count):
    """p with count seeded raw axioms inserted among its axioms after its
    rule table was built, about half of them on covers p already has,
    and the per-cover map the laws check reads refolded from them.
    The rule table does not enforce them, so most fail stability, and
    several failures in one presentation are common."""
    axioms = list(p.axioms)
    for _ in range(count):
        if rng.random() < 0.5:
            cover = rng.choice(axioms)[1]
        else:
            size = rng.randint(1, min(2, len(p.base)))
            cover = p._norm_cover(rng.sample(p.base, size))
        axioms.insert(rng.randrange(len(axioms) + 1),
                      (rng.choice(p.base), cover))
    p.axioms = tuple(axioms)
    p._fold_axioms()
    return p


def test_stability_witnesses_match_the_sweep():
    # stability tests each distinct cover's heads at once and names the
    # first failing axiom only after that; the sweep tests axiom by
    # axiom, over the saturation of the rule table as it stands
    reports = []
    for name, lattice in CORPUS:
        rng = random.Random("broken-" + name)
        broken = []
        for copy in (False, True, True):
            broken.append(drop_one_rule(envelope_cover(lattice)[0], rng, copy))
            broken.append(drop_one_rule(random_cover(lattice, rng), rng, copy))
        # on a shuffled base order, index order is no linear extension
        broken.extend(add_unenforced_axioms(
            envelope_cover(shuffled(lattice, rng))[0], rng, 6)
            for _ in range(2))
        for k, p in enumerate(broken):
            if p is None:
                continue
            report = check_formal_cover_axioms(p)
            assert report == cover_laws_sweep(
                p, rule_table_saturation(p)), (name, k)
            reports.append(report.detail)
    assert len(reports) >= 50
    assert reports.count("stability fails") >= 10


def test_closure_does_not_depend_on_query_order():
    # on a fresh presentation per order, a closure starts from the cached
    # closure of its mask less the lowest bit when there is one; sampled
    # masks come with each of their masks less the lowest bits
    instances = [("envelope-" + name, lambda lattice=lattice:
                  envelope_cover(lattice)[0]) for name, lattice in CORPUS]
    instances += [
        ("envelope-bool5", lambda: envelope_cover(boolean_lattice(5))[0]),
        ("envelope-chain12", lambda: envelope_cover(chain_lattice(11))[0]),
        ("discrete4",
         lambda: discrete_cover(["v%d" % i for i in range(4)])[0])]
    cached = set()
    for name, build in instances:
        p = build()
        oracle = name_saturation(p)
        n = len(p.base)
        rng = random.Random(name)
        if n <= 12:
            masks = list(range(1 << n))
        else:
            masks = set()
            for _ in range(64):
                mask = rng.getrandbits(n)
                while mask:
                    masks.add(mask)
                    mask &= mask - 1
            masks = sorted(masks)
        for order in (masks[::-1], rng.sample(masks, len(masks))):
            p = build()
            p._closed = {}
            for mask in order:
                cached.add(mask & (mask - 1) in p._closed)
                assert p.members(p.closure(mask)) == tuple(
                    x for x in p.base if x in oracle(p.members(mask))), (
                    name, mask)
    assert cached == {True, False}


def test_cover_laws_check_reuses_closures(monkeypatch):
    # one count is one fixpoint pass of closure over its grouped table;
    # the bounds sit near the measured 34 and 656 passes, which a
    # closure adding one head of a group per pass exceeds (79 on chain12)
    class Passes(tuple):
        count = 0

        def __iter__(self):
            Passes.count += 1
            return super().__iter__()

    for lattice, bound in ((chain_lattice(11), 40), (boolean_lattice(5), 700)):
        p, _ = envelope_cover(lattice)
        p._groups = Passes(p._groups)
        p._closed = {}
        Passes.count = 0
        assert check_formal_cover_axioms(p)
        assert 0 < Passes.count <= bound, len(p.base)
    alone = Passes.count  # bool5's envelope, the last above

    # the frame walks the starts the laws check walks, so after the
    # frame the check adds no more passes than it takes alone on a
    # fresh presentation: 656 in all on bool5's envelope, where a frame
    # listing its closed sets by other masks would add its own
    p, _ = envelope_cover(boolean_lattice(5))
    p._groups = Passes(p._groups)
    p._closed = {}
    Passes.count = 0
    assert len(frame_of_presentation(p, max_base=32)) == 32
    assert check_formal_cover_axioms(p)
    assert 0 < Passes.count <= alone

    # the walk closes at most n + 1 masks per closed set, meet-left each
    # singleton once, and stability each distinct raw cover once per y
    # below one of its heads and below none of its members
    for lattice in (chain_lattice(11), boolean_lattice(4)):
        p, _ = envelope_cover(lattice)
        n, closed = len(p.base), len(p.closed_sets())
        requested, ends = [], []
        closure = CoverPresentation.closure
        walk = formal_cover._walk_starts

        def recording(self, mask):
            requested.append(mask)
            return closure(self, mask)

        def walking(p):
            report = walk(p)
            ends.append(len(requested))
            return report

        monkeypatch.setattr(CoverPresentation, "closure", recording)
        monkeypatch.setattr(formal_cover, "_walk_starts", walking)
        assert check_formal_cover_axioms(p)
        monkeypatch.undo()
        [end] = ends
        assert 0 < end <= (n + 1) * closed
        assert requested[end:end + n] == [1 << b for b in range(n)]
        heads = {}
        for head, cover in p.axioms:
            heads.setdefault(cover, set()).add(head)
        ys = sum(1 for cover, hs in heads.items() for y in p.base
                 if any(p.meet(y, h) == y for h in hs)
                 and not any(p.meet(y, c) == y for c in cover))
        assert len(requested) - end - n == ys < len(heads) * n


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


def unit_table(rng):
    """A meet table on 1-7 names that is idempotent and commutative
    with "t" as its unit: intersection on a random family of subsets
    of {0, 1, 2} closed under it (associative), with some pairs of
    other names then given a random name on both sides, or a random
    name at every such pair."""
    family = {frozenset(range(3))}
    for _ in range(rng.randint(0, 6)):
        family.add(frozenset(rng.sample(range(3), rng.randint(0, 3))))
    while True:
        closed = family | {a & b for a in family for b in family}
        if closed == family:
            break
        family = closed
    sets = sorted(family, key=lambda s: (len(s), sorted(s)))
    name = {s: "t" if len(s) == 3 else "s%d" % i for i, s in enumerate(sets)}
    base = sorted(name.values())
    table = {(name[a], name[b]): name[a & b] for a in sets for b in sets}
    mode = rng.randrange(3)
    for x, y in combinations([x for x in base if x != "t"], 2):
        if mode == 2 or (mode == 1 and rng.random() < 0.2):
            table[(x, y)] = table[(y, x)] = rng.choice(base)
    return base, table


def test_associativity_by_down_sets_matches_the_triple_loop():
    # finite() tests associativity on down-set masks in O(n^2) and runs
    # the triple loop only to name the witness
    rng = random.Random(32)
    outcomes = Counter()
    for _ in range(1500):
        base, table = unit_table(rng)
        try:
            expected = name_pair_meet(base, table, "t")
        except CoverError as err:
            with pytest.raises(CoverError) as raised:
                CoverPresentation.finite(base, table, "t", [])
            assert raised.value.args == err.args
            outcomes["not associative" in str(err)] += 1
            continue
        p = CoverPresentation.finite(base, table, "t", [])
        assert {(x, y): p.meet(x, y) for x in base for y in base} == expected
        outcomes["valid"] += 1
    assert outcomes[False] == 0 and min(outcomes.values()) > 300, outcomes


def redundant_cover(lattice, rng):
    """random_cover's axioms plus, for some of them, an axiom whose head
    is in its own cover, a superset cover of the same head, and an
    empty cover of a random element."""
    base = list(lattice.elements)
    axioms = []
    for _ in range(rng.randint(1, 6)):
        size = rng.randint(0, min(3, len(base)))
        head, cover = rng.choice(base), tuple(rng.sample(base, size))
        axioms.append((head, cover))
        extra = [x for x in base if x not in cover]
        if extra and rng.random() < 0.7:
            axioms.append((head, cover + (rng.choice(extra),)))
        if rng.random() < 0.5:
            axioms.append((head, (head,) + tuple(rng.sample(base, 1))))
    if rng.random() < 0.5:
        axioms.append((rng.choice(base), ()))
    return CoverPresentation.finite(base, lattice.meet, lattice.top, axioms)


REDUNDANT = [("redundant-%s-%d" % (name, seed),
              redundant_cover(lattice, random.Random("red-%s-%d"
                                                     % (name, seed))))
             for name, lattice in CORPUS for seed in range(3)]


def test_chaining_table_has_no_self_headed_or_subsumed_axiom():
    dropped = 0
    for name, p in REDUNDANT + [(name, p) for name, p, _ in CASES]:
        meet = p.meet_table
        for head, covers in enumerate(p._rules):
            for cover in covers:
                assert not cover >> head & 1, name
                assert not any(c != cover and not c & ~cover
                               for c in covers), name
                # each rule is meet-below (one member, above its head) or
                # a copy localized below its head
                members = [c for c in range(len(p.base)) if cover >> c & 1]
                assert (len(members) == 1 and meet[head][members[0]] == head
                        or all(meet[c][head] == c for c in members)), name
        dropped += len(compiled_by_name(p)) - sum(map(len, p._rules))
    assert dropped > 0


def test_rule_tables_match_the_compile_oracle():
    # the oracle localizes every axiom at every element below its head
    instances = [("bool5", envelope_cover(boolean_lattice(5))[0]),
                 ("chain31", envelope_cover(chain_lattice(30))[0])]
    instances += REDUNDANT + [(name, p) for name, p, _ in CASES]
    for name, p in instances:
        assert compile_rules(p) == p._rules, name


def test_closure_groups_give_back_the_rules():
    # closure passes over _groups, the covers of _rules grouped by the
    # heads whose rules list them; also on presentations with a seeded
    # rule dropped after the build and the groups rebuilt
    rng = random.Random("groups")
    instances = []
    for name, lattice in CORPUS:
        instances.append(("envelope-" + name, envelope_cover(lattice)[0]))
        instances.append(("random-" + name, random_cover(lattice, rng)))
        for copy in (False, True):
            instances.append(("dropped-envelope-%s-%d" % (name, copy),
                              drop_one_rule(envelope_cover(lattice)[0], rng,
                                            copy)))
            instances.append(("dropped-random-%s-%d" % (name, copy),
                              drop_one_rule(random_cover(lattice, rng), rng,
                                            copy)))
    instances += [
        ("discrete4", discrete_cover(["v%d" % i for i in range(4)])[0]),
        ("envelope-chain12", envelope_cover(chain_lattice(11))[0]),
        ("envelope-bool5", envelope_cover(boolean_lattice(5))[0]),
        ("envelope-bool6", envelope_cover(boolean_lattice(6))[0])]
    checked = 0
    for name, p in instances:
        if p is None:
            continue
        grouped = [bits for _heads, covers in p._groups for bits in covers]
        assert len(grouped) == len(set(grouped)), name
        assert set(grouped) == {bits for covers in p._rules
                                for bits in covers}, name
        for h, covers in enumerate(p._rules):
            assert {bits for heads, group in p._groups if heads >> h & 1
                    for bits in group} == set(covers), (name, h)
        saturate = rule_table_saturation(p)
        for subset in sample_subsets(p):
            sat = saturate(subset)
            assert p.members(p.closure(p.mask(subset))) == tuple(
                x for x in p.base if x in sat), (name, subset)
        checked += 1
    assert checked >= 4 * len(CORPUS)


def downward_chain(k):
    """The chain a0 > a1 > ... > ak with ai <| {a(i+1)}: closure's
    passes visit heads in base order, so closing {ak} adds one element
    per pass."""
    base = ["a%d" % i for i in range(k + 1)]
    return CoverPresentation.finite(
        base, lambda x, y: max(x, y, key=base.index), base[0],
        [(base[i], (base[i + 1],)) for i in range(k)])


def test_reduced_chaining_table_keeps_the_least_fixpoint():
    # saturation, the frame and the laws against the oracles, which
    # chain over the full compiled list
    for name, p in REDUNDANT + [("downward-chain", downward_chain(9))]:
        oracle = name_saturation(p)
        for subset in subsets(p.base):
            assert saturate(p, subset) == oracle(subset), (name, subset)
        fast = frame_of_presentation(p)
        slow = frame_sweep(p)
        assert fast.elements == slow.elements, name
        assert fast.down == slow.down, name
        assert check_formal_cover_axioms(p) == cover_laws_sweep(p), name


def shuffled(lattice, rng):
    """The lattice on a shuffled element order."""
    elements = list(lattice.elements)
    rng.shuffle(elements)
    return validate_lattice(elements, lattice.leq)


def valid_proof(p, u, trace, saturate):
    """Is the derive trace a proof of its element from u?  refl and
    below are checked against u, and each axiom step's head must be in
    the oracle saturation of its cover."""
    kind, x = trace[0], trace[1]
    if kind == "refl":
        return x in u
    if kind == "below":
        return trace[2] in u and p.meet(x, trace[2]) == x
    cover, children = trace[2], trace[3]
    return (kind == "axiom" and x in saturate(cover)
            and len(children) == len(cover)
            and all(child[1] == c and valid_proof(p, u, child, saturate)
                    for c, child in zip(cover, children)))


def test_derive_matches_the_full_list_search():
    # every (a, U) with |U| <= 2; the rule table may name a localized
    # cover where the full list names the raw one, so traces are checked
    # for validity, not compared
    instances = []
    for name, lattice in CORPUS:
        rng = random.Random("order-" + name)
        instances.append(("envelope-" + name, envelope_cover(lattice)[0]))
        instances.extend(("envelope-%s-shuffled%d" % (name, k),
                          envelope_cover(shuffled(lattice, rng))[0])
                         for k in range(2))
    instances += REDUNDANT
    instances += [("discrete%d" % k,
                   discrete_cover(["v%d" % i for i in range(k)])[0])
                  for k in range(1, 4)]
    outcomes = set()
    for name, p in instances:
        oracle = full_list_derive(p)
        saturate = name_saturation(p)
        for size in range(3):
            for u in combinations(p.base, size):
                for a in p.base:
                    got = derive(p, a, u).probe(BUDGET)
                    assert got == oracle(a, u).probe(BUDGET), (name, a, u)
                    outcomes.add(isinstance(got, Confirmed))
                    if isinstance(got, Confirmed):
                        trace = derive_with_trace(p, a, u, got.at_step)
                        assert valid_proof(p, u, trace, saturate), (
                            name, a, u)
    assert outcomes == {True, False}


def test_envelope_axioms_match_the_name_construction():
    lattices = CORPUS + [("bool5", boolean_lattice(5)),
                         ("chain31", chain_lattice(30))]
    for name, lattice in lattices:
        p, _embedding = envelope_cover(lattice)
        assert list(p.axioms) == envelope_axioms_by_name(lattice), name


def test_envelope_matches_the_validated_presentation():
    # envelope_cover builds on the lattice's own tables, unchecked;
    # finite reads and checks them anew from lattice.meet
    rng = random.Random("trusted")
    lattices = CORPUS + [("chain13", chain_lattice(12)),
                         ("bool5", boolean_lattice(5))]
    lattices += [(name + "-shuffled", shuffled(lattice, rng))
                 for name, lattice in CORPUS[::4]]
    for name, lattice in lattices:
        p, _embedding = envelope_cover(lattice)
        q = CoverPresentation.finite(lattice.elements, lattice.meet,
                                     lattice.top,
                                     envelope_axioms_by_name(lattice))
        for field in ("base", "top", "meet_table", "axioms", "_rules"):
            assert getattr(p, field) == getattr(q, field), (name, field)


def closed_form_lattices(rng):
    """The corpus, bool6, chain31 and 300 seeded down-set lattices of
    at most 5 points, each in a shuffled element order."""
    lattices = CORPUS + [("bool6", boolean_lattice(6)),
                         ("chain31", chain_lattice(30))]
    for k in range(300):
        points = "abcde"[:rng.randint(1, 5)]
        pairs = [(x, y) for i, x in enumerate(points) for y in points[i + 1:]
                 if rng.random() < 0.3]
        lattices.append(("down-%d" % k, downset_lattice(list(points), pairs)))
    return [(name, shuffled(lattice, rng)) for name, lattice in lattices]


def test_envelope_rules_match_the_compiler():
    # envelope_cover writes its rule table from the join table; finite
    # compiles the same raw axioms, on a shuffled element order each
    for name, lattice in closed_form_lattices(random.Random("closed-form")):
        p, _embedding = envelope_cover(lattice)
        q = CoverPresentation.finite(lattice.elements, lattice.meet,
                                     lattice.top,
                                     envelope_axioms_by_name(lattice))
        for field in ("axioms", "_raw_covers", "_rules", "_below",
                      "_groups"):
            assert getattr(p, field) == getattr(q, field), (name, field)
        assert compile_rules(p) == p._rules, name


def test_envelope_lists_its_raw_axioms_only_when_read():
    # the envelope keeps one entry per cover, its heads' down-sets;
    # the frame, the laws check and a derive read that map or the rule
    # table, and p.axioms is listed from the map on the first read
    for name, lattice in closed_form_lattices(random.Random("per-cover")):
        p, _embedding = envelope_cover(lattice)
        frame_of_presentation(p, max_base=len(p.base))
        assert check_formal_cover_axioms(p), name
        derive(p, lattice.top, (lattice.bottom,)).probe(BUDGET)
        assert "axioms" not in vars(p), name
        axioms = envelope_axioms_by_name(lattice)
        assert list(p.axioms) == axioms, name
        assert list(p._raw_covers.items()) == list(
            fold_by_cover(p, axioms).items()), name


def test_envelope_embedding_is_the_saturation_of_each_element():
    # the embedding is each element's down-set, read off the lattice;
    # saturating the element under the closed-form table gives the same
    for name, lattice in closed_form_lattices(random.Random("down-sets")):
        p, embedding = envelope_cover(lattice)
        assert list(embedding) == lattice.elements, name
        for a in lattice.elements:
            assert embedding[a] == saturate(p, (a,)), (name, a)


class FirstOfSize:
    """A stand-in for drop_one_rule's rng: its choice is the first rule
    whose cover has size members."""

    def __init__(self, size):
        self.size = size

    def choice(self, rules):
        return next(rule for rule in rules
                    if rule[1].bit_count() == self.size)


def test_envelope_builds_without_compiling(monkeypatch):
    # the raw axioms are neither compiled nor localized, and nothing is
    # saturated; a pair rule or a singleton rule dropped from the table
    # so built still fails the laws check, as the sweep over what is
    # left does
    def refuse(self, *_args):
        raise AssertionError("envelope_cover compiled or saturated")

    named = dict(CORPUS)
    lattices = [("bool2", named["bool2"]), ("2x3", named["2x3"]),
                ("down_y_up", named["down_y_up"]),
                ("bool4", boolean_lattice(4))]
    with monkeypatch.context() as patched:
        patched.setattr(CoverPresentation, "_compile", refuse)
        patched.setattr(CoverPresentation, "_localized", refuse)
        patched.setattr(CoverPresentation, "closure", refuse)
        built = [(name, size, envelope_cover(lattice)[0])
                 for name, lattice in lattices for size in (1, 2)]
    details = set()
    for name, size, p in built:
        p = drop_one_rule(p, FirstOfSize(size), copy=False)
        report = check_formal_cover_axioms(p)
        assert not report.ok, (name, size)
        assert report == cover_laws_sweep(p, rule_table_saturation(p)), (
            name, size)
        details.add(report.detail)
    assert details == {"meet-left fails", "stability fails"}


def overt_in_base_order(p, pos, saturate):
    """overt_cover_sweep with its splitting element replaced by the
    first positive covered one in base order."""
    report = overt_cover_sweep(p, pos, saturate)
    if report.detail != "cover splitting fails":
        return report
    subset = report.witnesses[1]
    covered = saturate(subset)
    a = next(x for x in p.base if x in covered and pos.holds(x))
    return failed(report.detail, (a, subset))


def test_overt_cover_matches_the_sweep_on_every_positivity():
    instances = [("envelope-" + name, envelope_cover(lattice)[0])
                 for name, lattice in CORPUS]
    instances += [("discrete%d" % k,
                   discrete_cover(["v%d" % i for i in range(k)])[0])
                  for k in range(1, 4)]
    verdicts = set()
    for name, p in instances:
        saturate = name_saturation(p)
        for subset in subsets(p.base):
            pos = Positivity.of(subset)
            fast = check_overt_cover(p, pos)
            assert fast == overt_in_base_order(p, pos, saturate), (
                name, subset)
            verdicts.add(fast.detail)
    assert verdicts == {"overt cover laws hold", "cover splitting fails",
                        "positivity axiom fails"}


def test_overlap_cover_names_the_sweep_witness_on_failing_covers():
    # CASES are compared by test_overlap_cover_matches_the_name_sweep;
    # on a finite base the only overt positivity is the first of
    # positivities(), the complement of the closure of the empty set
    chain, _embedding = envelope_cover(chain_lattice(2))
    instances = [("c07-chain", chain, Positivity.of(["a", "1"]))]
    for name, p in REDUNDANT:
        instances.extend((name, p, pos)
                         for pos in positivities(p, random.Random(name)))
    failures = 0
    for name, p, pos in instances:
        expected = overlap_cover_sweep(p, pos)
        if expected is None:
            with pytest.raises(CoverError):
                is_overlap_cover(p, pos)
            continue
        assert is_overlap_cover(p, pos) == expected, name
        failures += not expected[0]
    assert is_overlap_cover(chain, Positivity.of(["a", "1"])) == (
        False, ("1", ("a",)))
    assert failures >= 20


def test_closed_set_kernel_time_bound():
    t0 = time.monotonic()
    bool4 = boolean_lattice(4)
    p, _embedding = envelope_cover(bool4)
    assert len(frame_of_presentation(p, max_base=16)) == 16
    assert is_overlap_cover(p, Positivity.nonzero(bool4)) == (True, None)
    p, _embedding = envelope_cover(chain_lattice(14))
    assert len(frame_of_presentation(p)) == 15
    p, _embedding = envelope_cover(boolean_lattice(5))
    assert check_formal_cover_axioms(p)
    assert time.monotonic() - t0 < 5.0
