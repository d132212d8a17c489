"""The countable semi-decisions against the linear oracles they replace.

derive calls its stage once per power-of-two effort bucket, and
member_semidecide calls it only at the (index, budget) pairs within
its equality's max_confirm_budget and refutes once a bounded search
has tried them.  Both are compared with linear_probe, which calls the
stage at every step, and the member search's refuted flag with
linear_scan's.  The comparison runs on Cantor slices and proper
subcovers, on Baire questions, on corpus envelopes and on seeded
enumerations, over every budget up to 300 (a member search's to 3
past its last pair, and 10**9) and over growing, shrinking and
repeated probe sequences.  The members a search sees of a cover
are compared with cover_prefix, which lists them with a list
membership test, and each search lists an enumerated goal once.  A
bounded enumerated axiom is listed once the horizon covers its bound.
The traces of confirmed derives are compared with the traces of a
search that reads cover_prefix.  On seeded Cantor and
Baire questions, derive is compared with a search that tries the
{top} step again after the uppers have listed it.  A derive whose
goal is an intersect_binary dovetail, bounded or cut at the horizon,
is compared bucket by bucket with the search that lists it by the scan
over every code.
"""

import os
import random
import time

from sigmaloc import (
    ABSURD,
    BLANK,
    UNKNOWN,
    Confirmed,
    Enumeration,
    SemiDecidableEquality,
    SemiDecision,
    baire_cover,
    cantor_cover,
    derive,
    derive_with_trace,
    envelope_cover,
    intersect_binary,
    member_semidecide,
)
from sigmaloc import formal_cover, generators, semidecision
from sigmaloc.cli import CoverBlock, DeriveCommand, build_cover, parse
from sigmaloc.pairing import pair_encode

from corpus import corpus
from oracles import ScanFirstSearch, TopRetrySearch, cover_prefix, \
    linear_probe, linear_scan, relisting, relisting_trace, tuple_tree_meet

BUDGETS = range(301)
EQ = SemiDecidableEquality.from_decidable()
EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "docs", "examples")


def words(prefix, depth):
    return [prefix + format(i, "0%db" % depth) if depth else prefix
            for i in range(1 << depth)]


def derive_questions():
    """(name, presentation, element, cover) for Cantor slices and
    proper subcovers, Baire covered nodes and strangers, and corpus
    envelopes."""
    cantor = cantor_cover()
    out = [("cantor-slice%d" % depth, cantor, "", words("", depth))
           for depth in range(1, 7)]
    rng = random.Random("proper")
    for depth in (1, 2, 3):
        for word in ("", "1"):
            cover = words(word, depth)
            cover.remove(rng.choice(cover))
            out.append(("cantor-proper-%r-%d" % (word, depth),
                        cantor, word, cover))
    baire = baire_cover()
    rng = random.Random("baire")
    for i in range(3):
        node = tuple(rng.randrange(10) for _ in range(rng.randint(0, 2)))
        extra = tuple(rng.randrange(10) for _ in range(rng.randint(0, 2)))
        out.append(("baire-covered%d" % i, baire, node + extra,
                    baire.axioms_of(node)[0]))
    for i in range(2):
        node = (rng.randrange(10),)
        stranger = ((node[0] + 1 + rng.randrange(9)) % 10, rng.randrange(10))
        out.append(("baire-stranger%d" % i, baire, stranger,
                    baire.axioms_of(node)[0]))
    for name, lattice in corpus():
        p, _embedding = envelope_cover(lattice)
        rng = random.Random("envelope-" + name)
        for i in range(2):
            a = rng.choice(p.base)
            u = tuple(rng.sample(p.base, rng.randint(0, min(2, len(p.base)))))
            out.append(("envelope-%s-%d" % (name, i), p, a, u))
    return out


def derive_instances():
    """(name, make) pairs; make() builds a fresh derive."""
    return [(name, lambda p=p, a=a, u=u: derive(p, a, u))
            for name, p, a, u in derive_questions()]


def linear_outcomes(stage, budgets):
    """linear_probe at every budget.  One scan to the largest budget
    gives them all: the scan to a smaller budget is its prefix."""
    top = linear_probe(stage, max(budgets))
    return {b: top if isinstance(top, Confirmed) and top.at_step <= b
            else UNKNOWN for b in budgets}


def probe_sequences(rng, budgets=BUDGETS):
    """Growing, shrinking and seeded repeated budget sequences."""
    repeated = [rng.choice(budgets) for _ in range(40)]
    repeated += repeated[::-1]
    return [list(budgets), list(budgets)[::-1], repeated]


# Budgets probed on a fresh derive: every budget to 16, then each
# effort bucket's first step and its neighbours, to 300.
FRESH = sorted(set(range(17)) | {300} | {edge + d for edge in (32, 64, 128, 256)
                                         for d in (-1, 0, 1)})


def test_bucketed_probe_matches_the_linear_scan(monkeypatch):
    runs = []

    class Counted(formal_cover._Search):
        def run(self, goal):
            runs.append(self.horizon)
            return super().run(goal)

    monkeypatch.setattr(formal_cover, "_Search", Counted)
    outcomes = set()
    for name, make in derive_instances():
        expected = linear_outcomes(make()._stage, BUDGETS)
        outcomes.add(expected[300] is UNKNOWN)
        for budget in FRESH + [10 ** 4]:
            del runs[:]
            got = make().probe(budget)
            assert got == expected.get(budget, got), (name, budget)
            assert len(runs) <= budget.bit_length() + 1, (name, budget)
        for sequence in probe_sequences(random.Random(name)):
            sd = make()
            del runs[:]
            for budget in sequence:
                assert sd.probe(budget) == expected[budget], (name, budget)
            # one search per bucket however the budgets come
            assert len(runs) == len(set(runs)), name
            assert len(runs) <= max(sequence).bit_length() + 1, name
    assert outcomes == {True, False}


def seeded_enumeration(rng):
    """Values from a small range with repeats and BLANKs; bounded
    (blank past the bound, or repeating the listed values) or
    unbounded."""
    size = rng.randint(0, 30)
    items = [BLANK if rng.random() < 0.3 else rng.randrange(12)
             for _ in range(size)]
    kind = rng.randrange(3)
    if kind == 0:
        return Enumeration.from_iterable(items)
    if kind == 1 and items:
        return Enumeration(lambda n: items[n % len(items)],
                           bound=len(items) - 1)
    stride, offset = rng.randrange(1, 12), rng.randrange(12)
    return Enumeration(lambda n: BLANK if (n * stride + offset) % 4 == 0
                       else (n * stride + offset) % 16)


def test_visible_members_match_the_relisting():
    rng = random.Random(5)
    kinds = set()
    for _ in range(200):
        e = seeded_enumeration(rng)
        kinds.add(e.bound is None)
        horizons = sorted(rng.randrange(60) for _ in range(8))
        for horizon in horizons:
            assert formal_cover._visible(e, horizon) == \
                cover_prefix(e, horizon), horizon
    assert kinds == {True, False}
    assert formal_cover._visible(("a", "b"), 3) == cover_prefix(("a", "b"), 3)


def test_each_search_lists_an_enumerated_goal_once():
    calls = []

    def alpha(n):
        calls.append(n)
        return "1" + "0" * n

    assert derive(cantor_cover(), "0", Enumeration(alpha)).probe(16) \
        is UNKNOWN
    # one listing to each horizon 1, 2, 4, 8, 16 and 32: 69 calls
    assert calls == [n for horizon in (1, 2, 4, 8, 16, 32)
                     for n in range(horizon + 1)]


def test_a_bounded_enumerated_axiom_waits_for_its_bound():
    def words_split(children):
        return generators._tree_cover(
            "", lambda x: isinstance(x, str) and set(x) <= {"0", "1"},
            children)

    listed = words_split(lambda s: Enumeration.from_iterable(
        [s + "0", BLANK, s + "1", s + "0"]))
    plain = words_split(lambda s: (s + "0", s + "1"))
    # the axiom's bound 3 is first within the horizon 4 of step 2
    assert derive(listed, "", ["0", "1"]).probe(1000) == Confirmed(2)
    assert derive(plain, "", ["0", "1"]).probe(1000) == Confirmed(1)
    assert derive_with_trace(listed, "", ["0", "1"], 2) == \
        ("axiom", "", ("0", "1"), (("refl", "0"), ("refl", "1")))
    assert derive(listed, "0", ["00"]).probe(1000) is UNKNOWN


def cantor_example_derives():
    """(presentation, element, cover, budget) for the derives of the
    shipped Cantor example."""
    with open(os.path.join(EXAMPLES, "cantor.cov")) as fh:
        items = parse(fh.read()).items
    covers = {block.name: build_cover(block)[0] for block in items
              if isinstance(block, CoverBlock)}
    return [(covers[cmd.target], cmd.element, cmd.cover, cmd.budget)
            for cmd in items if isinstance(cmd, DeriveCommand)]


def confirmed_questions():
    """100 seeded Cantor and 100 seeded Baire questions that hold."""
    cantor, baire = cantor_cover(), baire_cover()
    rng = random.Random(17)
    out = []
    for _ in range(100):
        word = "".join(rng.choice("01") for _ in range(rng.randint(0, 3)))
        depth = rng.randint(0, 3)
        if rng.random() < 0.5:
            out.append((cantor, word, words(word, depth), 100))
        else:
            # a slice of a prefix of the word, at or below the word
            top = word[:rng.randint(0, len(word))]
            out.append((cantor, word,
                        words(top, len(word) - len(top) + depth), 100))
    for _ in range(100):
        node = tuple(rng.randrange(10) for _ in range(rng.randint(0, 2)))
        extra = tuple(rng.randrange(10) for _ in range(rng.randint(0, 2)))
        out.append((baire, node + extra, baire.axioms_of(node)[0], 1000))
    return out


def test_traces_match_the_relisting_search():
    questions = cantor_example_derives()
    assert len(questions) == 2
    questions += confirmed_questions()
    for p, a, u, budget in questions:
        res = derive(p, a, u).probe(budget)
        assert isinstance(res, Confirmed), (a, u)
        assert derive_with_trace(p, a, u, res.at_step) == \
            relisting_trace(p, a, u, res.at_step), (a, u)


class CountedAlpha:
    def __init__(self, values):
        self.values = values
        self.calls = 0

    def __call__(self, n):
        self.calls += 1
        return self.values[n] if n < len(self.values) else BLANK


def test_a_bounded_decidable_non_member_is_refuted():
    for values in ([], [3], [1, 2, 3, 2], [BLANK, 4, BLANK, 4, 6]):
        bound = max(len(values) - 1, 0)
        alpha = CountedAlpha(values)
        sd = member_semidecide(99, Enumeration(alpha, bound=bound), EQ)
        assert sd.probe(10 ** 9) is UNKNOWN
        # one equality test per index: the budget-0 code of each diagonal
        assert alpha.calls <= bound + 1, values
        assert sd.refuted


def test_a_large_non_member_is_refuted_without_a_scan():
    e = Enumeration.from_iterable(range(1000))
    t0 = time.perf_counter()
    sd = member_semidecide(-1, e, EQ)
    assert sd.probe(10 ** 9) is UNKNOWN
    assert time.perf_counter() - t0 < 0.1
    assert sd.refuted


def slow_equality(max_budget):
    """Equality on ints that confirms x == x at step x % (max_budget + 1)
    and never answers for unequal values."""

    def psi(x, y):
        if x != y:
            return SemiDecision(lambda k: False)
        return SemiDecision(lambda k: k >= x % (max_budget + 1))

    return SemiDecidableEquality(psi, max_confirm_budget=max_budget)


def test_member_steps_match_the_linear_scan():
    rng = random.Random(23)
    confirmed = refuted = 0
    for _ in range(60):
        e = seeded_enumeration(rng)
        # the same search with no bound, which never refutes
        unbounded = Enumeration(e.alpha)
        for eq in (EQ, slow_equality(1), slow_equality(3)):
            if e.bound is None:
                budgets = list(BUDGETS)
            else:
                last = pair_encode(e.bound, eq.max_confirm_budget)
                budgets = list(range(last + 4)) + [10 ** 9]
            for x in (rng.randrange(12), rng.randrange(16), 99):
                stage = member_semidecide(x, e, eq)._stage
                assert linear_outcomes(stage, BUDGETS) == linear_outcomes(
                    member_semidecide(x, unbounded, eq)._stage, BUDGETS)
                expected = linear_outcomes(stage, budgets)
                refuted_at = linear_scan(stage, max(budgets))[1]
                confirmed += isinstance(expected[max(budgets)], Confirmed)
                refuted += refuted_at is not None
                for sequence in probe_sequences(rng, budgets):
                    sd = member_semidecide(x, e, eq)
                    reach = -1
                    for budget in sequence:
                        reach = max(reach, budget)
                        assert sd.probe(budget) == expected[budget], \
                            (x, budget)
                        assert sd.refuted == (refuted_at is not None
                                              and refuted_at <= reach), \
                            (x, budget)
    assert confirmed > 60
    assert refuted > 60


def test_member_search_without_both_bounds_is_not_refuted():
    values = [1, 2, 3]
    no_bound = Enumeration(lambda n: values[n] if n < 3 else BLANK)
    no_budget = SemiDecidableEquality(EQ.psi)
    bounded = Enumeration.from_iterable(values)
    for e, eq in ((no_bound, EQ), (bounded, no_budget)):
        sd = member_semidecide(99, e, eq)
        assert sd.probe(5000) is UNKNOWN
        assert not sd.refuted
        assert all(sd._stage(k) is False for k in range(5000, 5100))


def test_traces_use_the_one_rule_vocabulary():
    kinds = set()

    def check(trace):
        kinds.add(trace[0])
        assert trace[0] in ("refl", "below", "axiom", "axiom-in-cover")
        if trace[0] == "axiom":
            _rule, _x, members, children = trace
            assert tuple(child[1] for child in children) == tuple(members)
            for child in children:
                check(child)

    for p, a, u, budget in cantor_example_derives() + confirmed_questions():
        res = derive(p, a, u).probe(budget)
        trace = derive_with_trace(p, a, u, res.at_step)
        assert trace[1] == a
        check(trace)
    assert kinds == {"refl", "below", "axiom", "axiom-in-cover"}


def seeded_question(rng, cantor, baire):
    """A seeded Cantor or Baire (presentation, element, cover): a node
    or the absurd element against a slice at or above it, a proper
    slice, stray nodes, or a bounded or unbounded enumeration."""
    if rng.random() < 0.75:
        p, letters, width, word = cantor, "01", 4, "".join
    else:
        p, letters, width, word = baire, range(10), 3, tuple

    def node(width):
        return word(rng.choice(letters) for _ in range(rng.randint(0, width)))

    x = node(width)
    a = ABSURD if rng.random() < 0.05 else x
    above = x[:rng.randint(0, len(x))]
    kind = rng.randrange(5)
    if p is baire and kind < 2:
        u = p.axioms_of(above if kind else x[:rng.randint(0, 1)])[0]
    elif kind < 2:
        u = words(above, len(x) - len(above) + rng.randint(0, 2))
        if kind:
            u.remove(rng.choice(u))
    elif kind == 2:
        u = [node(width) for _ in range(rng.randint(0, 5))]
    elif kind == 3:
        u = Enumeration.from_iterable([above + word([v]) for v in letters])
    else:
        u = Enumeration(lambda n: BLANK if n % 3 == 0
                        else above + word([letters[n % 2]]))
    return p, a, u


def probes_and_traces(questions, budgets):
    """Per question: the probe results at the budgets, the refuted flag
    and the trace at the confirmation step, if any."""
    out = []
    for p, a, u in questions:
        sd = derive(p, a, u)
        results = [sd.probe(budget) for budget in budgets]
        trace = (derive_with_trace(p, a, u, results[-1].at_step)
                 if isinstance(results[-1], Confirmed) else None)
        out.append((results, sd.refuted, trace))
    return out


def test_derive_matches_the_search_that_retries_the_top(monkeypatch):
    cantor, baire = cantor_cover(), baire_cover()
    rng = random.Random(15)
    questions = [seeded_question(rng, cantor, baire) for _ in range(320)]
    budgets = sorted(set(range(17)) | {31, 32, 100, 300, 1000})
    got = probes_and_traces(questions, budgets)
    with monkeypatch.context() as patch:
        patch.setattr(formal_cover, "_Search", TopRetrySearch)
        expected = probes_and_traces(questions, budgets)
    for (p, a, u), mine, reference in zip(questions, got, expected):
        assert mine == reference, (a, u)
    assert {(p is baire, isinstance(results[-1], Confirmed))
            for (p, _a, _u), (results, _r, _t) in zip(questions, got)} == \
        {(False, False), (False, True), (True, False), (True, True)}


def intersect_questions(rng, count):
    """Cantor nodes against the intersect of two seeded lists of words
    and gaps: bounded under a decidable equality, unbounded (so always
    cut at the horizon) under the same equality without its budget."""
    cantor = cantor_cover()
    no_budget = SemiDecidableEquality(EQ.psi)
    short = words("", 0) + words("", 1) + words("", 2)

    def side(pool):
        return Enumeration.from_iterable(
            BLANK if rng.random() < 0.2 else rng.choice(pool)
            for _ in range(rng.randint(1, 6)))

    out = []
    for i in range(count):
        pool = rng.sample(short, 4)
        out.append((cantor, rng.choice(words("", rng.randint(0, 3))),
                    intersect_binary(side(pool), side(pool),
                                     EQ if i % 3 else no_budget)))
    return out


def searches_by_bucket(questions, efforts):
    """Per question and effort: the goal members the search sees, its
    outcome, whether it completed and the nodes it left."""
    out = []
    for p, a, u in questions:
        for effort in efforts:
            search = formal_cover._Search(p, u, effort)
            out.append((search.members, search.run(a), search.nodes))
    return out


def test_an_intersect_goal_matches_the_relisting_search():
    questions = intersect_questions(random.Random(20), 60)
    efforts = [1 << j for j in range(9)]
    budgets = sorted(set(range(17)) | {31, 32, 100, 300})
    got = (searches_by_bucket(questions, efforts),
           probes_and_traces(questions, budgets))
    with relisting():
        expected = (searches_by_bucket(questions, efforts),
                    probes_and_traces(questions, budgets))
    assert got == expected
    # goals listed whole, goals cut at the horizon, and goals that prove
    reach = {u.bound is not None and u.bound <= effort
             for _p, _a, u in questions for effort in efforts}
    assert reach == {True, False}
    assert any(isinstance(results[-1], Confirmed)
               for results, _refuted, _trace in got[1])


def test_derive_matches_the_search_that_scans_path_nodes(monkeypatch):
    cantor, baire = cantor_cover(), baire_cover()
    questions = [(p, a, u) for _name, p, a, u in derive_questions()]
    questions += [(p, a, u) for p, a, u, _budget
                  in cantor_example_derives() + confirmed_questions()]
    rng = random.Random(31)
    questions += [seeded_question(rng, cantor, baire) for _ in range(320)]
    efforts = [1 << j for j in range(11)]
    budgets = list(BUDGETS) + [10 ** 4]
    got = (searches_by_bucket(questions, efforts),
           probes_and_traces(questions, budgets))
    with monkeypatch.context() as patch:
        patch.setattr(formal_cover, "_Search", ScanFirstSearch)
        expected = (searches_by_bucket(questions, efforts),
                    probes_and_traces(questions, budgets))
    for mine, reference in zip(got[0], expected[0]):
        assert mine == reference
    for (p, a, u), mine, reference in zip(questions, got[1], expected[1]):
        assert mine == reference, (a, u)
    # searches that prove, that fail definitively and that are cut off
    runs = {(outcome is not None, complete)
            for _members, (outcome, complete), _nodes in got[0]}
    assert {(True, True), (False, True), (False, False)} <= runs


def seeded_words(rng):
    """Seeded Cantor words and Baire tuples, prefixes of one another
    among them, with the absurd element."""
    out = [ABSURD]
    for _ in range(60):
        if rng.random() < 0.5:
            word = "".join(rng.choice("01") for _ in range(rng.randint(0, 5)))
        else:
            word = tuple(rng.randrange(3) for _ in range(rng.randint(0, 4)))
        out += [word, word[:rng.randint(0, len(word))]]
    return out


def test_tree_meet_returns_the_reference_object():
    values = seeded_words(random.Random(63))
    for x in values:
        for y in values:
            if type(x) is type(y) or ABSURD in (x, y):
                assert generators._tree_meet(x, y) is tuple_tree_meet(x, y)


def test_a_cantor_slice_scans_fewer_meets(monkeypatch):
    def count_meets(search):
        calls = []

        def meet(x, y):
            calls.append(None)
            return tuple_tree_meet(x, y)

        with monkeypatch.context() as patch:
            patch.setattr(generators, "_tree_meet", meet)
            patch.setattr(formal_cover, "_Search", search)
            cantor = cantor_cover()
            res = semidecision.run(derive(cantor, "", words("", 6)), 64)
        assert isinstance(res, Confirmed)
        return len(calls)

    mine = count_meets(formal_cover._Search)
    # 9,992 for the search that scans a path node before rejecting it
    assert mine < count_meets(ScanFirstSearch)
    assert mine <= 7432
