"""Budget-indexed semi-decisions: monotonicity, memoization, combinators.

confirmed() is compared with probe() on settled, derive, and_binary,
or_countable and member decisions, answer and state, and a settled
decision answers it without a probe.
"""

import random
import time

import pytest

from sigmaloc import (
    UNKNOWN,
    Confirmed,
    Enumeration,
    SemiDecidableEquality,
    SemiDecision,
    and_binary,
    cantor_cover,
    chain_lattice,
    derive,
    envelope_cover,
    from_boolean,
    member_semidecide,
    never,
    or_countable,
    run,
)


def test_confirms_at_first_true_stage():
    p = SemiDecision(lambda k: k >= 17)
    assert p.probe(16) is UNKNOWN
    assert p.probe(17) == Confirmed(17)
    assert p.probe(1000) == Confirmed(17)


def test_each_stage_evaluated_once():
    calls = []

    def stage(k):
        calls.append(k)
        return k >= 5

    p = SemiDecision(stage)
    assert p.probe(3) is UNKNOWN
    assert p.probe(3) is UNKNOWN
    assert p.probe(10) == Confirmed(5)
    assert p.probe(10) == Confirmed(5)
    assert calls == [0, 1, 2, 3, 4, 5]


def test_a_refuted_stage_ends_the_scan():
    calls = []

    def stage(k):
        calls.append(k)
        assert k <= 3, "scanned past the refutation"
        return None if k == 3 else False

    p = SemiDecision(stage)
    assert p.probe(1) is UNKNOWN
    assert p.probe(10 ** 9) is UNKNOWN
    assert not p.confirmed(10 ** 12)
    assert calls == [0, 1, 2, 3]


def test_run_and_confirmed():
    p = SemiDecision(lambda k: k >= 2)
    assert run(p, 1) is UNKNOWN
    assert run(p, 4) == Confirmed(2)
    assert not p.confirmed(1)
    assert p.confirmed(2)


def test_negative_budget_rejected():
    p = SemiDecision(lambda k: True)
    with pytest.raises(ValueError):
        p.probe(-1)


def test_from_boolean_and_never():
    assert run(from_boolean(True), 0) == Confirmed(0)
    assert run(from_boolean(False), 100) is UNKNOWN
    assert run(never(), 100) is UNKNOWN
    # decided truths are shared, and settled when built
    for value in (True, False):
        assert from_boolean(value) is from_boolean(value)
    true = from_boolean(True)
    for budget in (0, 1, 10 ** 9):
        assert true.probe(budget) == Confirmed(0)
        assert not true.refuted
    for false in (from_boolean(False), never()):
        # a decided false is refuted before any probe
        assert false.refuted
        for budget in (0, 1, 10 ** 9):
            assert false.probe(budget) is UNKNOWN
            assert false.refuted
    for sd in (true, never()):
        with pytest.raises(ValueError):
            sd.probe(-1)


def test_and_binary():
    p = SemiDecision(lambda k: k >= 3)
    q = SemiDecision(lambda k: k >= 7)
    both = and_binary(p, q)
    assert run(both, 6) is UNKNOWN
    assert run(both, 7) == Confirmed(7)
    assert run(and_binary(p, never()), 50) is UNKNOWN


def test_or_countable_confirms_some_member():
    family = Enumeration.from_iterable([
        never(),
        SemiDecision(lambda k: k >= 2),
        never(),
    ])
    anyone = or_countable(family)
    res = run(anyone, 200)
    assert isinstance(res, Confirmed)
    # the confirming member needs budget 2, reachable at that pair code
    assert run(or_countable(Enumeration.from_iterable([never()])), 50) \
        is UNKNOWN


def test_or_countable_skips_blanks():
    from sigmaloc import BLANK
    family = Enumeration(
        lambda n: SemiDecision(lambda k: k >= 1) if n == 3 else BLANK)
    res = run(or_countable(family), 200)
    assert isinstance(res, Confirmed)
    assert run(or_countable(Enumeration.from_iterable([])), 30) is UNKNOWN


def test_or_countable_refutes_once_every_member_has():
    t0 = time.time()
    sd = or_countable(Enumeration.from_iterable([never(), never()]))
    assert run(sd, 10 ** 9) is UNKNOWN
    assert time.time() - t0 < 1.0
    assert sd.refuted
    family = Enumeration.from_iterable([never(), from_boolean(True)])
    assert run(or_countable(family), 10 ** 9) == Confirmed(1)
    unbounded = or_countable(Enumeration(lambda n: never()))
    assert run(unbounded, 5000) is UNKNOWN
    assert not unbounded.refuted


def test_and_binary_refutes_with_either_conjunct():
    for p, q in [(from_boolean(True), never()),
                 (never(), from_boolean(True))]:
        t0 = time.time()
        assert run(and_binary(p, q), 10 ** 9) is UNKNOWN
        assert time.time() - t0 < 1.0


def decisions():
    """(name, build) for decisions of every kind; build makes a fresh
    decision that runs as the last one did (a settled one is shared)."""
    cantor = cantor_cover()
    chain = chain_lattice(3)
    envelope, _embedding = envelope_cover(chain)
    listed = Enumeration.from_iterable(["p", "q", "p", "r"])
    decided = SemiDecidableEquality.from_decidable()
    # equality that confirms at step 2, with no known last budget
    slow = SemiDecidableEquality(
        lambda x, y: SemiDecision(lambda k: x == y and k >= 2))
    return [
        ("true", lambda: from_boolean(True)),
        ("false", lambda: from_boolean(False)),
        ("never", never),
        ("derive slice", lambda: derive(cantor, "", ["00", "01", "10", "11"])),
        ("derive proper", lambda: derive(cantor, "", ["00", "01", "10"])),
        ("derive refuted",
         lambda: derive(envelope, chain.top, (chain.bottom,))),
        ("and", lambda: and_binary(SemiDecision(lambda k: k >= 3),
                                   SemiDecision(lambda k: k >= 7))),
        ("and refuted", lambda: and_binary(
            SemiDecision(lambda k: k >= 3),
            SemiDecision(lambda k: None if k >= 5 else False))),
        ("and settled", lambda: and_binary(from_boolean(True),
                                           from_boolean(True))),
        ("or", lambda: or_countable(Enumeration.from_iterable(
            [never(), SemiDecision(lambda k: k >= 2)]))),
        ("or refuted", lambda: or_countable(
            Enumeration.from_iterable([never(), never()]))),
        ("member", lambda: member_semidecide("r", listed, decided)),
        ("non-member", lambda: member_semidecide("z", listed, decided)),
        ("member slow", lambda: member_semidecide("q", listed, slow)),
    ]


def state(sd):
    return sd._scanned, sd.refuted, sd._first


def test_confirmed_answers_and_leaves_state_as_the_probe_does():
    rng = random.Random(32)
    for name, build in decisions():
        for _ in range(8):
            confirming, probing = build(), build()
            budgets = [rng.choice([-1, 0, 0, 1, 2, 3, 5, 8, 64, 10 ** 4])
                       for _ in range(6)]
            for budget in budgets:
                if budget < 0:
                    before = state(confirming), state(probing)
                    with pytest.raises(ValueError):
                        confirming.confirmed(budget)
                    with pytest.raises(ValueError):
                        probing.probe(budget)
                    assert (state(confirming), state(probing)) == before
                else:
                    assert confirming.confirmed(budget) == \
                        isinstance(probing.probe(budget), Confirmed), \
                        (name, budgets)
                assert state(confirming) == state(probing), (name, budgets)


def test_a_settled_decision_confirms_without_a_probe(monkeypatch):
    calls = []
    probe = SemiDecision.probe

    def counted(self, budget):
        calls.append(budget)
        return probe(self, budget)

    monkeypatch.setattr(SemiDecision, "probe", counted)
    settled = SemiDecision(lambda k: k >= 3)
    assert settled.confirmed(5) and calls == [5]
    refuted = SemiDecision(lambda k: None)
    assert not refuted.confirmed(0) and calls == [5, 0]
    for budget in (0, 2, 3, 10 ** 9):
        assert from_boolean(True).confirmed(budget)
        assert not from_boolean(False).confirmed(budget)
        assert not never().confirmed(budget)
        assert settled.confirmed(budget) == (budget >= 3)
        assert not refuted.confirmed(budget)
    assert calls == [5, 0]
