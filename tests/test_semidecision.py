"""Budget-indexed semi-decisions: monotonicity, memoization, combinators."""

import time

import pytest

from sigmaloc import (
    UNKNOWN,
    Confirmed,
    Enumeration,
    SemiDecision,
    and_binary,
    from_boolean,
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
