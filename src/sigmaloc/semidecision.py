"""Semi-decisions: budget-indexed, monotone, positive-only answers.

A SemiDecision wraps a stage predicate ``stage: int -> bool`` that is
treated as the run of a search procedure: stage(k) says whether the
search has succeeded at step k.  Probing with a budget reports either
Confirmed(at_step) for the earliest stage up to the budget that fires,
or Unknown.  Unknown is not a negative answer; a later, larger budget
may still confirm, unless a stage has returned None: that says the
search is refuted, no later stage fires, and every later probe answers
Unknown without calling the stage again.  The ``refuted`` attribute
says whether the search is known to be refuted: whether a probe has
seen such a stage, or, for a decided false, from the start.

A stage may be constant on runs of steps, or may have steps that
cannot matter.  The optional ``next_step(k)`` names the next step the
probe needs after k (k + 1 by default): no step before next_step(k)
can be the first to fire or to refute.  The probe calls the stage
only at k and then skips to next_step(k), so a stage that is constant
on power-of-two buckets costs one call per bucket, about log2(budget)
in all.  Each stage is called at most once per SemiDecision no matter
how many times it is probed, so repeated probing with growing budgets
costs the same as one probe with the largest budget.

A decided truth is settled when it is built: from_boolean(True) is
one shared SemiDecision confirmed at step 0, and from_boolean(False)
and never() are one shared SemiDecision that is refuted from the
start.  Probing either calls no stage and changes no state, so a
decidable equality test builds no SemiDecision, and confirmed()
answers any settled decision, these two included, without a probe.
"""

from collections import namedtuple

from .pairing import pair_decode
from .reports import Record

__all__ = [
    "UNKNOWN",
    "Confirmed",
    "SemiDecision",
    "and_binary",
    "from_boolean",
    "never",
    "or_countable",
    "run",
]


class Confirmed(Record, namedtuple("Confirmed", "at_step")):
    __slots__ = ()


class _Unknown:
    __slots__ = ()

    def __repr__(self):
        return "Unknown"


UNKNOWN = _Unknown()


class SemiDecision:
    def __init__(self, stage, next_step=None):
        self._stage = stage
        self._next_step = next_step or (lambda k: k + 1)
        self._first = None
        self._scanned = -1
        self.refuted = False

    def probe(self, budget):
        """Answer for the stages up to ``budget`` inclusive.

        Returns Confirmed(k) for the least k <= budget with stage(k)
        true, else UNKNOWN.  _scanned is the last step whose answer is
        known: the end of the last run of steps the stage was called
        for.  Once a stage has returned None no stage is called again.
        """
        if budget < 0:
            raise ValueError("budget must be a natural number")
        first = self._first
        if first is not None:
            return Confirmed(first) if first <= budget else UNKNOWN
        k = self._scanned
        while k < budget and not self.refuted:
            k += 1
            fired = self._stage(k)
            if fired:
                self._first = k
                self._scanned = k
                return Confirmed(k)
            self.refuted = fired is None
            k = self._next_step(k) - 1
        self._scanned = k
        return UNKNOWN

    def confirmed(self, budget):
        """True iff probing with this budget confirms.

        A settled decision, confirmed or refuted, answers without a
        probe: the probe would call no stage and change no state, so
        the shared from_boolean decisions cost one attribute read.
        """
        if budget < 0:
            raise ValueError("budget must be a natural number")
        first = self._first
        if first is not None:
            return first <= budget
        if self.refuted:
            return False
        return isinstance(self.probe(budget), Confirmed)


def run(p, budget):
    """Probe p with the budget and return the outcome."""
    return p.probe(budget)


def _settled(fired):
    """A SemiDecision whose stage 0 has already answered ``fired``: it
    is confirmed at step 0 (True) or refuted (None)."""
    sd = SemiDecision(lambda k: fired)
    sd._scanned = 0
    if fired:
        sd._first = 0
    else:
        sd.refuted = True
    return sd


_TRUE = _settled(True)
_FALSE = _settled(None)


def from_boolean(value):
    """Decidable truth as a semi-decision: the shared one confirmed at
    step 0, or the shared refuted one."""
    return _TRUE if value else _FALSE


def never():
    """The semi-decision that never confirms: the shared refuted one."""
    return _FALSE


def and_binary(p, q):
    """Conjunction: confirms once both conjuncts have confirmed.

    Stage k fires iff both p and q confirm within budget k, so the
    confirmation step is the max of the two individual steps.  Once
    either conjunct is refuted, so is the conjunction.
    """

    def stage(k):
        # probe both, so that a refutation of either one is seen
        both = p.confirmed(k), q.confirmed(k)
        if all(both):
            return True
        return None if p.refuted or q.refuted else False

    return SemiDecision(stage)


def or_countable(family):
    """Countable disjunction by dovetailing.

    ``family`` is an Enumeration of SemiDecisions (blank entries are
    skipped).  Stage k decodes to (i, j) and fires iff member i of the
    family confirms within budget j, so every (member, budget) pair is
    eventually tried.  Over a bounded family the stage records each
    index up to the bound whose entry is blank or whose member is
    refuted; once every index is recorded, no member can confirm (the
    bound lists the whole family) and the stage returns None.
    """
    from .enumeration import BLANK

    dropped = set()

    def stage(k):
        i, j = pair_decode(k)
        member = family.alpha(i)
        if member is not BLANK and member.confirmed(j):
            return True
        if family.bound is None or i > family.bound:
            return False
        if member is BLANK or member.refuted:
            dropped.add(i)
        return None if len(dropped) > family.bound else False

    return SemiDecision(stage)
