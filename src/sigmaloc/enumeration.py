"""Countable sets presented by enumerations.

An Enumeration is a total function alpha: N -> values + {BLANK} listing
the elements of a countable set, possibly with repetitions and gaps
(BLANK plays the role of the added point of S + 1).  An optional
surjectivity bound b promises that every element of the image already
occurs at some index <= b; operations that must traverse the whole
image (elements, ext_equal_finite) require it and raise
MissingSurjectivityBound otherwise.

The second presentation of countability, a detachable subset of N
together with a map onto the carrier, is interconvertible with
enumerations via from_detachable / to_detachable.
"""

from collections import namedtuple
from operator import itemgetter

from .pairing import pair_decode, pair_encode
from .reports import Record
from .semidecision import SemiDecision, from_boolean

__all__ = [
    "BLANK",
    "DetachableSubset",
    "Enumeration",
    "MissingSurjectivityBound",
    "SemiDecidableEquality",
    "ext_equal_finite",
    "from_detachable",
    "intersect_binary",
    "map_enumeration",
    "member_semidecide",
    "restrict_detachable",
    "to_detachable",
    "union_countable",
]


class _Blank:
    __slots__ = ()

    def __repr__(self):
        return "BLANK"


BLANK = _Blank()


class MissingSurjectivityBound(Exception):
    """The operation needs to exhaust the enumeration but no bound is known."""


class Enumeration(Record, namedtuple("Enumeration", "alpha bound",
                                     defaults=(None,))):
    __slots__ = ()

    @staticmethod
    def from_iterable(values):
        items = tuple(values)

        def alpha(n):
            return items[n] if 0 <= n < len(items) else BLANK

        alpha.lister = lambda bound: [(n, v) for n, v in
                                      enumerate(items[:bound + 1])
                                      if v is not BLANK]
        return Enumeration(alpha, bound=max(len(items) - 1, 0))

    @staticmethod
    def empty():
        return Enumeration.from_iterable(())

    def elements(self):
        """The image as a list, in first-occurrence order.

        One dict over the values at indices 0..bound, so it runs in
        time linear in the bound and deduplicates by hash and ==: the
        values must be hashable.  Requires a surjectivity bound.  An
        alpha that carries a ``lister`` lists (code, value) pairs
        instead: lister(bound) returns a new list naming, for each
        non-blank code up to the bound, a pair at that code or below it
        with the same object, sorted in place by code for the dict.  Every
        enumeration this module builds carries one: from_iterable lists
        its items, a union lists its members' listings and a dovetail
        one pair per (n, m), so each lists itself in time proportional
        to its values, not to its codes.  A bare alpha is scanned code
        by code.
        """
        if self.bound is None:
            raise MissingSurjectivityBound("elements() needs a surjectivity bound")
        lister = getattr(self.alpha, "lister", None)
        if lister is not None:
            pairs = lister(self.bound)
            pairs.sort(key=itemgetter(0))
            return list(dict.fromkeys(map(itemgetter(1), pairs)))
        values = dict.fromkeys(map(self.alpha, range(self.bound + 1)))
        values.pop(BLANK, None)
        return list(values)


class DetachableSubset(Record, namedtuple("DetachableSubset", "chi")):
    """Decidable membership test (a total 0/1 characteristic function)."""

    __slots__ = ()

    @staticmethod
    def from_set(values):
        members = set(values)
        return DetachableSubset(lambda x: x in members)

    def complement(self):
        return DetachableSubset(lambda x: not self.chi(x))

    def union(self, other):
        return DetachableSubset(lambda x: self.chi(x) or other.chi(x))

    def intersect(self, other):
        return DetachableSubset(lambda x: self.chi(x) and other.chi(x))


class SemiDecidableEquality(Record, namedtuple(
        "SemiDecidableEquality", "psi max_confirm_budget", defaults=(None,))):
    """Equality test returning a SemiDecision.

    psi(x, y) semi-decides x == y.  max_confirm_budget, when given,
    promises that every true equality between carrier values confirms
    within that budget.  It is what lets intersect_binary propagate
    surjectivity bounds.
    """

    __slots__ = ()

    @staticmethod
    def from_decidable():
        return SemiDecidableEquality(
            lambda x, y: from_boolean(x == y), max_confirm_budget=0
        )


def map_enumeration(f, e):
    """Apply f pointwise, skipping blanks. Keeps the bound, and e's
    lister with f applied pair by pair: a pair's object is the value at
    every code the pair stands for, so the listing stays exact even
    where f separates ==-equal values (str on 1 and True)."""

    def alpha(n):
        v = e.alpha(n)
        return BLANK if v is BLANK else f(v)

    lister = getattr(e.alpha, "lister", None)
    if lister is not None:
        alpha.lister = lambda bound: [(code, f(v))
                                      for code, v in lister(bound)]
    return Enumeration(alpha, bound=e.bound)


def from_detachable(d, g, bound=None):
    """Enumeration from a detachable subset of N and a map g on it.

    alpha(n) = g(n) when n is in d, BLANK otherwise.  The optional
    bound is a caller-supplied surjectivity witness; none is inferred.
    """

    def alpha(n):
        return g(n) if d.chi(n) else BLANK

    return Enumeration(alpha, bound=bound)


def to_detachable(e):
    """Split an enumeration into its index set and value map.

    Returns (d, g) with d the detachable set of non-blank indices and
    g the value at such an index (g raises ValueError off d).
    """
    d = DetachableSubset(lambda n: e.alpha(n) is not BLANK)

    def g(n):
        v = e.alpha(n)
        if v is BLANK:
            raise ValueError("index %r is blank in the enumeration" % (n,))
        return v

    return d, g


def restrict_detachable(e, chi):
    """Restrict an enumeration to a decidable predicate on the carrier.
    Keeps the bound, and e's lister less the pairs whose value the
    predicate refuses."""
    test = chi.chi if isinstance(chi, DetachableSubset) else chi

    def alpha(n):
        v = e.alpha(n)
        if v is BLANK or not test(v):
            return BLANK
        return v

    lister = getattr(e.alpha, "lister", None)
    if lister is not None:
        alpha.lister = lambda bound: [(code, v) for code, v in lister(bound)
                                      if test(v)]
    return Enumeration(alpha, bound=e.bound)


def _listing(e, last):
    """e's non-blank (code, value) pairs up to code last, as a lister
    names them: e's own lister's, or a scan of its alpha."""
    lister = getattr(e.alpha, "lister", None)
    if lister is not None:
        return lister(last)
    alpha = e.alpha
    return [(k, v) for k in range(last + 1) if (v := alpha(k)) is not BLANK]


def union_countable(index, members):
    """Union of a countable family of enumerations, by dovetailing.

    ``index`` enumerates the index set, ``members`` maps an index value
    to its enumeration (a dict or a callable).  Code k decodes to
    (n, m): the member at index.alpha(n), position m.  The result
    carries a bound exactly when the index and all of its (boundedly
    many) members do.

    alpha's lister reads the index's listing and, for each listed n,
    the listing of its member up to the last m with pair_encode(n, m)
    within the bound, so a union of lists reads each value once.  It
    relies on members mapping one index object to one enumeration,
    which a dict does and a callable must: an index pair at n stands
    for every later index with the same object, and so do the member
    pairs it leads to.
    """
    get = members.__getitem__ if hasattr(members, "__getitem__") else members

    def alpha(k):
        n, m = pair_decode(k)
        i = index.alpha(n)
        if i is BLANK:
            return BLANK
        return get(i).alpha(m)

    def lister(bound):
        a, b = pair_decode(bound)
        w = a + b  # pair_encode(n, 0) <= bound iff n <= w
        pairs = []
        for n, i in _listing(index, w):
            # the last m is on the bound's diagonal w from n = a on, and
            # on the diagonal before it below a
            for m, v in _listing(get(i), w - n if n >= a else w - 1 - n):
                s = n + m
                pairs.append((s * (s + 1) // 2 + m, v))
        return pairs

    alpha.lister = lister
    bound = None
    if index.bound is not None:
        codes = [0]
        ok = True
        for n in range(index.bound + 1):
            i = index.alpha(n)
            if i is BLANK:
                continue
            member_bound = get(i).bound
            if member_bound is None:
                ok = False
                break
            codes.append(pair_encode(n, member_bound))
        if ok:
            bound = max(codes)
    return Enumeration(alpha, bound=bound)


def dovetail(e1, e2, eq, pick):
    """Dovetail over e1, e2 and the confirmation budgets of eq.

    Code k decodes to (n, (m, b)) and emits pick(x, y, b) for e1's
    value x at n and e2's value y at m, or BLANK when either is blank;
    pick returns a value or BLANK.  The bound needs both input bounds
    plus eq's max_confirm_budget.

    pick must return the same object for the same (x, y, b), and be
    monotone in b: once pick(x, y, b) returns a value, every larger b
    returns that same object.  It must also add nothing after eq's
    max_confirm_budget, when that is known: BLANK at every b up to it
    means BLANK at every b.  intersect_binary and free_meet hold to
    this, since a SemiDecision never retracts and max_confirm_budget
    bounds every confirmation.  So alpha's lister reads e1's listing
    (an e1 pair at n stands for every later n with the same object x,
    and so do the picks it leads to), reads e2 at each m in reach,
    and scans each (n, m)'s b only up to its first value, instead of
    every code.  It lists one (code, value) pair per (n, m) that has a
    value within the bound, at its least code: every later code of
    that pair holds the same object.
    """

    def alpha(k):
        n, rest = pair_decode(k)
        m, b = pair_decode(rest)
        x = e1.alpha(n)
        y = e2.alpha(m)
        if x is BLANK or y is BLANK:
            return BLANK
        return pick(x, y, b)

    def lister(bound):
        last = eq.max_confirm_budget
        ys = []
        pairs = []
        # pair_encode(n, inner) is s(s + 1)/2 + inner with s = n + inner;
        # start = pair_encode(m, 0) grows by m + 1 to the next m, and
        # inner = pair_encode(m, b) by m + b + 1 from b - 1 to b
        for n, x in _listing(e1, sum(pair_decode(bound))):
            m = start = 0
            while (n + start) * (n + start + 1) // 2 + start <= bound:
                if m == len(ys):
                    ys.append(e2.alpha(m))
                y = ys[m]
                b, inner = 0, start
                while y is not BLANK and (last is None or b <= last):
                    s = n + inner
                    code = s * (s + 1) // 2 + inner
                    if code > bound:
                        break
                    v = pick(x, y, b)
                    if v is not BLANK:
                        pairs.append((code, v))
                        break
                    b += 1
                    inner += m + b + 1
                m += 1
                start += m
        return pairs

    alpha.lister = lister
    bound = None
    if (
        e1.bound is not None
        and e2.bound is not None
        and eq.max_confirm_budget is not None
    ):
        bound = pair_encode(e1.bound, pair_encode(e2.bound, eq.max_confirm_budget))
    return Enumeration(alpha, bound=bound)


def intersect_binary(e1, e2, eq):
    """Elements enumerated by both e1 and e2, up to eq.

    Through dovetail: emit e1's value at n when it eq-confirms against
    e2's value at m within budget b.
    """
    return dovetail(e1, e2, eq, lambda x, y, b:
                    x if eq.psi(x, y).confirmed(b) else BLANK)


def member_semidecide(x, e, eq):
    """Semi-decide x in image(e).

    Stage k decodes to (n, b): index n is probed for equality with x
    inside budget b, so every (index, equality budget) pair is
    eventually tried.  When eq's max_confirm_budget M is known, the
    probe tries only the pairs with b <= M.  Codes run along the Cantor
    diagonals n + b = d with b = 0, 1, ..., d, and a stage that fires
    at (n, b) with b > M has already fired at the earlier code (n, M),
    since a true equality confirms within M; so next_step passes from
    (n, M) to the next diagonal, and the probe calls the stage at the
    first M + 1 codes of each diagonal.  When e's bound is known too,
    every pair that could confirm has been tried by stage
    last = pair_encode(bound, M), the stages past it refute, and
    next_step stops at last + 1: the probe refutes there, after
    bound + 1 equality tests when M is 0.
    """
    max_budget = eq.max_confirm_budget
    last = None
    if e.bound is not None and max_budget is not None:
        last = pair_encode(e.bound, max_budget)

    def stage(k):
        if last is not None and k > last:
            return None
        n, b = pair_decode(k)
        v = e.alpha(n)
        if v is BLANK:
            return False
        return eq.psi(v, x).confirmed(b)

    if max_budget is None:
        return SemiDecision(stage)

    def next_step(k):
        n, b = pair_decode(k)
        if b < max_budget:
            return k + 1
        step = pair_encode(n + b + 1, 0)  # the next diagonal's first code
        if last is not None and k <= last:
            return min(step, last + 1)
        return step

    return SemiDecision(stage, next_step)


def ext_equal_finite(e1, e2):
    """Extensional equality of two bounded enumerations.

    Compares the sets of the values the two listings name up to their
    bounds, so by the carrier's hash and == (desk-scale instances have
    decidable equality), in linear time and with no elements() order to
    keep; both surjectivity bounds are required.
    """
    if e1.bound is None or e2.bound is None:
        raise MissingSurjectivityBound("ext_equal_finite needs both bounds")
    return (set(map(itemgetter(1), _listing(e1, e1.bound)))
            == set(map(itemgetter(1), _listing(e2, e2.bound))))
