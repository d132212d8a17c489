"""Formal covers: presentations, saturation, derivation search, frames.

A cover presentation is a meet-semilattice base together with axioms
``head <| cover``.  A finite presentation has one rule
table: meet-below (a∧b <| {a}, the top law among them) and each raw
axiom localized below its head, reduced per head to the covers that
contain no other.  CoverPresentation.finite compiles that table from
the raw axioms; envelope_cover writes it in closed form from its
lattice's join table.  derive searches it head by head, and
CoverPresentation.closure chains over its inversion, the covers
grouped by the heads that list them, to a least fixpoint, in at most
n + 1 passes.  That fixpoint is the generated cover relation; it
satisfies reflexivity, transitivity, meet-left and stability
(check_formal_cover_axioms re-verifies at run time).
Subsets of a finite base are int bitmasks over base indices, and
closure is the one saturation: saturate, the frame, the cover laws
and the overt and overlap cover checks all read it.  It caches every
closure and starts a new one from the cached closure of the mask less
its lowest bit.  So a sweep over every subset in increasing order
would close only the distinct starts, at most n per closed set.
CoverPresentation.closure_starts walks just those, each once, level
by level from the highest bit, and is the one lister of the closed
sets: the frame and the overlap cover check read its closures, and
the cover laws check tests every subset on its starts, exactly, at
any base size, without visiting every subset.  It refuses more than
2^15 saturated subsets, the one guard on all three.

Countable presentations (Cantor, Baire) are CountablePresentations:
the base is a membership predicate, with axioms_of / uppers_of
callbacks; they support derive but not saturate.  Both classes list,
by local_covers(x), the covers a derivation step at x may use: after
localization every step is x <| {v} for some v above x, or x <| an
axiom of some v >= x met with x.  A finite presentation lists its
rule table; a countable one lists x's axioms, then each v above x,
the top among them, with v's axioms.  derive is a SemiDecision
running one depth- and node-bounded goal-directed search over that
list per power-of-two effort bucket.  For covers given by unbounded
enumerations the axiom step is discharged only when the axiom's cover
is the goal cover itself; the engine is sound but deliberately
incomplete there, and budget exhaustion reports Unknown, never false.
"""

from functools import cache, cached_property
from itertools import combinations

from .enumeration import Enumeration
from .reports import failed, passed
from .semidecision import SemiDecision
from .sigma_frame import (
    SigmaFrameHom,
    _lattice_of_up_masks,
    check_sigma_hom,
)

__all__ = [
    "BaseTooLarge",
    "CoverError",
    "CoverPresentation",
    "check_compactness",
    "check_formal_cover_axioms",
    "check_sigma_coherent",
    "derive",
    "derive_with_trace",
    "envelope_cover",
    "frame_of_presentation",
    "relation_as_morphism",
    "saturate",
]


class CoverError(Exception):
    pass


class BaseTooLarge(CoverError):
    """More saturated subsets than closure_starts walks, or a base
    larger than frame_of_presentation's max_base."""


# the largest base frame_of_presentation lists by default, and the most
# saturated subsets closure_starts walks, as many as that base has subsets;
# also the most congruences enumerate_congruences lists
_MAX_BASE = 15
_MAX_CLOSED = 1 << _MAX_BASE


def _check_base(n, max_base=_MAX_BASE):
    """Refuse a base of n elements above max_base (BaseTooLarge)."""
    if n > max_base:
        raise BaseTooLarge("base has %d elements, cap is %d" % (n, max_base))


class CountablePresentation:
    """A presentation with a countable base given by callbacks.

    contains decides base membership and meet is the base meet, both
    the caller's; top is the top element, which derive finds only
    through uppers_of.  axioms_of(a) lists the covers of a (tuples, or
    Enumerations for genuinely countable covers), uppers_of(a) lists
    every element strictly above a, and so the top for every a but
    the top itself.  The one exception is an absurd element below
    everything: it may list no uppers, since its own empty axiom
    proves it before any upper step is tried.  Both are memoized.
    axioms_of must be: derive discharges a goal by identity, when the
    goal is the very cover object axioms_of lists at its element, so
    each cover must stay the same object across calls.  uppers_of
    needs no identity; its memo saves each search from listing the
    same uppers again, in time and in memory.
    """

    def __init__(self, contains, meet, top, axioms_of, uppers_of):
        self.contains = contains
        self.meet = meet
        self.top = top
        self.axioms_of = cache(lambda a: tuple(axioms_of(a)))
        self.uppers_of = cache(lambda a: tuple(uppers_of(a)))

    def local_covers(self, x):
        """(cover, head) pairs for a derive at x: x's axioms, then for
        each v above x the singleton {v} and v's axioms, {top} among
        them unless x is the top or absurd.  The search meets the
        members of a cover headed v with x."""
        for cover in self.axioms_of(x):
            yield cover, x
        for v in self.uppers_of(x):
            yield (v,), x
            for cover in self.axioms_of(v):
                yield cover, v

    # a cover argument is taken as given: there is no base index to
    # normalize it on
    _norm_cover = staticmethod(tuple)


def _needs_finite(p, what):
    """Refuse a countable presentation where a finite base is needed."""
    if isinstance(p, CountablePresentation):
        raise CoverError("%s needs a finite base" % (what,))


def _indices(mask):
    """The indices of a bitmask's set bits, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _sorted_cover(index, cover):
    """A cover as a deduplicated tuple in base order; index maps each
    base element to its position."""
    try:
        return tuple(sorted(set(cover), key=index.__getitem__))
    except KeyError:
        bad = next(c for c in cover if c not in index)
        raise CoverError("cover member %r not in base" % (bad,)) from None


class CoverPresentation:
    """A finite presentation, built by finite().  countable() builds a
    CountablePresentation."""

    countable = CountablePresentation

    @staticmethod
    def finite(base, meet, top, axioms):
        """Validated finite presentation.

        meet is a callable or a complete mapping on ordered pairs; it is
        read once into the index table meet_table, on which the
        meet-semilattice laws (closure, idempotence, commutativity,
        associativity, top neutral) are checked exhaustively, the last
        in O(n^2) on the entries' down-sets.  Only when that fails does
        a triple loop name the witness: the first failing triple cannot
        be read off the failing down-set pairs without a scan of its
        own.  Covers are normalized to deduplicated base-index-sorted
        tuples.  The checked tables go to _trusted, which envelope_cover
        also calls, on a validated lattice's own tables, and the raw
        axioms are compiled to the rule table (_compile).
        """
        base = list(base)
        if not base:
            raise CoverError("empty base")
        index = {}
        for i, x in enumerate(base):
            if x in index:
                raise CoverError("duplicate base element: %r" % (x,))
            index[x] = i
        if top not in index:
            raise CoverError("top element %r not in base" % (top,))

        n, t = len(base), index[top]
        table = []
        for x in base:
            row = []
            for y in base:
                if callable(meet):
                    v = meet(x, y)
                else:
                    try:
                        v = meet[(x, y)]
                    except KeyError:
                        raise CoverError("meet table missing pair (%r, %r)" % (x, y))
                if v not in index:
                    raise CoverError(
                        "meet(%r, %r) = %r is outside the base" % (x, y, v))
                row.append(index[v])
            table.append(row)
        for x in range(n):
            if table[x][x] != x:
                raise CoverError("meet not idempotent at %r" % (base[x],))
            if table[x][t] != x or table[t][x] != x:
                raise CoverError("top is not a meet unit at %r" % (base[x],))
            for y in range(n):
                if table[x][y] != table[y][x]:
                    raise CoverError("meet not commutative at (%r, %r)"
                                     % (base[x], base[y]))
        # an idempotent, commutative table is associative iff each
        # meet's down-set {z : meet(a, z) = z} is the intersection of
        # its arguments' down-sets
        down = [sum(1 << z for z, v in enumerate(row) if v == z)
                for row in table]
        if any(down[v] != down[x] & down[y]
               for x, row in enumerate(table) for y, v in enumerate(row)):
            for x in range(n):
                for y in range(n):
                    for z in range(n):
                        if table[table[x][y]][z] != table[x][table[y][z]]:
                            raise CoverError(
                                "meet not associative at (%r, %r, %r)"
                                % (base[x], base[y], base[z]))

        normalized = []
        for head, cover in axioms:
            if head not in index:
                raise CoverError("axiom head %r not in base" % (head,))
            normalized.append((head, _sorted_cover(index, cover)))
        p = CoverPresentation._trusted(base, index, top, table)
        p.axioms = tuple(normalized)
        p._compile()
        return p

    @staticmethod
    def _trusted(base, index, top, meet_table):
        """A presentation on tables taken as given, as finite() leaves
        them: index maps each base element to its position and
        meet_table is an index table of a meet-semilattice with top.
        Nothing is checked, and no rule table is built: the caller sets
        the raw axioms, _raw_covers, _below and _rules and groups them,
        by _compile or, for an envelope, from the lattice's tables."""
        p = CoverPresentation()
        p.base, p._base_index, p.top = base, index, top
        p.meet_table = meet_table
        return p

    @cached_property
    def axioms(self):
        """The raw axioms, (head, cover) with head in the base and
        cover a deduplicated tuple of base elements in base order.
        finite() sets them as given.  An envelope keeps only
        _raw_covers, and they are listed from it when first read, each
        cover's heads in base order: in an envelope the heads of a
        cover {b, c} are exactly the down-set of b∨c, which is what
        _raw_covers holds for it."""
        axioms = []
        for bits, heads in self._raw_covers.items():
            cover = self.members(bits)
            axioms.extend((self.base[a], cover) for a in _indices(heads))
        return tuple(axioms)

    def _norm_cover(self, cover):
        return _sorted_cover(self._base_index, cover)

    def contains(self, x):
        return x in self._base_index

    def meet(self, x, y):
        try:
            i, j = self._base_index[x], self._base_index[y]
        except KeyError:
            raise CoverError("meet undefined at (%r, %r)" % (x, y))
        return self.base[self.meet_table[i][j]]

    def local_covers(self, x):
        """(cover, x) for each cover in the rule table at x, already
        localized."""
        for bits in self._rules[self._base_index[x]]:
            yield self.members(bits), x

    def _compile(self):
        """The rule table of finite(), built once from the raw axioms:
        per head, cover bitmasks.  envelope_cover writes the same table
        in closed form from its lattice's join table instead.

        Subsets of the base are int bitmasks, bit i standing for base[i].
        The rules are meet-below (y <| {a} for y <= a, the top law among
        them) and, for each raw axiom a <| U, its localized copy
        y <| {c∧y : c in U} for y <= a only: the copy at any other b
        follows from the one at a∧b and meet-below, and the raw axiom
        from the one at a (Coquand, Sambin, Smith and Valentini,
        "Inductively generated formal topologies", 2003).  Only the y
        below a and below no member of U are visited: at any other y
        the copy contains y itself and would be dropped.  Each head
        keeps, by (size, indices), only the covers that leave out the
        head and contain no kept cover, so the least fixpoint does not
        change.  _rules[h] lists them for head index h; derive searches
        it in that order, and closure reads its grouped inversion
        (_group_rules).
        The copy at y depends on U and y alone, so the y to visit are
        gathered per distinct cover, as the union of its heads'
        down-sets (_fold_axioms), and each cover is localized once per y
        (_localized, which the cover laws check reads too).
        """
        meet, n = self.meet_table, len(self.base)
        self._below = below = [
            sum(1 << y for y in range(n) if meet[a][y] == y)
            for a in range(n)]
        self._fold_axioms()
        covers = [{1 << a for a in range(n) if below[a] >> y & 1}
                  for y in range(n)]
        for y, bits in self._localized():
            covers[y].add(bits)

        def order(bits):
            members = [i for i in range(n) if bits >> i & 1]
            return len(members), members

        self._rules = [[] for _ in range(n)]
        for h, kept in enumerate(self._rules):
            for bits in sorted(covers[h], key=order):
                if not (bits >> h & 1 or any(not k & ~bits for k in kept)):
                    kept.append(bits)
        self._group_rules()

    def _fold_axioms(self):
        """_raw_covers, the raw axioms folded per distinct cover:
        {cover bitmask: the union of its heads' down-sets}, in the order
        the covers are first listed.  envelope_cover writes the same map
        from its lattice's tables.  A presentation whose axioms are
        edited after it is built needs this call again."""
        idx, below, raw = self._base_index, self._below, {}
        for head, cover in self.axioms:
            bits = self.mask(cover)
            raw[bits] = raw.get(bits, 0) | below[idx[head]]
        self._raw_covers = raw

    def _localized(self):
        """(y, bits) for each distinct raw axiom cover U and each y
        below one of U's heads and below no member of U: bits is U
        localized at y, {c∧y : c in U}, as a bitmask."""
        meet, below = self.meet_table, self._below
        for cover, ys in self._raw_covers.items():
            members = list(_indices(cover))
            for c in members:
                ys &= ~below[c]
            for y in _indices(ys):
                yield y, sum({1 << meet[c][y] for c in members})

    def _group_rules(self):
        """closure's table, built from _rules, and an empty closure cache.

        _rules is inverted to {cover: bitmask of the heads whose rules
        list it}, and the covers are grouped by that bitmask, as
        ((heads, (cover, ...)), ...): a cover inside a set adds all of
        its heads at once, and a pass tests a group only while one of
        its heads is outside.  Grouping by heads, not listing each
        distinct cover once, keeps a pass short on a base with many
        distinct covers (bool6's envelope: 1,954 rules, 1,409 distinct
        covers, 115 groups).  A presentation whose _rules are edited
        after it is built needs this call again.
        """
        heads_of = {}
        for h, covers in enumerate(self._rules):
            for bits in covers:
                heads_of[bits] = heads_of.get(bits, 0) | 1 << h
        groups = {}
        for bits, heads in heads_of.items():
            groups.setdefault(heads, []).append(bits)
        self._groups = tuple((heads, tuple(covers))
                             for heads, covers in groups.items())
        self._closed = {}

    def mask(self, members):
        """The bitmask of a collection of base elements."""
        bits = 0
        for x in members:
            i = self._base_index.get(x)
            if i is None:
                raise CoverError("not a base element: %r" % (x,))
            bits |= 1 << i
        return bits

    def members(self, mask):
        """The base elements of a bitmask, in base order."""
        return tuple(x for i, x in enumerate(self.base) if mask >> i & 1)

    def first(self, mask):
        """The first base element of a nonzero bitmask, in base order."""
        return self.base[(mask & -mask).bit_length() - 1]

    def closure(self, mask):
        """The saturation of a bitmask, as a bitmask.

        The least fixpoint of the rule table above the mask: each pass
        adds every head outside it with a cover inside it, until a pass
        adds nothing.  A pass walks the heads groups of _group_rules:
        a group with a head outside the set is tested cover by cover,
        and the first cover inside adds all of its heads.  Every pass
        but the last adds a bit, so there are at most n + 1.  Results
        are cached per presentation, keyed by the mask.  A miss chains
        from the mask joined with the cached closure of the mask less
        its lowest bit, if there is one: the fixpoint is monotone, so
        that closure lies inside the answer.  The answer is cached under
        that start too, so masks that share a start chain once.
        """
        sat = self._closed.get(mask)
        if sat is None:
            start = self._closed.get(mask & (mask - 1), 0) | mask
            grown = start not in self._closed
            sat = self._closed.get(start, start)
            while grown:
                grown = False
                for heads, covers in self._groups:
                    if heads & ~sat:
                        for bits in covers:
                            if not bits & ~sat:
                                sat |= heads
                                grown = True
                                break
            self._closed[mask] = self._closed[start] = sat
        return sat

    def closure_starts(self):
        """(start, closure, new) for each closure start of the increasing
        sweep over every subset, each start once; new is True where the
        walk finds that closure first.

        closure closes a mask M with lowest bit i from the start
        cl(M - i) | i, so as M - i ranges over the subsets of the bits
        above i, cl(M - i) ranges over F_i, the closures of those
        subsets: F_n is {cl(0)}, and F_i is F_i+1 with the closures of
        S | i for each S in F_i+1 without i (when i is in S the start
        is S, closed already).  The walk yields (0, cl(0), True), then
        builds F_0 so, from i = n - 1 down to 0.  F_0 is every saturated
        subset, and the walk closes at most n starts per saturated
        subset: none from the whole base.  More than 2^15 saturated
        subsets are refused (BaseTooLarge), so this bounds every walk:
        the frame's, the overlap cover check's and the cover laws
        check's.
        """
        sat = self.closure(0)
        closed = {sat: None}
        yield 0, sat, True
        for i in range(len(self.base) - 1, -1, -1):
            bit = 1 << i
            for s in list(closed):
                if not s & bit:
                    sat = self.closure(s | bit)
                    new = sat not in closed
                    if new:
                        closed[sat] = None
                        if len(closed) > _MAX_CLOSED:
                            raise BaseTooLarge("more than %d saturated subsets"
                                               % (_MAX_CLOSED,))
                    yield s | bit, sat, new

    def closed_sets(self):
        """Every closed bitmask, in increasing order: the distinct
        closures of closure_starts."""
        return sorted(sat for _start, sat, new in self.closure_starts()
                      if new)


def saturate(p, members):
    """The saturation of a subset: everything derivably covered by it,
    as a frozenset of base elements (CoverPresentation.closure on its
    bitmask).  A bounded Enumeration is read by its elements()."""
    _needs_finite(p, "saturate")
    if isinstance(members, Enumeration):
        members = members.elements()
    return frozenset(p.members(p.closure(p.mask(members))))


def _visible(cover, horizon):
    """The members of a cover visible within a horizon, as (members,
    complete): a tuple is always complete; an Enumeration is listed by
    elements(), cut at the horizon when its bound is unknown or past
    it, and is complete only when it is not cut."""
    if not isinstance(cover, Enumeration):
        return tuple(cover), True
    complete = cover.bound is not None and cover.bound <= horizon
    if not complete:
        cover = cover._replace(bound=horizon)
    return tuple(cover.elements()), complete


class _Search:
    """One depth/node-bounded proof search at a fixed effort.

    A node x is proved by a member of the goal above it, or by a cover
    from covers(x) whose members are all proved one level deeper; a
    cover headed by some v other than x is met with x first.  A goal
    cover listed at x, with head x, discharges x outright.  The search
    lists the goal once, to its own horizon, and a goal listed only in
    part cuts it off from the start: its failure is then not definitive.

    A node is tried in this order: a proof already found, then the
    goal scan, then the node budget.  A node on the path failed its
    goal scan when it was entered (the goal is fixed and meet is a
    function), so it skips the scan; it still pays its node, or sets
    the cutoff when none are left, and is then rejected.
    """

    def __init__(self, p, u, effort):
        self.p = p
        self.u = u
        self.horizon = effort
        self.members, complete = _visible(u, effort)
        self.depth_limit = max(effort.bit_length() - 1, 0)
        self.nodes = 64 * effort
        self.cutoff = not complete
        self.proven = {}

    def covers(self, x):
        return self.p.local_covers(x)

    def prove(self, x, depth, path):
        if x in self.proven:
            return self.proven[x]
        on_path = x in path
        if not on_path:
            meet = self.p.meet
            for m in self.members:
                if x == m:
                    return self.done(x, ("refl", x))
                if meet(x, m) == x:
                    return self.done(x, ("below", x, m))
        if self.nodes <= 0:
            self.cutoff = True
            return None
        self.nodes -= 1
        if on_path:
            return None
        path = path | {x}
        for cover, head in self.covers(x):
            # () is one shared object, so only a nonempty cover is
            # taken to be the goal
            if cover is self.u and cover and head is x:
                return self.done(x, ("axiom-in-cover", x))
            if isinstance(cover, Enumeration):
                if cover.bound is None or cover.bound > self.horizon:
                    self.cutoff = True
                    continue
                cover = tuple(cover.elements())
            if cover and depth == 0:
                self.cutoff = True
                continue
            if head is not x:
                cover = tuple(self.p.meet(c, x) for c in cover)
            children = []
            for c in cover:
                child = self.prove(c, depth - 1, path)
                if child is None:
                    break
                children.append(child)
            else:
                return self.done(x, ("axiom", x, cover, tuple(children)))
        return None

    def done(self, x, trace):
        self.proven[x] = trace
        return trace

    def run(self, goal):
        outcome = self.prove(goal, self.depth_limit, frozenset())
        return outcome, not self.cutoff


def _normalize_cover_argument(p, u):
    if isinstance(u, Enumeration):
        return u
    if isinstance(u, (set, frozenset)):
        u = sorted(u, key=str)
    return p._norm_cover(tuple(u))


def _derive_arguments(p, a, u):
    """u normalized as a goal for a, once a is known to be in the base."""
    if not p.contains(a):
        raise CoverError("not a base element: %r" % (a,))
    return _normalize_cover_argument(p, u)


def derive(p, a, u):
    """Semi-decide whether the cover axioms force a <| u.

    Stage k runs a bounded search at effort 2^ceil(log2(k+1)): depth =
    the exponent, node budget = 64 * effort, enumeration horizon =
    effort.  The stage is constant on each effort bucket, so a probe
    runs one search per bucket, at most budget.bit_length() + 1 in
    all, and confirms at the first step of its bucket.  Each search
    lists an Enumeration goal anew, to its own horizon: as horizons
    double, a probe reads fewer than twice the values of one listing
    to the last horizon, plus one per search.  A rule's cover is
    listed only when its bound is within the horizon, since a part of
    it proves nothing, so only an unbounded goal costs time linear in
    the horizon.  On finite presentations a failed search without any
    cutoff is definitive: its stage returns None, so the probe stops
    there and answers Unknown for every budget without re-searching.
    """
    u = _derive_arguments(p, a, u)

    def stage(k):
        outcome, complete = _Search(p, u, 1 << k.bit_length()).run(a)
        return True if outcome is not None else None if complete else False

    return SemiDecision(stage, lambda k: 1 << k.bit_length())


def derive_with_trace(p, a, u, at_step):
    """Re-run the search at the effort bucket of a confirmed step.

    Returns the proof trace (nested rule tuples) or None if the bucket
    search does not succeed, which means at_step was not a confirmation
    step of derive(p, a, u).  Its arguments are checked as derive
    checks them, and a negative at_step is refused.
    """
    u = _derive_arguments(p, a, u)
    if at_step < 0:
        raise ValueError("at_step must be a natural number")
    effort = 1 << at_step.bit_length()
    outcome, _complete = _Search(p, u, effort).run(a)
    return outcome


def frame_of_presentation(p, max_base=_MAX_BASE):
    """The frame presented: all saturated subsets ordered by inclusion.

    The saturated subsets are the closed sets closure_starts lists, at
    most n closures each, in base bitmask order; elements of the result
    are frozensets of base elements in that order.  A base above
    max_base is refused.  Each closed set's up mask, the closed sets
    containing it, goes to the lattice constructor, which checks the
    lattice laws and distributivity on the masks.
    """
    _needs_finite(p, "frame_of_presentation")
    _check_base(len(p.base), max_base)
    closed = p.closed_sets()
    up = []
    for s in closed:
        mask = 0
        for j, t in enumerate(closed):
            if not s & ~t:
                mask |= 1 << j
        up.append(mask)
    return _lattice_of_up_masks([frozenset(p.members(s)) for s in closed], up)


def envelope_cover(lattice):
    """The cover presenting a finite lattice's frame envelope.

    Base is the lattice itself; one axiom bottom <| {} plus a <| {b,c}
    for every a below b join c, each unordered pair b, c once, so no
    axiom repeats.  The lattice's tables are validated already and its
    covers are one or two base elements in base order, so the
    presentation is built on the lattice's own meet_table without the
    checks of CoverPresentation.finite, which keeps them for every
    other caller.  The n^3/3 raw axioms are not listed: each cover
    {b, c} is kept once, in _raw_covers, with its heads, the down-set
    of b∨c, and p.axioms lists them from there only when read.

    The rule table is written from the join table, in the pass that
    writes _raw_covers, and is the one _compile would build from the
    raw axioms.
    The bottom's empty cover subsumes every other cover of the bottom.
    Any other head h has meet-below's singletons {a}, a strictly above
    h, and the pairs {u, v} with u, v strictly below h and u∨v = h, in
    index order.  These are the localized copies: at any y <= a below
    neither b nor c, the copy of a <| {b, c} is {b∧y, c∧y}, which is
    such a pair for y, since both lie strictly below y and they join
    to y∧(b∨c) = y by distributivity.  Conversely {u, v} is the copy
    of h <| {u, v} at h.  No singleton of h lies below h, and two
    distinct pairs do not contain each other, so nothing is dropped.
    The embedding returned, a -> saturate({a}), is a's down-set D: the
    singleton rules put D in cl{a}, and none of these rules leads out of D.
    """
    base, n = list(lattice.elements), len(lattice)
    join, up, down = lattice.join_table, lattice.up, lattice.down
    raw = {0: down[lattice.bottom_index]}
    rules = [[1 << a for a in range(n) if up[h] >> a & 1 and a != h]
             for h in range(n)]
    for i in range(n):
        for j in range(i, n):
            h, cover = join[i][j], 1 << i | 1 << j
            raw[cover] = down[h]
            if h != i and h != j:
                rules[h].append(cover)
    rules[lattice.bottom_index] = [0]
    index = {x: i for i, x in enumerate(base)}
    p = CoverPresentation._trusted(base, index, lattice.top,
                                   lattice.meet_table)
    p._raw_covers, p._below, p._rules = raw, down, rules
    p._group_rules()
    return p, {x: frozenset(map(base.__getitem__, _indices(d)))
               for x, d in zip(base, down)}


def _walk_starts(p):
    """Reflexivity on every closure start of p.closure_starts() and
    idempotence on each new closure, in the order walked: the failed
    report of the first mask that breaks one, or None."""
    for mask, sat, new in p.closure_starts():
        missing = mask & ~sat
        if missing:
            return failed("reflexivity fails",
                          (p.first(missing), p.members(mask)))
        if new and p.closure(sat) != sat:
            return failed("saturation not idempotent", (p.members(mask),))
    return None


def check_formal_cover_axioms(p):
    """Verify the generated cover satisfies the formal cover laws.

    Reflexivity and transitivity (idempotent saturation) are checked on
    every subset, through the closure starts of closure_starts
    (_walk_starts), in at most n + 1 closures per saturated subset, all
    cached once the frame has walked them.  A presentation with more
    than 2^15 saturated subsets is refused (BaseTooLarge).

    Meet-left is checked exactly, and stability per raw axiom a <| U,
    which propagates to the whole cover by induction on derivations.
    For any b put y = a∧b: each c∧y lies below c∧b, so by meet-left
    and transitivity y in cl(U∧y) gives y in cl(U∧b).  So it is enough
    to test y in cl(U∧y) once per distinct U and y below one of its
    heads, and a y below a member c holds by reflexivity, c∧y being y:
    the y and the localized copies are those _compile adds
    (CoverPresentation._localized).  They are read from the per-cover
    map _raw_covers, {U: the union of U's heads' down-sets}, which
    states the raw axiom a <| U for each head a; on an envelope,
    a <| {b, c} for each a <= b∨c.  So on an envelope, whose rule table is written in
    closed form, this still tests that table against the raw axioms,
    by separate code.  Only when one fails are the axioms (p.axioms,
    listed from that map on an envelope) checked one by one, in order,
    at every b, each distinct cover's localized copies closed once, so
    the first failing (head, b, cover) is the witness.  That scan stays
    because on a broken presentation closure need not be stable, so a
    failing (U, y) does not name the first failing (axiom, b).
    """
    _needs_finite(p, "check_formal_cover_axioms")
    report = _walk_starts(p)
    if report is not None:
        return report
    n = len(p.base)
    meet, idx = p.meet_table, p._base_index
    ups = [p.closure(1 << b) for b in range(n)]
    for a in range(n):
        for b in range(n):
            if meet[a][b] == a and not ups[b] >> a & 1:
                return failed("meet-left fails", (p.base[a], p.base[b]))
    if not all(p.closure(bits) >> y & 1 for y, bits in p._localized()):
        localized = {}
        for head, cover in p.axioms:
            if cover not in localized:
                localized[cover] = [
                    p.closure(sum({1 << meet[idx[x]][b] for x in cover}))
                    for b in range(n)]
            for b, sat in enumerate(localized[cover]):
                if not sat >> meet[idx[head]][b] & 1:
                    return failed("stability fails",
                                  (head, p.base[b], cover))
    return passed("cover laws hold (%d subsets checked)" % (1 << n,))


def check_compactness(p, u):
    """Smallest subcover of the top within u, or None.

    Tries subsets of u by ascending size in deterministic base order;
    None means u does not cover the top at all.  A bounded Enumeration
    is read by its elements().
    """
    _needs_finite(p, "check_compactness")
    if isinstance(u, Enumeration):
        u = u.elements()
    members = _normalize_cover_argument(p, u)
    top = p.mask((p.top,))
    if not p.closure(p.mask(members)) & top:
        return None
    for size in range(len(members) + 1):
        for candidate in combinations(members, size):
            if p.closure(p.mask(candidate)) & top:
                return candidate


def check_sigma_coherent(p, samples, budget=1000):
    """Search for countable subcovers on the given (a, u, witness) samples.

    Finite bases pass outright (every subset is countable).  Otherwise
    each sample must admit a confirmed subcover among: finite prefixes
    of the witness enumeration, the witness itself, and u itself.
    Property-based evidence, not a proof.
    """
    if not isinstance(p, CountablePresentation):
        return passed("finite base: every subset is countable")
    for sample in samples:
        a, u, witness = sample
        if witness is None and isinstance(u, Enumeration):
            witness = u
        scanned = _visible(u if witness is None else witness, 31)[0][:8]
        candidates = [scanned[:size] for size in (1, 2, 4, 8)
                      if size <= len(scanned)]
        if witness is not None:
            candidates.append(witness)
        if u is not witness:
            candidates.append(u)
        if not any(derive(p, a, w).confirmed(budget) for w in candidates):
            return failed("no countable subcover confirmed", (a,))
    return passed("%d samples admitted countable subcovers" % (len(samples),))


def relation_as_morphism(R, p1, p2):
    """Check that a base relation induces a hom of presentation frames.

    R maps each base element of p1 to an Enumeration (or iterable) over
    p2's base; the induced map sends a saturated set S to the p2
    saturation of the union of R-images over S.  Returns the
    check_sigma_hom report for that map.
    """
    get = R.__getitem__ if hasattr(R, "__getitem__") else R
    f1 = frame_of_presentation(p1)
    f2 = frame_of_presentation(p2)

    def image(a):
        try:
            values = get(a)
        except KeyError:
            raise CoverError("relation undefined at %r" % (a,))
        if isinstance(values, Enumeration):
            return values.elements()
        return list(values)

    mapping = {}
    for s in f1.elements:
        union = []
        for a in sorted(s, key=p1._base_index.__getitem__):
            for b in image(a):
                if b not in p2._base_index:
                    raise CoverError(
                        "relation image %r not in target base" % (b,))
                union.append(b)
        mapping[s] = saturate(p2, union)
    return check_sigma_hom(SigmaFrameHom(f1, f2, mapping))
