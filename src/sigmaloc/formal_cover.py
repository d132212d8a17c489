"""Formal covers: presentations, saturation, derivation search, frames.

A cover presentation is a meet-semilattice base together with axioms
``head <| cover``.  Finite presentations are compiled to a Horn system
whose least-fixpoint saturation realizes the generated cover relation;
the compilation adjoins the top law (a <| {top}), meet-below axioms
(a∧b <| {a}) and meet-stable copies of the raw axioms, which is enough
for the saturation to satisfy reflexivity, transitivity, meet-left and
stability (check_formal_cover_axioms re-verifies at run time).

Countable presentations (Cantor, Baire) carry the base as a membership
predicate with axioms_of / uppers_of callbacks; they support derive but
not saturate.  derive is a SemiDecision running a depth- and node-
bounded goal-directed search per power-of-two effort bucket.  For
covers given by unbounded enumerations the axiom step is discharged
only when the axiom's cover is the goal cover itself; the engine is
sound but deliberately incomplete there, and budget exhaustion reports
Unknown, never false.
"""

import random
from itertools import combinations

from .enumeration import BLANK, Enumeration
from .reports import failed, passed
from .semidecision import SemiDecision
from .sigma_frame import SigmaFrameHom, check_sigma_hom, validate_lattice


class CoverError(Exception):
    pass


class BaseTooLarge(CoverError):
    pass


class CoverPresentation:
    """Use the finite() or countable() constructors, not __init__."""

    def __init__(self):
        raise TypeError("use CoverPresentation.finite or .countable")

    @classmethod
    def _blank(cls):
        return object.__new__(cls)

    @staticmethod
    def finite(base, meet, top, axioms):
        """Validated finite presentation.

        meet is a callable or a complete mapping on ordered pairs; the
        meet-semilattice laws (closure, idempotence, commutativity,
        associativity, top neutral) are checked exhaustively.  Covers
        are normalized to deduplicated base-index-sorted tuples.
        """
        p = CoverPresentation._blank()
        p.kind = "finite"
        p.base = list(base)
        if not p.base:
            raise CoverError("empty base")
        index = {}
        for i, x in enumerate(p.base):
            if x in index:
                raise CoverError("duplicate base element: %r" % (x,))
            index[x] = i
        p._base_index = index
        if top not in index:
            raise CoverError("top element %r not in base" % (top,))
        p.top = top

        table = {}
        for x in p.base:
            for y in p.base:
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
                table[(x, y)] = v
        for x in p.base:
            if table[(x, x)] != x:
                raise CoverError("meet not idempotent at %r" % (x,))
            if table[(x, top)] != x or table[(top, x)] != x:
                raise CoverError("top is not a meet unit at %r" % (x,))
            for y in p.base:
                if table[(x, y)] != table[(y, x)]:
                    raise CoverError("meet not commutative at (%r, %r)" % (x, y))
        for x in p.base:
            for y in p.base:
                for z in p.base:
                    if table[(table[(x, y)], z)] != table[(x, table[(y, z)])]:
                        raise CoverError(
                            "meet not associative at (%r, %r, %r)" % (x, y, z))
        p._meet_table = table

        normalized = []
        for head, cover in axioms:
            if head not in index:
                raise CoverError("axiom head %r not in base" % (head,))
            normalized.append((head, p._norm_cover(cover)))
        p.axioms = tuple(normalized)

        p._sat_cache = {}
        p._compiled = None
        p._machine = None
        p._by_head = None
        return p

    @staticmethod
    def countable(contains, meet, top, axioms_of, uppers_of):
        """Presentation with a countable base given by callbacks.

        contains decides base membership, axioms_of(a) lists the covers
        of a (tuples, or Enumerations for genuinely countable covers),
        uppers_of(a) lists the elements strictly above a.  Callback
        results are memoized so the cover objects stay stable across
        calls; derive's identity discharge relies on that.
        """
        p = CoverPresentation._blank()
        p.kind = "countable"
        p.contains = contains
        p._meet = meet
        p.top = top
        p._axioms_of = axioms_of
        p._uppers_of = uppers_of
        p._axioms_cache = {}
        p._uppers_cache = {}
        return p

    def _norm_cover(self, cover):
        members = []
        for c in cover:
            if c not in self._base_index:
                raise CoverError("cover member %r not in base" % (c,))
            if c not in members:
                members.append(c)
        members.sort(key=self._base_index.__getitem__)
        return tuple(members)

    def meet(self, x, y):
        if self.kind == "finite":
            try:
                return self._meet_table[(x, y)]
            except KeyError:
                raise CoverError("meet undefined at (%r, %r)" % (x, y))
        return self._meet(x, y)

    def axioms_of(self, a):
        """Covers of a.  Finite: from the raw axiom list.  Memoized."""
        if self.kind == "finite":
            return tuple(cover for head, cover in self.axioms if head == a)
        if a not in self._axioms_cache:
            self._axioms_cache[a] = tuple(self._axioms_of(a))
        return self._axioms_cache[a]

    def uppers_of(self, a):
        if self.kind == "finite":
            return tuple(b for b in self.base
                         if b != a and self._meet_table[(a, b)] == a)
        if a not in self._uppers_cache:
            self._uppers_cache[a] = tuple(self._uppers_of(a))
        return self._uppers_cache[a]

    def compiled_axioms(self):
        """Raw axioms plus top law, meet-below, and meet-stable copies.

        Deduplicated and ordered by (head index, cover length, cover
        indices); saturating these with plain forward chaining yields
        the full generated cover.
        """
        if self.kind != "finite":
            raise CoverError("compiled axioms need a finite base")
        if self._compiled is None:
            out = set(self.axioms)
            for a in self.base:
                out.add((a, (self.top,)))
            for a in self.base:
                for b in self.base:
                    out.add((self._meet_table[(a, b)], self._norm_cover((a,))))
            for head, cover in self.axioms:
                for b in self.base:
                    out.add((
                        self._meet_table[(head, b)],
                        self._norm_cover(
                            tuple(self._meet_table[(c, b)] for c in cover)),
                    ))
            idx = self._base_index
            self._compiled = tuple(sorted(
                out,
                key=lambda ax: (idx[ax[0]], len(ax[1]),
                                tuple(idx[c] for c in ax[1])),
            ))
        return self._compiled


def _machine(p):
    """Forward-chaining tables for saturate, cached per presentation."""
    if p._machine is None:
        axioms = p.compiled_axioms()
        heads = [head for head, cover in axioms]
        sizes = [len(cover) for head, cover in axioms]
        watchers = {}
        nullary = []
        for i, (head, cover) in enumerate(axioms):
            if not cover:
                nullary.append(head)
            for c in cover:
                watchers.setdefault(c, []).append(i)
        p._machine = (heads, sizes, watchers, tuple(nullary))
    return p._machine


def saturate(p, members):
    """The saturation of a subset: everything derivably covered by it.

    Counter-based forward chaining over the compiled axioms; results
    are cached per presentation, keyed by the member set.
    """
    if p.kind != "finite":
        raise CoverError("saturate needs a finite base")
    start = []
    for x in members:
        if x not in p._base_index:
            raise CoverError("not a base element: %r" % (x,))
        start.append(x)
    key = frozenset(start)
    cached = p._sat_cache.get(key)
    if cached is not None:
        return cached

    heads, sizes, watchers, nullary = _machine(p)
    need = list(sizes)
    sat = set()
    stack = []

    def add(x):
        if x not in sat:
            sat.add(x)
            stack.append(x)

    for h in nullary:
        add(h)
    for x in key:
        add(x)
    while stack:
        x = stack.pop()
        for i in watchers.get(x, ()):
            need[i] -= 1
            if need[i] == 0:
                add(heads[i])

    result = frozenset(sat)
    p._sat_cache[key] = result
    return result


def _cover_prefix(cover, horizon):
    """Members of a cover visible within the horizon.

    Returns (members, complete): tuples are always complete; an
    Enumeration is scanned up to max(horizon, bound) when bounded, and
    is complete only then.
    """
    if isinstance(cover, Enumeration):
        if cover.bound is not None and cover.bound <= horizon:
            return tuple(cover.elements()), True
        members = []
        for n in range(horizon + 1):
            v = cover.alpha(n)
            if v is not BLANK and v not in members:
                members.append(v)
        return tuple(members), False
    return tuple(cover), True


class _Search:
    """One depth/node-bounded proof search at a fixed effort."""

    def __init__(self, p, u, effort, build_trace=False):
        self.p = p
        self.u = u
        self.horizon = effort
        self.members, self.members_complete = _cover_prefix(u, effort)
        self.depth_limit = max(effort.bit_length() - 1, 0)
        self.nodes = 64 * effort
        self.cutoff = False
        self.build_trace = build_trace
        self.proven = {}
        if p.kind == "finite":
            for m in self.members:
                if m not in p._base_index:
                    raise CoverError("cover member %r not in base" % (m,))
            if p._by_head is None:
                by_head = {}
                for head, cover in p.compiled_axioms():
                    by_head.setdefault(head, []).append(cover)
                p._by_head = by_head

    def prove(self, x, depth, path):
        if x in self.proven:
            return self.proven[x]
        for m in self.members:
            if x == m:
                return self.done(x, ("refl", x))
            if self.p.meet(x, m) == x:
                return self.done(x, ("below", x, m))
        if not self.members_complete:
            self.cutoff = True
        if self.nodes <= 0:
            self.cutoff = True
            return None
        self.nodes -= 1
        if x in path:
            return None
        path = path | {x}
        if self.p.kind == "finite":
            return self.prove_finite(x, depth, path)
        return self.prove_countable(x, depth, path)

    def done(self, x, trace):
        self.proven[x] = trace if self.build_trace else True
        return self.proven[x]

    def prove_all(self, xs, depth, path):
        """Proofs of every element of xs in order, or None at the first
        that fails; an empty xs is proved at any depth."""
        if xs and depth < 0:
            self.cutoff = True
            return None
        children = []
        for c in xs:
            child = self.prove(c, depth, path)
            if child is None:
                return None
            children.append(child)
        return tuple(children)

    def prove_finite(self, x, depth, path):
        for cover in self.p._by_head.get(x, ()):
            children = self.prove_all(cover, depth - 1, path)
            if children is not None:
                return self.done(x, ("axiom", x, cover, children))
        return None

    def prove_countable(self, x, depth, path):
        for cover in self.p.axioms_of(x):
            if cover is self.u:
                return self.done(x, ("axiom-in-cover", x))
            members, complete = _cover_prefix(cover, self.horizon)
            if not complete:
                self.cutoff = True
                continue
            children = self.prove_all(members, depth - 1, path)
            if children is not None:
                return self.done(x, ("axiom", x, members, children))
        for v in self.p.uppers_of(x):
            if depth == 0:
                self.cutoff = True
                break
            child = self.prove(v, depth - 1, path)
            if child is not None:
                return self.done(x, ("up", x, v, child))
            for cover in self.p.axioms_of(v):
                members, complete = _cover_prefix(cover, self.horizon)
                if not complete:
                    self.cutoff = True
                    continue
                localized = tuple(self.p.meet(c, x) for c in members)
                children = self.prove_all(localized, depth - 1, path)
                if children is not None:
                    return self.done(
                        x, ("up-axiom", x, v, localized, children))
        if x != self.p.top and depth > 0:
            child = self.prove(self.p.top, depth - 1, path)
            if child is not None:
                return self.done(x, ("top", x, child))
        elif x != self.p.top:
            self.cutoff = True
        return None

    def run(self, goal):
        outcome = self.prove(goal, self.depth_limit, frozenset())
        return outcome, not self.cutoff


def _normalize_cover_argument(p, u):
    if isinstance(u, Enumeration):
        return u
    if isinstance(u, (set, frozenset)):
        u = sorted(u, key=str)
    members = tuple(u)
    if p.kind == "finite":
        return p._norm_cover(members)
    return members


def derive(p, a, u):
    """Semi-decide whether the cover axioms force a <| u.

    Stage k runs (memoized) a bounded search at effort 2^ceil(log2(k+1)):
    depth = the exponent, node budget = 64 * effort, enumeration
    horizon = effort.  On finite presentations a failed search without
    any cutoff is definitive, and later stages return Unknown without
    re-searching.
    """
    if p.kind == "finite" and a not in p._base_index:
        raise CoverError("not a base element: %r" % (a,))
    if p.kind == "countable" and not p.contains(a):
        raise CoverError("not a base element: %r" % (a,))
    u = _normalize_cover_argument(p, u)
    state = {"found": False, "never": False, "results": {}}

    def stage(k):
        if state["found"]:
            return True
        if state["never"]:
            return False
        effort = 1 << k.bit_length()
        if effort not in state["results"]:
            outcome, complete = _Search(p, u, effort).run(a)
            state["results"][effort] = outcome is not None
            if outcome is not None:
                state["found"] = True
            elif complete:
                state["never"] = True
        return state["results"][effort]

    return SemiDecision(stage)


def derive_with_trace(p, a, u, at_step):
    """Re-run the search at the effort bucket of a confirmed step.

    Returns the proof trace (nested rule tuples) or None if the bucket
    search does not succeed, which means at_step was not a confirmation
    step of derive(p, a, u).
    """
    u = _normalize_cover_argument(p, u)
    effort = 1 << at_step.bit_length()
    outcome, _complete = _Search(p, u, effort, build_trace=True).run(a)
    return outcome


def frame_of_presentation(p, max_base=15):
    """The frame presented: all saturated subsets ordered by inclusion.

    Sweeps every subset of the base (the accepted 2^n cost, capped), so
    elements of the result are frozensets of base elements, sorted by
    their base bitmask.  The result is validated as a distributive
    lattice.
    """
    if p.kind != "finite":
        raise CoverError("frame_of_presentation needs a finite base")
    n = len(p.base)
    if n > max_base:
        raise BaseTooLarge("base has %d elements, cap is %d" % (n, max_base))
    seen = set()
    distinct = []
    for mask in range(1 << n):
        subset = [p.base[i] for i in range(n) if mask >> i & 1]
        s = saturate(p, subset)
        if s not in seen:
            seen.add(s)
            distinct.append(s)
    idx = p._base_index

    def bitmask(s):
        return sum(1 << idx[x] for x in s)

    distinct.sort(key=bitmask)
    return validate_lattice(distinct, lambda s1, s2: s1 <= s2)


def envelope_cover(lattice):
    """The cover presenting a finite lattice's frame envelope.

    Base is the lattice itself; one axiom bottom <| {} plus a <| {b,c}
    for every a below b join c.  Returns the presentation together with
    the embedding a -> saturate({a}).
    """
    base = list(lattice.elements)
    axioms = [(lattice.bottom, ())]
    for i, b in enumerate(base):
        for c in base[i:]:
            w = lattice.join(b, c)
            cover = (b,) if b == c else (b, c)
            for a in base:
                if lattice.leq(a, w):
                    axioms.append((a, cover))
    seen = set()
    deduped = []
    for head, cover in axioms:
        key = (head, frozenset(cover))
        if key not in seen:
            seen.add(key)
            deduped.append((head, cover))
    p = CoverPresentation.finite(base, lattice.meet, lattice.top, deduped)
    embedding = {a: saturate(p, (a,)) for a in base}
    return p, embedding


def _default_subsets(p, cap_exponent=12):
    n = len(p.base)
    if n <= cap_exponent:
        return [tuple(p.base[i] for i in range(n) if mask >> i & 1)
                for mask in range(1 << n)]
    rng = random.Random(0)
    subsets = [(), tuple(p.base)]
    subsets.extend((x,) for x in p.base)
    for _ in range(512):
        subsets.append(tuple(x for x in p.base if rng.random() < 0.5))
    return subsets


def check_formal_cover_axioms(p, subsets=None):
    """Verify the generated cover satisfies the formal cover laws.

    Reflexivity and transitivity (idempotent saturation) are checked on
    every subset when the base is small, else on a deterministic
    sample; pass subsets explicitly to control it.  Meet-left and
    stability are checked exactly: the latter per raw axiom, which
    propagates to the whole cover by induction on derivations.
    """
    if p.kind != "finite":
        raise CoverError("check_formal_cover_axioms needs a finite base")
    if subsets is None:
        subsets = _default_subsets(p)
    for subset in subsets:
        s = saturate(p, subset)
        for x in subset:
            if x not in s:
                return failed("reflexivity fails", (x, tuple(subset)))
        if saturate(p, s) != s:
            return failed("saturation not idempotent", (tuple(subset),))
    for a in p.base:
        for b in p.base:
            if p.meet(a, b) == a and a not in saturate(p, (b,)):
                return failed("meet-left fails", (a, b))
    for head, cover in p.axioms:
        for b in p.base:
            localized = tuple(p.meet(c, b) for c in cover)
            if p.meet(head, b) not in saturate(p, localized):
                return failed("stability fails", (head, b, cover))
    return passed("cover laws hold (%d subsets checked)" % (len(subsets),))


def check_compactness(p, u):
    """Smallest subcover of the top within u, or None.

    Tries subsets of u by ascending size in deterministic base order;
    None means u does not cover the top at all.
    """
    if p.kind != "finite":
        raise CoverError("check_compactness needs a finite base")
    members = _normalize_cover_argument(p, u)
    if p.top not in saturate(p, members):
        return None
    for size in range(len(members) + 1):
        for candidate in combinations(members, size):
            if p.top in saturate(p, candidate):
                return candidate
    return None


def _prefixes(values, sizes=(1, 2, 4, 8)):
    out = []
    for size in sizes:
        if size > len(values):
            break
        out.append(tuple(values[:size]))
    return out


def check_sigma_coherent(p, samples, budget=1000):
    """Search for countable subcovers on the given (a, u, witness) samples.

    Finite bases pass outright (every subset is countable).  Otherwise
    each sample must admit a confirmed subcover among: finite prefixes
    of the witness enumeration, the witness itself, and u itself.
    Property-based evidence, not a proof.
    """
    if p.kind == "finite":
        return passed("finite base: every subset is countable")
    for sample in samples:
        a, u, witness = sample
        if witness is None and isinstance(u, Enumeration):
            witness = u
        if witness is not None:
            scanned = []
            for n in range(32):
                v = witness.alpha(n)
                if v is not BLANK and v not in scanned:
                    scanned.append(v)
                if len(scanned) >= 8:
                    break
        else:
            scanned = list(u)[:8]
        candidates = _prefixes(scanned)
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
