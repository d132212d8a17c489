"""Exhaustive reference implementations for the lattice and cover
kernels.

These are the sweeps that booleanization.py no longer runs: join
splitting over every subset (2^n), every partition of the carrier
filtered by compatibility (Bell(n)), the compatibility check keyed by
element rather than by index, and the Booleanization congruence by
each element's positive meets with every test element rather than by
the atoms below it, and the overlap algebra test likewise.  For
lattices they are also the validation on an n x n bool matrix, with
the Warshall closure of order pairs, distributivity as the O(n^3)
triple loop and the join-irreducibles as a fold of joins, the quotient
by a congruence validated on a matrix over its class representatives,
and the isomorphism search over every bijection.  For covers they are
the name-based forms of saturation, the frame, the cover laws and the
overt and overlap cover checks, which pass frozensets and tuples of
base elements where the kernel passes bitmasks, saturation by the rule
table read as names, the frame's closed sets validated on their
inclusion matrix, the meet-table validation on a dict keyed by name
pairs, the envelope's axioms built through lattice.join and
lattice.leq, raw axioms folded per cover on names, the rule table
built from a localized copy of every axiom at every element below its
head, and derive over the full compiled axiom list.  For enumerations
it is the image listed by a scan that keeps each value not == to one
kept before, quadratic in the number of distinct values.  For the
countable searches they are the probe that calls its stage at every
step, the cover prefix listed anew by that scan at every request, and
the search that tries the {top} step again after the uppers have
listed it, the search that scans the goal at a node before it rejects
a node on its path, and the prefix-tree meet that orders its two words
as a (short, long) tuple.  They are kept here only to compare the
direct computations with, on small instances.
"""

import random
from collections import namedtuple
from contextlib import contextmanager
from itertools import permutations
from unittest.mock import patch

from sigmaloc import formal_cover
from sigmaloc.booleanization import Congruence
from sigmaloc.enumeration import BLANK, Enumeration, \
    MissingSurjectivityBound
from sigmaloc.formal_cover import CoverError, _normalize_cover_argument, \
    _Search
from sigmaloc.generators import ABSURD
from sigmaloc.reports import failed, passed
from sigmaloc.semidecision import UNKNOWN, Confirmed, SemiDecision
from sigmaloc.sigma_frame import (
    LatticeError,
    MissingMeetOrJoin,
    NotAPartialOrder,
    NotDistributive,
    validate_lattice,
)

# What matrix_validation returns: the fields a validated lattice must
# agree on, with bottom and top as elements.
LatticeTables = namedtuple(
    "LatticeTables", "elements down meet_table join_table bottom top")


def matrix_validation(elements, leq):
    """validate_lattice on a bool matrix: the same laws, in the same
    order, with the same witnesses; returns LatticeTables."""
    elements = list(elements)
    if not elements:
        raise LatticeError("empty carrier")
    seen = set()
    for e in elements:
        if e in seen:
            raise LatticeError("duplicate element", (e,))
        seen.add(e)
    n = len(elements)
    if callable(leq):
        m = [[bool(leq(elements[i], elements[j])) for j in range(n)]
             for i in range(n)]
    else:
        m = [[bool(leq[i][j]) for j in range(n)] for i in range(n)]
    down = [0] * n
    up = [0] * n
    for i in range(n):
        for k in range(n):
            if m[i][k]:
                up[i] |= 1 << k
                down[k] |= 1 << i

    for i in range(n):
        if not m[i][i]:
            raise NotAPartialOrder("leq is not reflexive", (elements[i],))
    for i in range(n):
        for j in range(n):
            if i != j and m[i][j] and m[j][i]:
                raise NotAPartialOrder(
                    "leq is not antisymmetric", (elements[i], elements[j]))
    for i in range(n):
        for j in range(n):
            missing = up[j] & ~up[i] if m[i][j] else 0
            if missing:
                k = (missing & -missing).bit_length() - 1
                raise NotAPartialOrder(
                    "leq is not transitive",
                    (elements[i], elements[j], elements[k]))

    by_down = {mask: i for i, mask in enumerate(down)}
    by_up = {mask: i for i, mask in enumerate(up)}
    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            glb = by_down.get(down[i] & down[j])
            if glb is None:
                raise MissingMeetOrJoin(
                    "no meet", (elements[i], elements[j]))
            meet[i][j] = meet[j][i] = glb
            lub = by_up.get(up[i] & up[j])
            if lub is None:
                raise MissingMeetOrJoin(
                    "no join", (elements[i], elements[j]))
            join[i][j] = join[j][i] = lub

    bottom = 0
    top = 0
    for i in range(n):
        bottom = meet[bottom][i]
        top = join[top][i]

    for i in range(n):
        for j in range(n):
            for k in range(n):
                if meet[i][join[j][k]] != join[meet[i][j]][meet[i][k]]:
                    raise NotDistributive(
                        "distributivity fails",
                        (elements[i], elements[j], elements[k]))

    return LatticeTables(elements, down, meet, join, elements[bottom],
                         elements[top])


def warshall_validation(elements, pairs):
    """lattice_from_leq_pairs: the Warshall closure of the pairs on a
    bool matrix, then matrix_validation."""
    elements = list(elements)
    index = {e: i for i, e in enumerate(elements)}
    n = len(elements)
    m = [[i == j for j in range(n)] for i in range(n)]
    for x, y in pairs:
        if x not in index:
            raise LatticeError("unknown element in order pair: %r" % (x,), (x,))
        if y not in index:
            raise LatticeError("unknown element in order pair: %r" % (y,), (y,))
        m[index[x]][index[y]] = True
    for k in range(n):
        for i in range(n):
            if m[i][k]:
                for j in range(n):
                    if m[k][j]:
                        m[i][j] = True
    return matrix_validation(elements, m)


def join_irreducible_fold(tables):
    """Bitmask of the join-irreducible elements: j is one when it is not
    the bottom and the join of everything strictly below it is not j."""
    join = tables.join_table
    bottom = tables.elements.index(tables.bottom)
    mask = 0
    for j, below in enumerate(tables.down):
        acc = bottom
        below &= ~(1 << j)
        while below:
            low = below & -below
            acc = join[acc][low.bit_length() - 1]
            below ^= low
        if j != bottom and acc != j:
            mask |= 1 << j
    return mask


def name_pair_meet(base, meet, top):
    """The meet-table validation of CoverPresentation.finite on a dict
    keyed by name pairs, with the same messages in the same order, and
    associativity by the triple loop, which finite() runs only to name
    the witness; returns the dict."""
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
    table = {}
    for x in base:
        for y in base:
            if callable(meet):
                v = meet(x, y)
            else:
                try:
                    v = meet[(x, y)]
                except KeyError:
                    raise CoverError(
                        "meet table missing pair (%r, %r)" % (x, y))
            if v not in index:
                raise CoverError(
                    "meet(%r, %r) = %r is outside the base" % (x, y, v))
            table[(x, y)] = v
    for x in base:
        if table[(x, x)] != x:
            raise CoverError("meet not idempotent at %r" % (x,))
        if table[(x, top)] != x or table[(top, x)] != x:
            raise CoverError("top is not a meet unit at %r" % (x,))
        for y in base:
            if table[(x, y)] != table[(y, x)]:
                raise CoverError("meet not commutative at (%r, %r)" % (x, y))
    for x in base:
        for y in base:
            for z in base:
                if table[(table[(x, y)], z)] != table[(x, table[(y, z)])]:
                    raise CoverError(
                        "meet not associative at (%r, %r, %r)" % (x, y, z))
    return table


def permutation_isomorphism(first, second):
    """find_isomorphism by trying every bijection, in the order
    itertools.permutations lists them: the first order isomorphism,
    as a dict, or None."""
    n = len(first)
    if n != len(second):
        return None
    leq1 = [[first.leq(x, y) for y in first.elements] for x in first.elements]
    leq2 = [[second.leq(x, y) for y in second.elements]
            for x in second.elements]
    for image in permutations(range(n)):
        if all(leq1[i][j] == leq2[image[i]][image[j]]
               for i in range(n) for j in range(n)):
            return {first.elements[i]: second.elements[image[i]]
                    for i in range(n)}
    return None


def overt_sweep(lattice, pos):
    """check_overt with join-splitting tested on every subset."""
    elements = lattice.elements
    if pos.holds(lattice.bottom):
        return failed("bottom is positive", (lattice.bottom,))
    for a in elements:
        for b in elements:
            if lattice.leq(a, b) and pos.holds(a) and not pos.holds(b):
                return failed("upward closure fails", (a, b))
    n = len(elements)
    for mask in range(1 << n):
        subset = [elements[i] for i in range(n) if mask >> i & 1]
        if pos.holds(lattice.join_all(subset)):
            if not any(pos.holds(w) for w in subset):
                return failed("join-splitting fails", (tuple(subset),))
    for a in elements:
        if a != lattice.bottom and not pos.holds(a):
            return failed("positivity axiom fails", (a,))
    return passed("overt laws hold")


def signature_congruence(lattice, pos):
    """bool_congruence by its definition: the class of x is the set of
    test elements z whose meet with x is positive, n^2 meets in all."""
    elements = lattice.elements
    return Congruence.from_class_ids(elements, [
        frozenset(z for z in elements if pos.holds(lattice.meet(x, z)))
        for x in elements])


def overlap_algebra_by_signatures(lattice, pos):
    """is_sigma_overlap_algebra by its definition: x overlaps no more
    than y when every test element z whose meet with x is positive
    meets y positively too, n^2 meets in all."""
    elements = lattice.elements
    sigs = [frozenset(z for z in elements if pos.holds(lattice.meet(x, z)))
            for x in elements]
    for i, x in enumerate(elements):
        for j, y in enumerate(elements):
            if sigs[i] <= sigs[j] and not lattice.leq(x, y):
                return False, (x, y)
    return True, None


def is_congruence_by_element(lattice, c):
    """is_congruence through lattice.meet/join and a class-id dict."""
    elements = lattice.elements
    if tuple(c.elements) != tuple(elements):
        return failed("partition is over different elements", ())
    cid = {x: i for x, i in zip(c.elements, c.class_of)}
    n = len(elements)
    for i in range(n):
        for j in range(i + 1, n):
            x, y = elements[i], elements[j]
            if cid[x] != cid[y]:
                continue
            for z in elements:
                if cid[lattice.meet(x, z)] != cid[lattice.meet(y, z)]:
                    return failed("meet compatibility fails", (x, y, z))
                if cid[lattice.join(x, z)] != cid[lattice.join(y, z)]:
                    return failed("join compatibility fails", (x, y, z))
    return passed("congruence laws hold")


def quotient_by_matrix(lattice, c):
    """The quotient lattice of a congruence by matrix_validation on a
    k x k bool matrix over the class representatives, the first element
    of each class: [x] <= [y] iff x meet y lies in [x].  Returns
    LatticeTables, with frozensets of members as elements."""
    groups = c.classes()
    cls = c.class_of
    reps = [cls.index(i) for i in range(len(groups))]
    meet = lattice.meet_table
    leq = [[cls[meet[x][y]] == cls[x] for y in reps] for x in reps]
    return matrix_validation([frozenset(g) for g in groups], leq)


def density_by_pairs(lattice, c, pos):
    """(is_dense, is_strongly_dense) through Congruence.relates on
    every pair of elements."""
    dense = not any(c.relates(x, lattice.bottom) and x != lattice.bottom
                    for x in lattice.elements)
    strongly = not any(c.relates(x, y) and pos.holds(x) and not pos.holds(y)
                       for x in lattice.elements for y in lattice.elements)
    return dense, strongly


def partitions(elements):
    """Every partition, as restricted growth strings in lexicographic
    order."""
    n = len(elements)
    if not n:
        yield Congruence((), ())
        return

    def grow(prefix, used):
        if len(prefix) == n:
            yield Congruence.from_class_ids(elements, prefix)
            return
        for i in range(used + 1):
            yield from grow(prefix + [i], max(used, i + 1))

    yield from grow([0], 1)


def partition_sweep(lattice):
    """All congruences, by filtering every partition of the carrier."""
    return [c for c in partitions(lattice.elements)
            if is_congruence_by_element(lattice, c)]


def subsets(elements):
    """Every subset, in bitmask order."""
    n = len(elements)
    for mask in range(1 << n):
        yield [elements[i] for i in range(n) if mask >> i & 1]


def upward_closed_sets(lattice):
    """Every upward-closed subset, in bitmask order."""
    for subset in subsets(lattice.elements):
        members = set(subset)
        if all(y in members for x in subset for y in lattice.elements
               if lattice.leq(x, y)):
            yield subset


def compiled_by_name(p):
    """The full compiled axiom list of a finite cover, built from its
    names: the raw axioms, the top law, meet-below and every raw axiom
    localized at every base element, by (head, cover size, cover).  The
    kernel's rule table is a reduced form with the same least fixpoint."""
    idx = {x: i for i, x in enumerate(p.base)}

    def norm(cover):
        return tuple(sorted(set(cover), key=idx.__getitem__))

    out = set(p.axioms)
    out.update((a, (p.top,)) for a in p.base)
    out.update((p.meet(a, b), (a,)) for a in p.base for b in p.base)
    for head, cover in p.axioms:
        for b in p.base:
            out.add((p.meet(head, b), norm(p.meet(c, b) for c in cover)))
    return sorted(out, key=lambda ax: (idx[ax[0]], len(ax[1]),
                                       [idx[c] for c in ax[1]]))


class _FullListSearch(_Search):
    """_Search whose axiom step tries every compiled axiom of x, in the
    order of compiled_by_name.  Build and run it within relisting()."""

    def __init__(self, p, u, effort, by_head):
        super().__init__(p, u, effort)
        self.by_head = by_head

    def covers(self, x):
        return ((cover, x) for cover in self.by_head.get(x, ()))


def full_list_derive(p):
    """derive on a finite cover, searching compiled_by_name grouped by
    head; returns derive(a, u) for a normalized cover tuple u."""
    by_head = {}
    for head, cover in compiled_by_name(p):
        by_head.setdefault(head, []).append(cover)

    def derive(a, u):
        results = {}

        def stage(k):
            effort = 1 << k.bit_length()
            if effort not in results:
                with relisting():
                    search = _FullListSearch(p, u, effort, by_head)
                    outcome, complete = search.run(a)
                results[effort] = (True if outcome is not None
                                   else None if complete else False)
            return results[effort]

        return SemiDecision(stage)

    return derive


def name_saturation(p):
    """saturate by counter-based forward chaining on sets of names,
    memoized by frozenset."""
    axioms = compiled_by_name(p)
    watchers = {}
    for i, (head, cover) in enumerate(axioms):
        for c in cover:
            watchers.setdefault(c, []).append(i)
    nullary = [head for head, cover in axioms if not cover]
    sizes = [len(cover) for _head, cover in axioms]
    cache = {}

    def saturate(members):
        key = frozenset(members)
        if key not in cache:
            need = sizes.copy()
            sat = set()
            stack = []
            for x in nullary + list(key):
                if x not in sat:
                    sat.add(x)
                    stack.append(x)
            while stack:
                for i in watchers.get(stack.pop(), ()):
                    need[i] -= 1
                    head = axioms[i][0]
                    if need[i] == 0 and head not in sat:
                        sat.add(head)
                        stack.append(head)
            cache[key] = frozenset(sat)
        return cache[key]

    return saturate


def envelope_axioms_by_name(lattice):
    """envelope_cover's raw axioms through lattice.join and lattice.leq,
    with repeated (head, cover set) pairs dropped."""
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
    return deduped


def fold_by_cover(p, axioms):
    """A list of raw axioms folded per distinct cover, on names: for
    each cover, in first-listed order, the base elements below one of
    its heads, as bitmasks over base indices."""
    idx = {x: i for i, x in enumerate(p.base)}
    out = {}
    for head, cover in axioms:
        key = sum(1 << idx[c] for c in set(cover))
        below = sum(1 << idx[y] for y in p.base if p.meet(y, head) == y)
        out[key] = out.get(key, 0) | below
    return out


def frame_sweep(p):
    """frame_of_presentation: every saturated subset, sorted by base
    bitmask, ordered by inclusion."""
    saturate = name_saturation(p)
    idx = {x: i for i, x in enumerate(p.base)}
    distinct = {saturate(subset) for subset in subsets(p.base)}
    ordered = sorted(distinct, key=lambda s: sum(1 << idx[x] for x in s))
    return validate_lattice(ordered, lambda s, t: s <= t)


def frame_by_matrix(p):
    """frame_of_presentation's closed sets through matrix_validation
    on the m x m inclusion matrix; returns LatticeTables or raises its
    LatticeError."""
    closed = p.closed_sets()
    return matrix_validation([frozenset(p.members(s)) for s in closed],
                             [[not s & ~t for t in closed] for s in closed])


def sample_subsets(p):
    """All the subsets up to 12 base elements, else the empty set, the
    base, the singletons and 512 seeded random subsets.  Only the
    oracles sample: check_formal_cover_axioms covers every subset at
    any base size, through the closure starts."""
    base = p.base
    if len(base) <= 12:
        return [tuple(s) for s in subsets(base)]
    rng = random.Random(0)
    out = [(), tuple(base)]
    out.extend((x,) for x in base)
    for _ in range(512):
        out.append(tuple(x for x in base if rng.random() < 0.5))
    return out


def rule_table_saturation(p):
    """saturate by chaining over p's rule table as it stands, read as
    names, memoized by frozenset: a presentation whose _rules were
    edited after it was built saturates by what is left of them."""
    rules = [(p.base[h], p.members(bits))
             for h, covers in enumerate(p._rules) for bits in covers]
    cache = {}

    def saturate(members):
        key = frozenset(members)
        if key not in cache:
            sat = set(key)
            grown = True
            while grown:
                grown = False
                for head, cover in rules:
                    if head not in sat and all(c in sat for c in cover):
                        sat.add(head)
                        grown = True
            cache[key] = frozenset(sat)
        return cache[key]

    return saturate


def cover_laws_sweep(p, saturate=None, every=False):
    """check_formal_cover_axioms on names, over sample_subsets(p), or
    over every subset when every is set.  saturate, if given, replaces
    name_saturation(p), as rule_table_saturation(p) does for a
    presentation broken after it was built."""
    saturate = saturate or name_saturation(p)
    if every:
        checked = [tuple(s) for s in subsets(p.base)]
    else:
        checked = sample_subsets(p)
    for subset in checked:
        s = saturate(subset)
        for x in subset:
            if x not in s:
                return failed("reflexivity fails", (x, subset))
        if saturate(s) != s:
            return failed("saturation not idempotent", (subset,))
    for a in p.base:
        for b in p.base:
            if p.meet(a, b) == a and a not in saturate((b,)):
                return failed("meet-left fails", (a, b))
    for head, cover in p.axioms:
        for b in p.base:
            localized = [p.meet(c, b) for c in cover]
            if p.meet(head, b) not in saturate(localized):
                return failed("stability fails", (head, b, cover))
    return passed("cover laws hold (%d subsets checked)" % (len(checked),))


def overt_cover_sweep(p, pos, saturate=None):
    """check_overt_cover on names.  The splitting witness is whichever
    positive covered element the frozenset yields first.  saturate, if
    given, is name_saturation(p), shared across calls on one p."""
    saturate = saturate or name_saturation(p)
    for subset in subsets(p.base):
        if any(pos.holds(u) for u in subset):
            continue
        for a in saturate(subset):
            if pos.holds(a):
                return failed("cover splitting fails", (a, tuple(subset)))
    empty_covered = saturate(())
    for a in p.base:
        if not pos.holds(a) and a not in empty_covered:
            return failed("positivity axiom fails", (a,))
    return passed("overt cover laws hold")


def overlap_cover_sweep(p, pos):
    """is_overlap_cover on names, with the positive meets of a matched
    member by member; None when the overt cover laws fail."""
    if not overt_cover_sweep(p, pos):
        return None
    saturate = name_saturation(p)
    for subset in subsets(p.base):
        covered = saturate(subset)
        for a in p.base:
            if a in covered:
                continue
            if all(any(pos.holds(p.meet(u, b)) for u in subset)
                   for b in p.base if pos.holds(p.meet(a, b))):
                return False, (a, tuple(subset))
    return True, None


def compile_rules(p):
    """CoverPresentation._compile's rule table with every raw axiom
    localized at every element below its head, the copies that contain
    their own head dropped only when the covers are reduced."""
    idx, meet, n = p._base_index, p.meet_table, len(p.base)
    below = [[y for y in range(n) if meet[a][y] == y] for a in range(n)]
    covers = [{1 << a for a in range(n) if meet[a][y] == y}
              for y in range(n)]
    for head, cover in p.axioms:
        for y in below[idx[head]]:
            covers[y].add(sum({1 << meet[idx[c]][y] for c in cover}))

    def order(bits):
        members = [i for i in range(n) if bits >> i & 1]
        return len(members), members

    rules = [[] for _ in range(n)]
    for h, kept in enumerate(rules):
        for bits in sorted(covers[h], key=order):
            if not (bits >> h & 1 or any(not k & ~bits for k in kept)):
                kept.append(bits)
    return rules


def linear_scan(stage, budget):
    """The probe that calls the stage at every step 0..budget, until
    one fires or refutes: (Confirmed at the first that fires, or
    UNKNOWN; the step that refuted first, or None)."""
    for k in range(budget + 1):
        fired = stage(k)
        if fired:
            return Confirmed(k), None
        if fired is None:
            return UNKNOWN, k
    return UNKNOWN, None


def linear_probe(stage, budget):
    """linear_scan's answer: Confirmed at the first step that fires,
    UNKNOWN if none does or one refutes first."""
    return linear_scan(stage, budget)[0]


def list_elements(e):
    """Enumeration.elements() as a list scan: the values at indices up
    to the bound, in first-occurrence order, each kept unless == to a
    value kept before."""
    if e.bound is None:
        raise MissingSurjectivityBound("elements() needs a surjectivity bound")
    seen = []
    for n in range(e.bound + 1):
        v = e.alpha(n)
        if v is not BLANK and v not in seen:
            seen.append(v)
    return seen


def cover_prefix(cover, horizon):
    """Members of a cover visible within the horizon, listed anew.

    Returns (members, complete): tuples are always complete; an
    Enumeration is scanned by list_elements up to min(horizon, bound),
    and is complete only when its bound is known and within the
    horizon.
    """
    if isinstance(cover, Enumeration):
        complete = cover.bound is not None and cover.bound <= horizon
        last = cover.bound if complete else horizon
        return tuple(list_elements(Enumeration(cover.alpha, last))), complete
    return tuple(cover), True


@contextmanager
def relisting():
    """A context in which formal_cover._Search lists its goal with
    cover_prefix instead of formal_cover._visible, and every
    enumeration lists its image with list_elements."""
    with patch.object(formal_cover, "_visible", cover_prefix), \
            patch.object(Enumeration, "elements", list_elements):
        yield


def relisting_trace(p, a, u, at_step):
    """derive_with_trace on a search that lists its goal's prefix anew
    with cover_prefix, and its rule covers with list_elements."""
    u = _normalize_cover_argument(p, u)
    effort = 1 << at_step.bit_length()
    with relisting():
        outcome, _complete = _Search(p, u, effort).run(a)
    return outcome


class TopRetrySearch(_Search):
    """_Search on a countable presentation whose steps at x end with
    {top} once more, after the uppers of x have listed it.  derive and
    derive_with_trace run it in place of formal_cover._Search."""

    def covers(self, x):
        yield from self.p.local_covers(x)
        if x != self.p.top:
            yield (self.p.top,), x


class ScanFirstSearch(_Search):
    """_Search whose prove scans the goal at every node, a node on its
    path too, and rejects a node on the path only after the node budget
    step.  Each goal member is met through self.p.meet."""

    def prove(self, x, depth, path):
        if x in self.proven:
            return self.proven[x]
        for m in self.members:
            if x == m:
                return self.done(x, ("refl", x))
            if self.p.meet(x, m) == x:
                return self.done(x, ("below", x, m))
        if self.nodes <= 0:
            self.cutoff = True
            return None
        self.nodes -= 1
        if x in path:
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


def tuple_tree_meet(x, y):
    """The meet of two words of a prefix tree: the longer one when the
    shorter is its prefix, else ABSURD."""
    if x is ABSURD or y is ABSURD:
        return ABSURD
    short, long_ = (x, y) if len(x) <= len(y) else (y, x)
    if long_[:len(short)] == short:
        return long_
    return ABSURD
