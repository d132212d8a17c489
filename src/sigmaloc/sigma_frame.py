"""Sigma-frames, desk scale.

Two realizations live here.  FiniteDistributiveLattice is the oracle
workhorse: a validated finite distributive lattice, where countable
joins collapse to finite ones, so the sigma-frame laws are finite
checks.  Its order is kept only as Birkhoff bitmasks (each element's
down-set and up-set, and the join-irreducibles J(L)), on which valid
input is checked in O(n^2) mask operations, distributivity included.
The free_* functions realize the free sigma-frame on a countable
generator set as enumerations of generators together with a
distinguished TOP_GENERATOR that absorbs everything above it; the
finite quotient of that realization (free_lattice) is what the tests
compare against.
"""

from collections import namedtuple

from .enumeration import (
    BLANK,
    Enumeration,
    SemiDecidableEquality,
    dovetail,
    union_countable,
)
from .reports import Record, failed, passed
from .semidecision import from_boolean

__all__ = [
    "TOP_GENERATOR",
    "FiniteDistributiveLattice",
    "LatticeError",
    "MissingMeetOrJoin",
    "NotAPartialOrder",
    "NotDistributive",
    "SigmaFrameHom",
    "check_sigma_hom",
    "extend_equality_to_free",
    "extend_to_free",
    "extend_to_free_table",
    "find_isomorphism",
    "free_bottom",
    "free_class_of",
    "free_element",
    "free_ext_equal",
    "free_generator",
    "free_join",
    "free_lattice",
    "free_meet",
    "free_top",
    "lattice_from_leq_pairs",
    "respects_disjointness",
    "validate_lattice",
]


class LatticeError(Exception):
    def __init__(self, message, witnesses=()):
        super().__init__(message)
        self.witnesses = tuple(witnesses)


class NotAPartialOrder(LatticeError):
    pass


class MissingMeetOrJoin(LatticeError):
    pass


class NotDistributive(LatticeError):
    pass


class FiniteDistributiveLattice:
    """Finite distributive lattice, its order kept as Birkhoff masks.

    Build one with validate_lattice or lattice_from_leq_pairs; the raw
    constructor trusts its tables.  Kernels that work on element
    indices read them directly: bit k of down[i] is set iff element k
    is below element i (its down-set), bit k of up[i] iff element k is
    above it, meet_table[i][j] and join_table[i][j] are indices, and
    join_irreducibles is the bitmask of the join-irreducible elements.
    By Birkhoff's theorem i is determined by down[i] & join_irreducibles,
    and that map sends meets to intersections and joins to unions.
    """

    def __init__(self, elements, down, up, meet_table, join_table,
                 bottom_index, top_index, join_irreducibles):
        self.elements = list(elements)
        self._index = {e: i for i, e in enumerate(self.elements)}
        self.down = down
        self.up = up
        self.meet_table = meet_table
        self.join_table = join_table
        self.join_irreducibles = join_irreducibles
        self.bottom_index = bottom_index
        self.bottom = self.elements[bottom_index]
        self.top = self.elements[top_index]

    def __len__(self):
        return len(self.elements)

    def index(self, x):
        try:
            return self._index[x]
        except KeyError:
            raise LatticeError("not a lattice element: %r" % (x,), (x,))

    def leq(self, x, y):
        return bool(self.down[self.index(y)] >> self.index(x) & 1)

    def meet(self, x, y):
        return self.elements[self.meet_table[self.index(x)][self.index(y)]]

    def join(self, x, y):
        return self.elements[self.join_table[self.index(x)][self.index(y)]]

    def meet_all(self, xs):
        acc = self.top
        for x in xs:
            acc = self.meet(acc, x)
        return acc

    def join_all(self, xs):
        acc = self.bottom
        for x in xs:
            acc = self.join(acc, x)
        return acc


def _check_carrier(elements):
    if not elements:
        raise LatticeError("empty carrier")
    seen = set()
    for e in elements:
        if e in seen:
            raise LatticeError("duplicate element", (e,))
        seen.add(e)


def validate_lattice(elements, leq):
    """Check order and lattice laws, returning the validated lattice.

    leq is a callable on elements or a square boolean matrix in element
    order; it is read once, into up-set masks.  Raises
    NotAPartialOrder, MissingMeetOrJoin or NotDistributive with the
    first offending elements (element order) as witnesses.
    """
    elements = list(elements)
    _check_carrier(elements)
    n = len(elements)
    up = []
    for i, x in enumerate(elements):
        row = [leq(x, y) for y in elements] if callable(leq) else leq[i]
        up.append(sum(1 << j for j in range(n) if row[j]))
    return _lattice_of_up_masks(elements, up)


def _lattice_of_up_masks(elements, up):
    """The lattice whose order has up-set masks up.

    down is up transposed, by walking the set bits of each up-set.  The
    same walk tests transitivity, each up-set holding the up-sets of
    its members, and keeps the first i whose up-set fails it; the
    witness is read off that one row: its first member j whose up-set
    leaves up[i], and the lowest k there.  Once the order laws hold, a
    comparable pair's meet and join are its ends, and otherwise the
    meet of i and j exists iff some element's down-set is the
    intersection of their down-sets, and it is that element; joins
    likewise with up-sets.  So meets and joins are mask lookups.  j is
    join-irreducible iff the elements strictly below it have a greatest
    one, whose down-set is down[j] without j.  The lattice is
    distributive iff x -> J(x), the join-irreducibles below x, sends
    binary joins to unions (Birkhoff), an O(n^2) test made as the
    tables are filled, and trivially true of comparable pairs; it flags
    each pair j < k that fails, in (j, k) order.  The witness search
    tries only the flagged pairs, for each i in order, and still finds
    the first failing triple.  The law is symmetric in j and k, so a
    first failing pair has j < k.  And if J(j v k) = J(j) u J(k), each
    join-irreducible p below i ^ (j v k) lies below i ^ j or i ^ k, and
    every element is the join of the join-irreducibles below it, so
    i ^ (j v k) = (i ^ j) v (i ^ k) for every i.
    """
    n = len(elements)
    down = [0] * n
    intransitive = None
    for i, up_i in enumerate(up):
        bit, above, reach = 1 << i, up_i, up_i
        while above:
            low = above & -above
            j = low.bit_length() - 1
            down[j] |= bit
            reach |= up[j]
            above ^= low
        if reach != up_i and intransitive is None:
            intransitive = i

    for i in range(n):
        if not up[i] >> i & 1:
            raise NotAPartialOrder("leq is not reflexive", (elements[i],))
    for i in range(n):
        both = up[i] & down[i] & ~(1 << i)
        if both:
            j = (both & -both).bit_length() - 1
            raise NotAPartialOrder(
                "leq is not antisymmetric", (elements[i], elements[j]))
    if intransitive is not None:
        i = intransitive
        j = next(j for j in range(n) if up[i] >> j & 1 and up[j] & ~up[i])
        missing = up[j] & ~up[i]
        k = (missing & -missing).bit_length() - 1
        raise NotAPartialOrder("leq is not transitive",
                               (elements[i], elements[j], elements[k]))

    by_down = {mask: i for i, mask in enumerate(down)}
    by_up = {mask: i for i, mask in enumerate(up)}
    irreducible = sum(1 << j for j in range(n)
                      if down[j] ^ 1 << j in by_down)
    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    flagged = []
    for i in range(n):
        down_i, up_i, meet_i, join_i = down[i], up[i], meet[i], join[i]
        for j in range(i, n):
            if up_i >> j & 1:
                glb, lub = i, j
            elif down_i >> j & 1:
                glb, lub = j, i
            else:
                down_j = down[j]
                glb = by_down.get(down_i & down_j)
                if glb is None:
                    raise MissingMeetOrJoin(
                        "no meet", (elements[i], elements[j]))
                lub = by_up.get(up_i & up[j])
                if lub is None:
                    raise MissingMeetOrJoin(
                        "no join", (elements[i], elements[j]))
                if (down[lub] ^ (down_i | down_j)) & irreducible:
                    flagged.append((i, j))
            meet_i[j] = meet[j][i] = glb
            join_i[j] = join[j][i] = lub

    bottom = 0
    top = 0
    for i in range(n):
        bottom = meet[bottom][i]
        top = join[top][i]

    if flagged:
        for i in range(n):
            meet_i = meet[i]
            for j, k in flagged:
                if meet_i[join[j][k]] != join[meet_i[j]][meet_i[k]]:
                    raise NotDistributive(
                        "distributivity fails",
                        (elements[i], elements[j], elements[k]))

    return FiniteDistributiveLattice(elements, down, up, meet, join,
                                     bottom, top, irreducible)


def lattice_from_leq_pairs(elements, pairs):
    """Lattice from generating order pairs (x below y).

    Takes the reflexive-transitive closure of the pairs on up-set
    masks, then validates lattice laws on the result.
    """
    elements = list(elements)
    index = {e: i for i, e in enumerate(elements)}
    up = [1 << i for i in range(len(elements))]
    for x, y in pairs:
        if x not in index:
            raise LatticeError("unknown element in order pair: %r" % (x,), (x,))
        if y not in index:
            raise LatticeError("unknown element in order pair: %r" % (y,), (y,))
        up[index[x]] |= 1 << index[y]
    for k in range(len(up)):
        bit, up_k = 1 << k, up[k]
        up = [u | up_k if u & bit else u for u in up]
    _check_carrier(elements)
    return _lattice_of_up_masks(elements, up)


def find_isomorphism(first, second):
    """Order isomorphism between two finite lattices, or None.

    Backtracking over element indices with a (down-set size, up-set
    size) signature filter and the down-set bits of the pairs already
    placed; returns a dict element-of-first -> element-of-second, in
    placement order.  The images placed are the backtracking stack: a
    position with no candidate left pops the last image and resumes
    its position at the next candidate, so no depth limit applies.
    """
    n = len(first)
    if n != len(second):
        return None
    down1, down2 = first.down, second.down
    sig1 = [(d.bit_count(), u.bit_count()) for d, u in zip(down1, first.up)]
    sig2 = [(d.bit_count(), u.bit_count()) for d, u in zip(down2, second.up)]
    order = sorted(range(n), key=lambda i: (sig1[i], str(first.elements[i])))
    image, used, j = [], 0, 0
    while len(image) < n:
        i = order[len(image)]
        for j in range(j, n):
            if used >> j & 1 or sig2[j] != sig1[i]:
                continue
            if not any((down1[i] >> a ^ down2[j] >> b) & 1
                       or (down1[a] >> i ^ down2[b] >> j) & 1
                       for a, b in zip(order, image)):
                break
        else:
            if not image:
                return None
            j = image.pop()
            used ^= 1 << j
            j += 1
            continue
        image.append(j)
        used |= 1 << j
        j = 0
    return {first.elements[i]: second.elements[j]
            for i, j in zip(order, image)}


class SigmaFrameHom(Record, namedtuple("SigmaFrameHom",
                                       "source target mapping")):
    """A map between finite lattices, given by its dict of images."""

    __slots__ = ()

    def __call__(self, x):
        return self.mapping[x]


def check_sigma_hom(hom):
    """Does the mapping preserve top, bottom, meets and joins?

    On finite lattices countable joins reduce to binary ones, so this
    is the whole sigma-frame homomorphism condition, checked on the
    index tables.  Returns a CheckReport whose witnesses name the first
    failure in element order.
    """
    src, tgt, f = hom.source, hom.target, hom.mapping
    image = []
    for x in src.elements:
        if x not in f:
            return failed("unmapped element", (x,))
        if f[x] not in tgt._index:
            return failed("image outside target", (x, f[x]))
        image.append(tgt._index[f[x]])
    if f[src.top] != tgt.top:
        return failed("top not preserved", (src.top, f[src.top]))
    if f[src.bottom] != tgt.bottom:
        return failed("bottom not preserved", (src.bottom, f[src.bottom]))
    for law, table, target in (("meet", src.meet_table, tgt.meet_table),
                               ("join", src.join_table, tgt.join_table)):
        for i, row in enumerate(table):
            target_row = target[image[i]]
            for j, k in enumerate(row):
                if image[k] != target_row[image[j]]:
                    return failed("%s not preserved" % law,
                                  (src.elements[i], src.elements[j]))
    return passed("sigma-frame homomorphism")


class _TopGenerator:
    __slots__ = ()

    def __repr__(self):
        return "TOP"


TOP_GENERATOR = _TopGenerator()


def free_generator(a):
    """The free element carrying the single generator a."""
    return Enumeration.from_iterable((a,))


def free_element(values):
    return Enumeration.from_iterable(values)


def free_top():
    return free_generator(TOP_GENERATOR)


def free_bottom():
    return Enumeration.empty()


def extend_equality_to_free(eq):
    """Lift generator equality to the carrier with TOP_GENERATOR added."""

    def psi(x, y):
        x_top = x is TOP_GENERATOR
        y_top = y is TOP_GENERATOR
        if x_top or y_top:
            return from_boolean(x_top and y_top)
        return eq.psi(x, y)

    return SemiDecidableEquality(psi, max_confirm_budget=eq.max_confirm_budget)


def free_join(family):
    """Countable join of free elements: the union of their generators."""
    return union_countable(family, lambda e: e)


def free_meet(e1, e2, eq):
    """Binary meet of free elements by dovetailing.

    Index k decodes to (n, (m, b)), as in intersect_binary.
    TOP_GENERATOR is neutral: against it the other side's generator
    goes straight through; otherwise a generator survives only when it
    eq-confirms across both sides within budget b.  Distinct generators
    meet to bottom, which is what makes the realization free only over
    disjointness-respecting assignments.
    """

    def pick(x, y, b):
        if x is TOP_GENERATOR:
            return y
        if y is TOP_GENERATOR:
            return x
        return x if eq.psi(x, y).confirmed(b) else BLANK

    return dovetail(e1, e2, eq, pick)


def free_class_of(e):
    """The finite equivalence class of a bounded free element.

    Any set containing TOP_GENERATOR denotes the top, so those all
    collapse onto the one-element class {TOP_GENERATOR}.
    """
    values = e.elements()
    if any(v is TOP_GENERATOR for v in values):
        return frozenset({TOP_GENERATOR})
    return frozenset(values)


def free_ext_equal(e1, e2):
    """Extensional equality of free elements, top classes glued."""
    return free_class_of(e1) == free_class_of(e2)


def free_lattice(generators):
    """The finite realization of the free sigma-frame on few generators.

    Elements are the subsets of the generator set plus the glued top
    class.  Validated on construction.
    """
    generators = list(generators)
    subsets = []
    for mask in range(1 << len(generators)):
        subsets.append(frozenset(
            g for i, g in enumerate(generators) if mask >> i & 1))
    subsets.sort(key=lambda s: (len(s), sorted(str(g) for g in s)))
    top_class = frozenset({TOP_GENERATOR})
    elements = subsets + [top_class]

    def leq(a, b):
        if TOP_GENERATOR in b:
            return True
        if TOP_GENERATOR in a:
            return False
        return a <= b

    return validate_lattice(elements, leq)


def respects_disjointness(lattice, assignment):
    """Do distinct generators land on disjoint lattice elements?"""
    values = list(assignment.values())
    for i, x in enumerate(values):
        for y in values[i + 1:]:
            if lattice.meet(x, y) != lattice.bottom:
                return False
    return True


def extend_to_free(generators, lattice, assignment):
    """The canonical extension of a generator assignment.

    Returns the map h sending a bounded free element to the join, in
    the lattice, of the assignment's images of its generators; the top
    generator goes to the lattice top.  h agrees with the assignment
    on generator singletons by construction.
    """
    assignment = dict(assignment)
    for a in generators:
        if a not in assignment:
            raise LatticeError("assignment misses generator %r" % (a,), (a,))

    def h(e):
        cls = free_class_of(e)
        if TOP_GENERATOR in cls:
            return lattice.top
        return lattice.join_all(assignment[a] for a in sorted(cls, key=str))

    return h


def extend_to_free_table(generators, lattice, assignment):
    """extend_to_free tabulated on the finite realization.

    Returns the SigmaFrameHom from free_lattice(generators) into the
    lattice; it is an actual homomorphism exactly when the assignment
    respects disjointness.
    """
    source = free_lattice(generators)
    h = extend_to_free(generators, lattice, assignment)
    mapping = {}
    for cls in source.elements:
        mapping[cls] = h(free_element(sorted(cls, key=str)))
    return SigmaFrameHom(source, lattice, mapping)
