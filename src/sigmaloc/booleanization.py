"""Overtness, positivity, congruences, and the Booleanization quotient.

Everything here runs on validated finite lattices (or finite cover
bases).  On a lattice the checks work on its index tables and on its
Birkhoff down-set masks: a finite distributive lattice is the lattice
of down-sets of its join-irreducibles J(L) (Birkhoff), so the overt
laws, congruence compatibility and the list of all 2^|J(L)|
congruences are direct computations, not subset or partition sweeps.
The Booleanization congruence relates x and y when they lie above
the same atoms (no test z tells them apart by positivity of the
meet); its quotient is the smallest strongly dense quotient, and
smallest_strongly_dense_oracle re-derives that minimum over all
congruences so the two can be compared on every instance.
"""

from collections import namedtuple

from .formal_cover import _MAX_CLOSED, CoverError, _needs_finite
from .reports import Record, failed, passed
from .sigma_frame import SigmaFrameHom, _lattice_of_up_masks

__all__ = [
    "Congruence",
    "NoMaximumFound",
    "Positivity",
    "RepresentativeDependentPos",
    "SizeCapExceeded",
    "bool_congruence",
    "check_overt",
    "check_overt_cover",
    "congruence_leq",
    "enumerate_congruences",
    "is_congruence",
    "is_dense",
    "is_overlap_cover",
    "is_sigma_overlap_algebra",
    "is_strongly_dense",
    "quotient",
    "smallest_strongly_dense_oracle",
]


class RepresentativeDependentPos(Exception):
    """Inherited positivity disagrees inside a congruence class."""


class NoMaximumFound(Exception):
    """The strongly dense congruences have no coarsest member.

    Raising this is a falsification signal: on every valid overt
    instance the Booleanization congruence is that maximum.
    """


class SizeCapExceeded(Exception):
    pass


class Positivity(Record, namedtuple("Positivity", "members")):
    """Decidable positivity predicate, given by its member set."""

    __slots__ = ()

    def holds(self, x):
        return x in self.members

    @staticmethod
    def of(values):
        return Positivity(frozenset(values))

    @staticmethod
    def nonzero(lattice):
        return Positivity(frozenset(
            x for x in lattice.elements if x != lattice.bottom))


def check_overt(lattice, pos):
    """The overt sigma-locale laws on a finite lattice.

    In order: the bottom is not positive; positivity is upward closed;
    a positive join splits (some joinand is positive); the positivity
    axiom (every nonzero element is positive).  First failure wins,
    with witnesses.  Splitting is tested on pairs only: by induction a
    positive finite join of several joinands splits once binary joins
    do, and the empty join is the bottom, already found non-positive.
    At finite scale countable joins are finite, so this is the whole
    law; its witness is the first failing pair, in element order, as
    one tuple of joinands.

    On a finite lattice these laws leave one choice: the bottom is not
    positive and the positivity axiom makes everything else positive,
    so they hold iff Pos is Positivity.nonzero.
    """
    elements = lattice.elements
    n = len(elements)
    positive = [pos.holds(x) for x in elements]
    if positive[lattice.bottom_index]:
        return failed("bottom is positive", (lattice.bottom,))
    non_positive = sum(1 << j for j in range(n) if not positive[j])
    for i in range(n):
        above = lattice.up[i] & non_positive if positive[i] else 0
        if above:
            j = (above & -above).bit_length() - 1
            return failed("upward closure fails", (elements[i], elements[j]))
    join = lattice.join_table
    for i in range(n):
        if positive[i]:
            continue
        for j in range(i + 1, n):
            if not positive[j] and positive[join[i][j]]:
                return failed("join-splitting fails",
                              ((elements[i], elements[j]),))
    for i in range(n):
        if i != lattice.bottom_index and not positive[i]:
            return failed("positivity axiom fails", (elements[i],))
    return passed("overt laws hold")


def check_overt_cover(p, pos):
    """Overt laws for a finite cover presentation.

    Splitting: a derivably covered, positive element has a positive
    cover member.  Positivity axiom: a non-positive element is covered
    by the empty set.  A splitting failure names the first failing
    subset in bitmask order and its first positive covered element in
    base order, so the witness does not depend on hashing.

    The failing subsets are the sets of non-positive elements whose
    closure meets Pos; they are upward closed.  So the first one keeps
    a bit only when the largest candidate without it does not fail,
    decided from the top bit down: at most n + 1 closures.
    """
    _needs_finite(p, "check_overt_cover")
    base = p.base
    full = (1 << len(base)) - 1
    positive = p.mask(x for x in base if pos.holds(x))
    mask = full & ~positive
    if p.closure(mask) & positive:
        for i in reversed(range(len(base))):
            if mask >> i & 1 and p.closure(mask & ~(1 << i)) & positive:
                mask &= ~(1 << i)
        return failed("cover splitting fails",
                      (p.first(p.closure(mask) & positive), p.members(mask)))
    stuck = full & ~(p.closure(0) | positive)
    if stuck:
        return failed("positivity axiom fails", (p.first(stuck),))
    return passed("overt cover laws hold")


class Congruence(Record, namedtuple("Congruence", "elements class_of")):
    """A partition of a lattice's elements, as normalized class ids.

    elements and class_of are tuples: class_of[i] is the class of
    elements[i]; ids are normalized to first-appearance order (a
    restricted growth string), so equal partitions compare equal.
    """

    __slots__ = ()

    @staticmethod
    def from_class_ids(elements, ids):
        elements = tuple(elements)
        ids = list(ids)
        if len(ids) != len(elements):
            raise ValueError("one class id per element required")
        remap = {}
        normal = []
        for i in ids:
            if i not in remap:
                remap[i] = len(remap)
            normal.append(remap[i])
        return Congruence(elements, tuple(normal))

    @staticmethod
    def identity(lattice):
        return Congruence(tuple(lattice.elements),
                          tuple(range(len(lattice.elements))))

    def class_count(self):
        return max(self.class_of) + 1 if self.class_of else 0

    def classes(self):
        """Classes as tuples, each in element order, ordered by class id."""
        out = [[] for _ in range(self.class_count())]
        for x, i in zip(self.elements, self.class_of):
            out[i].append(x)
        return tuple(tuple(c) for c in out)

    def class_id(self, x):
        return self.class_of[self.elements.index(x)]

    def relates(self, x, y):
        return self.class_id(x) == self.class_id(y)


def is_congruence(lattice, c):
    """Compatibility of a partition with meet and join.

    Compatibility is transitive within a class, so a partition is a
    congruence iff each element's meet and join rows agree, class by
    class, with those of the first element of its class: an O(n^2)
    test, which keeps each class's first element whose rows differ.
    The failure named is the first (x, y, z) in element order with x, y
    in one class and z telling their rows apart, meet before join.  If
    two members of a class differ, its first element differs from one
    of them, so the least such x is the first element of a failing
    class: the one that comes first.  y is then that class's first
    differing element, and z the first place their rows differ.
    """
    elements = lattice.elements
    if tuple(c.elements) != tuple(elements):
        return failed("partition is over different elements", ())
    cls = c.class_of
    meet = lattice.meet_table
    join = lattice.join_table
    class_at = cls.__getitem__
    first_rows = {}
    differs = {}
    for y, k, meet_y, join_y in zip(range(len(cls)), cls, meet, join):
        rows = (list(map(class_at, meet_y)), list(map(class_at, join_y)))
        if first_rows.setdefault(k, rows) != rows:
            differs.setdefault(k, y)
    if not differs:
        return passed("congruence laws hold")
    x = min(map(cls.index, differs))
    y = differs[cls[x]]
    meet_x, meet_y = meet[x], meet[y]
    join_x, join_y = join[x], join[y]
    for z in range(len(elements)):
        if cls[meet_x[z]] != cls[meet_y[z]]:
            return failed("meet compatibility fails",
                          (elements[x], elements[y], elements[z]))
        if cls[join_x[z]] != cls[join_y[z]]:
            return failed("join compatibility fails",
                          (elements[x], elements[y], elements[z]))


def congruence_leq(c1, c2):
    """True iff every c1 class is contained in a c2 class."""
    seen = {}
    for i, j in zip(c1.class_of, c2.class_of):
        if i in seen and seen[i] != j:
            return False
        seen[i] = j
    return True


def _signatures(elements, meet_table, pos):
    """Per element index of a finite cover's base, the bitmask of the
    test elements z whose meet with it is positive."""
    positive = [pos.holds(x) for x in elements]
    out = []
    for row in meet_table:
        sig = 0
        for k, m in enumerate(row):
            if positive[m]:
                sig |= 1 << k
        out.append(sig)
    return out


def _atoms_below(lattice):
    """Per element index, the bitmask of the atoms below it; an atom's
    down-set is itself and the bottom."""
    atoms = sum(1 << i for i, down in enumerate(lattice.down)
                if down.bit_count() == 2)
    return [down & atoms for down in lattice.down]


def _require_overt(report, error=ValueError, where=""):
    """Raise error unless the overt laws hold, as report says."""
    if not report:
        raise error("positivity is not overt%s: %s" % (where, report.detail))


def bool_congruence(lattice, pos):
    """The congruence relating elements no positivity test separates.

    x ~ y iff positivity of x meet z and of y meet z agree for every z.
    Requires the overt laws, so Pos is the nonzero elements; x meet z
    is nonzero iff an atom (down-set: itself and the bottom) lies below
    both, so x ~ y iff x and y lie above the same atoms.
    """
    _require_overt(check_overt(lattice, pos))
    return Congruence.from_class_ids(lattice.elements, _atoms_below(lattice))


def quotient(lattice, c, pos=None):
    """Quotient lattice, projection hom, and (optional) inherited pos.

    Class labels are frozensets of member labels.  The order descends
    from representatives, the first element of each class: the up-set
    of a class is the classes of the elements above its representative
    (for a congruence, which is checked, [x] <= [y] iff x∨y, above x,
    lies in [y]).  Inherited positivity must agree across each class,
    otherwise RepresentativeDependentPos is raised rather than guessing
    a canonical representative.
    """
    report = is_congruence(lattice, c)
    if not report:
        raise ValueError("not a congruence: %s" % (report.detail,))
    groups = c.classes()
    labels = [frozenset(g) for g in groups]
    cls = c.class_of
    up = [0] * len(groups)
    for r, up_r in enumerate(lattice.up):
        k = cls[r]
        if up[k]:
            continue
        while up_r:
            low = up_r & -up_r
            up[k] |= 1 << cls[low.bit_length() - 1]
            up_r ^= low
    quotient_lattice = _lattice_of_up_masks(labels, up)
    mapping = {x: labels[i] for x, i in zip(c.elements, c.class_of)}
    projection = SigmaFrameHom(lattice, quotient_lattice, mapping)

    inherited = None
    if pos is not None:
        positive = []
        for label, group in zip(labels, groups):
            values = {pos.holds(m) for m in group}
            if len(values) > 1:
                raise RepresentativeDependentPos(
                    "positivity disagrees inside class %r" % (sorted(
                        group, key=str),))
            if values.pop():
                positive.append(label)
        inherited = Positivity.of(positive)
    return quotient_lattice, projection, inherited


def is_sigma_overlap_algebra(lattice, pos):
    """Does Pos-overlap with every test element determine the order?

    Returns (True, None) or (False, (x, y)) for the first pair, in
    element order, where x overlaps no more than y yet x is not below
    y.  Requires the overt laws, so Pos is the nonzero elements and, as
    in bool_congruence, x overlaps no more than y iff every atom below
    x is below y.
    """
    _require_overt(check_overt(lattice, pos))
    elements, down = lattice.elements, lattice.down
    sigs = _atoms_below(lattice)
    for i, x in enumerate(elements):
        for j, y in enumerate(elements):
            if not sigs[i] & ~sigs[j] and not down[j] >> i & 1:
                return False, (x, y)
    return True, None


def is_overlap_cover(p, pos):
    """The overlap law for a finite cover presentation.

    For every element a and every subset U: if each positive meet of a
    is matched by some cover member's positive meet, then a must be
    derivably covered by U.  With sig[x] the set of b whose meet with
    x is positive, the premise is sig[a] within the union of sig[u]
    over U.  is_sigma_overlap_algebra tests the same on a lattice, where
    the atoms below x stand for sig[x].
    Returns (True, None) or (False, (a, U)) for the first subset in
    bitmask order and the first element in base order.  The overt
    cover laws are a precondition; their failure raises CoverError.

    The premise only grows with U.  So if U fails, so does its closure
    C, and a subset of a closed set C fails iff its premise leaves C.
    The law holds iff no closed set fails (closed_sets lists them), and
    the first failing U is the least, over the failing C, of the least
    subset of C whose premise leaves C.  Those subsets are upward closed
    in C, so the least is found by dropping bits from the top while the
    premise still leaves C, and only the bits of C up to the top bit of
    the least U found so far can give a smaller one.  Premises are
    memoized by their union.
    """
    _require_overt(check_overt_cover(p, pos), CoverError, " on the base")
    n = len(p.base)
    sig = _signatures(p.base, p.meet_table, pos)
    premises = {}

    def premise(mask):
        """The elements whose sig lies within the union of sig over
        mask."""
        union = 0
        while mask:
            low = mask & -mask
            union |= sig[low.bit_length() - 1]
            mask ^= low
        if union not in premises:
            premises[union] = sum(1 << a for a in range(n)
                                  if not sig[a] & ~union)
        return premises[union]

    best = None
    for closed in p.closed_sets():
        mask = closed if best is None else closed & (
            (1 << best.bit_length()) - 1)
        if not premise(mask) & ~closed:
            continue
        for i in reversed(range(mask.bit_length())):
            if mask >> i & 1 and premise(mask & ~(1 << i)) & ~closed:
                mask &= ~(1 << i)
        if best is None or mask < best:
            best = mask
    if best is None:
        return True, None
    return False, (p.first(premise(best) & ~p.closure(best)),
                   p.members(best))


def is_dense(lattice, c):
    """Only the bottom is congruent to the bottom."""
    return c.class_of.count(c.class_id(lattice.bottom)) == 1


def is_strongly_dense(lattice, c, pos):
    """Positivity is constant on every congruence class."""
    signs = {(i, pos.holds(x)) for x, i in zip(c.elements, c.class_of)}
    return len(signs) == c.class_count()


def enumerate_congruences(lattice):
    """All congruences, one per set S of join-irreducibles.

    A finite distributive lattice is the down-sets of J = J(L), and its
    congruences are exactly x ~ y iff the join-irreducibles below x and
    below y agree on S, one for each S, all distinct (Con L is the
    Boolean lattice 2^|J|).  Each one's class ids are numbered in
    first-appearance order as they are made, so they are its restricted
    growth string, and the congruences are listed in the lexicographic
    order of those strings, as a sweep over all partitions would list
    them.  More than 2^15 of them are refused, before any is listed.
    """
    j_mask = lattice.join_irreducibles
    if 1 << j_mask.bit_count() > _MAX_CLOSED:
        raise SizeCapExceeded("more than %d congruences" % _MAX_CLOSED)
    j_below = [d & j_mask for d in lattice.down]
    strings = []
    s = 0
    while True:
        ids = {}
        strings.append(tuple(
            [ids.setdefault(b & s, len(ids)) for b in j_below]))
        if s == j_mask:
            break
        s = (s - j_mask) & j_mask
    strings.sort()
    elements = tuple(lattice.elements)
    return [Congruence(elements, class_of) for class_of in strings]


def smallest_strongly_dense_oracle(lattice, pos):
    """Brute-force the coarsest strongly dense congruence.

    Enumerates all congruences, keeps the strongly dense ones, and
    returns the one containing every other.  NoMaximumFound means the
    family has no maximum, which would falsify the minimality statement
    at this instance; it must never happen on valid overt inputs.
    """
    _require_overt(check_overt(lattice, pos))
    dense_family = [c for c in enumerate_congruences(lattice)
                    if is_strongly_dense(lattice, c, pos)]
    for candidate in dense_family:
        if all(congruence_leq(other, candidate) for other in dense_family):
            return candidate
    raise NoMaximumFound(
        "strongly dense congruences have no coarsest member")
