"""Exhaustive reference implementations for the lattice kernel.

These are the sweeps that booleanization.py no longer runs: join
splitting over every subset (2^n), every partition of the carrier
filtered by compatibility (Bell(n)), and the compatibility check keyed
by element rather than by index.  They are kept here only to compare
the direct computations with, on small lattices.
"""

from sigmaloc.booleanization import Congruence
from sigmaloc.reports import failed, passed


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
