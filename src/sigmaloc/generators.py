"""Stock instances: discrete covers, Cantor and Baire covers, chains,
Boolean lattices, and the default nonzero positivity.

The countable covers keep their axiom families inside the
presentation's memo tables, so repeated lookups hand back identical
objects; derivation search relies on that to recognize an axiom's own
cover inside a goal.
"""

from .booleanization import Positivity, check_overt
from .enumeration import Enumeration
from .formal_cover import CoverPresentation
from .sigma_frame import validate_lattice

__all__ = [
    "ABSURD",
    "baire_cover",
    "boolean_lattice",
    "cantor_cover",
    "chain_lattice",
    "discrete_cover",
    "with_nonzero_pos",
]


class _Absurd(object):
    """Formal bottom for the tree covers: below everything, covered by
    the empty family."""

    def __repr__(self):
        return "absurd"


ABSURD = _Absurd()


def discrete_cover(values):
    """The powerset of a finite set, presented by singleton covers.

    Base elements are frozensets (ordered by size then label), meet is
    intersection, and each subset is covered by its singletons; the
    empty set gets the empty cover, making it the formal bottom.
    Positivity is inhabitedness.  Returns (presentation, pos).
    """
    values = sorted(set(values), key=str)
    n = len(values)
    base = [frozenset(values[i] for i in range(n) if mask >> i & 1)
            for mask in range(1 << n)]
    base.sort(key=lambda s: (len(s), sorted(str(v) for v in s)))
    axioms = [(s, tuple(sorted((frozenset([v]) for v in s),
                               key=lambda t: sorted(str(x) for x in t))))
              for s in base]
    p = CoverPresentation.finite(
        base=base,
        meet=lambda s, t: s & t,
        top=frozenset(values),
        axioms=axioms,
    )
    pos = Positivity.of(s for s in base if s)
    return p, pos


def _tree_meet(x, y):
    if x is ABSURD or y is ABSURD:
        return ABSURD
    if len(x) <= len(y):
        return y if y[:len(x)] == x else ABSURD
    return x if x[:len(y)] == y else ABSURD


def _tree_cover(top, is_word, children):
    """The prefix tree over the words is_word accepts, top the empty
    word, plus the absurd element.  A word's only axiom is
    children(word); absurd is covered by the empty family.  Uppers of a
    word are its proper prefixes, shortest first, so the empty word is
    an upper of every other word; absurd has none."""

    def axioms_of(s):
        if s is ABSURD:
            return ((),)
        return (children(s),)

    def uppers_of(s):
        if s is ABSURD:
            return ()
        return tuple(s[:i] for i in range(len(s)))

    return CoverPresentation.countable(
        contains=lambda x: x is ABSURD or is_word(x),
        meet=_tree_meet,
        top=top,
        axioms_of=axioms_of,
        uppers_of=uppers_of,
    )


def cantor_cover():
    """Binary words covered by their two one-letter extensions.

    Base: strings over {0, 1} plus the absurd element.  A word's only
    axiom splits it into word+'0' and word+'1'; absurd is covered by
    nothing.  Uppers of a word are its proper prefixes, shortest first.
    """
    return _tree_cover(
        "",
        lambda x: isinstance(x, str) and all(ch in "01" for ch in x),
        lambda s: (s + "0", s + "1"),
    )


def baire_cover():
    """Finite sequences of naturals, each covered by all extensions.

    Like the binary tree, but a node has countably many children, so
    its axiom cover is an Enumeration without a surjectivity bound.
    """
    return _tree_cover(
        (),
        lambda x: isinstance(x, tuple) and all(
            isinstance(v, int) and v >= 0 for v in x),
        lambda s: Enumeration(lambda n: s + (n,)),
    )


def _middle_labels(count):
    labels = []
    for i in range(count):
        name = ""
        k = i
        while True:
            name = chr(ord("a") + k % 26) + name
            k = k // 26 - 1
            if k < 0:
                break
        labels.append(name)
    return labels


def chain_lattice(n):
    """The chain with n+1 elements: 0 < a < b < ... < 1."""
    if not isinstance(n, int) or n < 1:
        raise ValueError("chain_lattice needs n >= 1")
    if n > 30:
        raise ValueError("chain_lattice capped at n = 30")
    elements = ["0"] + _middle_labels(n - 1) + ["1"]
    position = {x: i for i, x in enumerate(elements)}
    return validate_lattice(elements,
                            lambda x, y: position[x] <= position[y])


def boolean_lattice(k):
    """The powerset of k atoms, as bitstrings ordered bitwise."""
    if not isinstance(k, int) or k < 0:
        raise ValueError("boolean_lattice needs k >= 0")
    if k > 6:
        raise ValueError("boolean_lattice capped at k = 6")
    if k == 0:
        return validate_lattice([""], lambda x, y: True)
    elements = [format(mask, "0%db" % k) for mask in range(1 << k)]
    mask = {x: i for i, x in enumerate(elements)}

    def leq(x, y):
        return mask[x] & mask[y] == mask[x]

    return validate_lattice(elements, leq)


def with_nonzero_pos(lattice):
    """Attach Pos = everything but the bottom, asserting overtness."""
    pos = Positivity.nonzero(lattice)
    report = check_overt(lattice, pos)
    if not report:
        raise ValueError("nonzero positivity is not overt here: %s"
                         % (report.detail,))
    return lattice, pos
