"""Seeded inputs and their expected verdicts.

Every lattice here is known by construction: the benchmark keeps its
own order relation (chain positions, bit masks, componentwise order,
downset inclusion) and derives every expected answer from it.  No
expected value is computed by the sigmaloc layer that is being timed;
the kernel only ever sees the generated objects.
"""

import random
from itertools import combinations


class LatticeDesc:
    """A finite distributive lattice described by the benchmark.

    ``elements`` are labels in a seeded order; ``below[x]`` is the bit
    mask (over ``elements``) of everything below or equal to x.
    ``atoms`` and ``join_irreducibles`` are counts known from the
    construction: the Booleanization has 2**atoms classes and Con L has
    2**join_irreducibles members.
    """

    def __init__(self, elements, leq, atoms, join_irreducibles):
        self.elements = list(elements)
        self.index = {x: i for i, x in enumerate(self.elements)}
        self.below = {
            y: sum(1 << i for i, x in enumerate(self.elements) if leq(x, y))
            for y in self.elements}
        self.atoms = atoms
        self.join_irreducibles = join_irreducibles
        full = (1 << len(self.elements)) - 1
        self.top = next(x for x in self.elements if self.below[x] == full)
        self.bottom = next(x for x in self.elements
                           if self.below[x] == 1 << self.index[x])

    def __len__(self):
        return len(self.elements)

    @property
    def is_boolean(self):
        return len(self.elements) == 2 ** self.atoms

    def leq(self, x, y):
        return self.below[y] >> self.index[x] & 1 == 1

    def pairs(self):
        """The covering pairs (x, y): x < y with nothing in between."""
        out = []
        for x in self.elements:
            for y in self.elements:
                if x == y or not self.leq(x, y):
                    continue
                gap = self.below[y] & ~self.below[x] & ~(1 << self.index[y])
                if not any(self.leq(x, z) for z in self.elements
                           if gap >> self.index[z] & 1):
                    out.append((x, y))
        return out

    def join(self, xs):
        """Least upper bound, found from the order alone."""
        need = 0
        for x in xs:
            need |= self.below[x]
        uppers = [z for z in self.elements if self.below[z] & need == need]
        return min(uppers, key=lambda z: bin(self.below[z]).count("1"))


def chain_desc(labels):
    """A chain in the order of ``labels``: the generator's own order."""
    position = {x: i for i, x in enumerate(labels)}
    n = len(labels)
    return LatticeDesc(labels, lambda x, y: position[x] <= position[y],
                       1, n - 1)


def boolean_desc(labels):
    """Bitstring labels of the powerset, ordered bitwise."""
    k = len(labels[0])

    def leq(x, y):
        return int(x, 2) & ~int(y, 2) == 0

    return LatticeDesc(labels, leq, k, k)


def product_desc(lengths, rng):
    """Product of chains of the given lengths (each at least 2)."""
    tuples = [()]
    for length in lengths:
        tuples = [t + (i,) for t in tuples for i in range(length)]
    coords = {"p" + "_".join(str(i) for i in t): t for t in tuples}
    labels = shuffled(coords, rng)

    def leq(x, y):
        return all(a <= b for a, b in zip(coords[x], coords[y]))

    return LatticeDesc(labels, leq, len(lengths),
                       sum(length - 1 for length in lengths))


def _downsets(below_of):
    """All downsets (bit masks) of a poset given by strict-below masks."""
    m = len(below_of)
    return [mask for mask in range(1 << m)
            if all(below_of[i] & ~mask == 0
                   for i in range(m) if mask >> i & 1)]


def random_poset_desc(n, rng, max_atoms=None):
    """Downset lattice of a random poset, conditioned on n downsets.

    Rejection sampling over posets of 2..7 points; with ``max_atoms``
    the poset also has at most that many minimal points, which fixes
    the size of the Booleanization quotient and so the cost class.
    """
    lo = max(1, (n - 1).bit_length())
    hi = min(n - 1, 7)
    for _ in range(100000):
        m = rng.randint(lo, hi)
        density = rng.random()
        strict = [0] * m
        for j in range(m):
            for i in range(j):
                if rng.random() < density:
                    # strict[i] is already closed, so this stays transitive
                    strict[j] |= 1 << i | strict[i]
        minimal = sum(1 for s in strict if s == 0)
        if max_atoms is not None and minimal > max_atoms:
            continue
        masks = _downsets(strict)
        if len(masks) != n:
            continue
        names = ["d" + format(mask, "0%db" % m) for mask in masks]
        rng.shuffle(names)
        return LatticeDesc(
            names, lambda x, y: int(x[1:], 2) & ~int(y[1:], 2) == 0,
            minimal, m)
    raise ValueError("no poset with %d downsets found" % n)


def product_shapes(n):
    """Ways to write n as a product of chain lengths, at least one >= 3."""
    out = []

    def split(rest, smallest, acc):
        if rest == 1:
            if len(acc) >= 2 and max(acc) >= 3:
                out.append(tuple(acc))
            return
        for f in range(smallest, rest + 1):
            if rest % f == 0:
                split(rest // f, f, acc + [f])

    split(n, 2, [])
    return out


def shuffled(values, rng):
    values = list(values)
    rng.shuffle(values)
    return values


class Capped(Exception):
    """The kernel refuses the next size of a scaling ladder."""


def chain_labels(k, n):
    """Labels of the n-element chain from the generator, or Capped."""
    try:
        return k.generators.chain_lattice(n - 1).elements
    except ValueError as err:
        raise Capped(str(err))


def lattice_desc(k, kind, n, rng, max_atoms=None):
    """A seeded lattice of the given kind with n elements.

    Chains and Boolean lattices come from the sigmaloc generators (their
    labels and the generator's documented order); products and downset
    lattices are built here.
    """
    if kind == "chain":
        return chain_desc(chain_labels(k, n))
    if kind == "boolean":
        return boolean_desc(k.generators.boolean_lattice(n.bit_length() - 1)
                            .elements)
    if kind == "product":
        return product_desc(rng.choice(product_shapes(n)), rng)
    return random_poset_desc(n, rng, max_atoms)


def compactness_cases(desc, rng, count, max_size=6):
    """Sampled subsets U with the oracle's answer for check_compactness.

    Each case is (U, covers_top, smallest): U covers the top iff its
    join in the source is the top, and ``smallest`` is the size of the
    least subfamily of U that still joins to the top (None if none).
    """
    cases = []
    for _ in range(count):
        size = rng.randint(1, min(max_size, len(desc)))
        u = rng.sample(desc.elements, size)
        covers = desc.join(u) == desc.top
        smallest = None
        if covers:
            for k in range(len(u) + 1):
                if any(desc.join(c) == desc.top for c in combinations(u, k)):
                    smallest = k
                    break
        cases.append((tuple(u), covers, smallest))
    return cases


def seeded(seed, *salt):
    """An independent stream per (seed, salt), stable across runs."""
    return random.Random("%s/%s" % (seed, "/".join(str(s) for s in salt)))
