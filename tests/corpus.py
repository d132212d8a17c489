"""A deterministic corpus of small distributive lattices (size <= 8).

Sources: chains, Boolean lattices, products of chains, downset
lattices of small posets, and {bottom, top}-sublattice closures of
random subsets of the cube and of 2x4.  Used by the envelope,
compactness, and Booleanization tests.
"""

import os
import random
import sys
from types import SimpleNamespace

from sigmaloc import (
    boolean_lattice,
    chain_lattice,
    validate_lattice,
)
from sigmaloc import booleanization, formal_cover, generators, sigma_frame

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "bench")


def product_lattice(lattices):
    """Componentwise product, elements as tuples."""
    elements = [()]
    for lat in lattices:
        elements = [t + (x,) for t in elements for x in lat.elements]

    def leq(s, t):
        return all(lat.leq(x, y) for lat, x, y in zip(lattices, s, t))

    return validate_lattice(elements, leq)


def downset_lattice(points, pairs):
    """Downset lattice of the poset generated by pairs (x below y)."""
    below = {p: {p} for p in points}
    changed = True
    while changed:
        changed = False
        for x, y in pairs:
            if not below[x] <= below[y]:
                below[y] |= below[x]
                changed = True
    downsets = set()
    for mask in range(1 << len(points)):
        chosen = {points[i] for i in range(len(points)) if mask >> i & 1}
        closed = set()
        for p in chosen:
            closed |= below[p]
        downsets.add(frozenset(closed))
    elements = sorted(downsets, key=lambda s: (len(s), sorted(s)))
    return validate_lattice(elements, lambda s, t: s <= t)


def sublattice_closure(lattice, seed):
    """Smallest {bottom, top}-sublattice containing the seed elements."""
    members = set(seed) | {lattice.bottom, lattice.top}
    changed = True
    while changed:
        changed = False
        for x in list(members):
            for y in list(members):
                for z in (lattice.meet(x, y), lattice.join(x, y)):
                    if z not in members:
                        members.add(z)
                        changed = True
    elements = [x for x in lattice.elements if x in members]
    return validate_lattice(elements, lattice.leq)


def corpus():
    """Named lattices, all with at most 8 elements, at least 30 of them."""
    entries = []
    for n in range(1, 8):
        entries.append(("chain%d" % (n + 1), chain_lattice(n)))
    for k in range(4):
        entries.append(("bool%d" % k, boolean_lattice(k)))
    c2 = chain_lattice(1)
    c3 = chain_lattice(2)
    c4 = chain_lattice(3)
    entries.append(("2x2", product_lattice([c2, c2])))
    entries.append(("2x3", product_lattice([c2, c3])))
    entries.append(("2x4", product_lattice([c2, c4])))
    entries.append(("2x2x2", product_lattice([c2, c2, c2])))
    posets = [
        ("down_v", "abc", [("a", "b"), ("a", "c")]),
        ("down_wedge", "abc", [("a", "c"), ("b", "c")]),
        ("down_chain2_pt", "abc", [("a", "b")]),
        ("down_chain3_pt", "abcd", [("a", "b"), ("b", "c")]),
        ("down_diamond", "abcd",
         [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]),
        ("down_n", "abcd", [("a", "c"), ("b", "c"), ("b", "d")]),
        ("down_y_up", "abcd", [("a", "b"), ("b", "c"), ("b", "d")]),
        ("down_y_down", "abcd", [("a", "c"), ("b", "c"), ("c", "d")]),
        ("down_zigzag", "abcd", [("a", "b"), ("c", "b"), ("c", "d")]),
    ]
    for name, points, pairs in posets:
        entries.append((name, downset_lattice(list(points), pairs)))
    rng = random.Random(0)
    hosts = [("cube", boolean_lattice(3)), ("2x4b", product_lattice([c2, c4]))]
    seen_carriers = set()
    for host_name, host in hosts:
        made = 0
        tries = 0
        while made < 5 and tries < 40:
            tries += 1
            seed = [x for x in host.elements if rng.random() < 0.4]
            sub = sublattice_closure(host, seed)
            carrier = (host_name, frozenset(sub.elements))
            if carrier in seen_carriers or len(sub) < 3:
                continue
            seen_carriers.add(carrier)
            made += 1
            entries.append(("sub_%s_%d" % (host_name, made), sub))
    return entries


def bench_cover_queries(seed):
    """The queries of the bench's cover workload at a seed, built by
    bench/workloads.py on the sigmaloc modules imported here: an
    envelope query's input is (source, desc, cases), a discrete one's
    (base, meet, top, axioms, pos, powerset, cases), and each case
    starts with a subset u for check_compactness."""
    sys.path.insert(0, BENCH)
    try:
        import workloads
    finally:
        sys.path.remove(BENCH)
    k = SimpleNamespace(booleanization=booleanization,
                        formal_cover=formal_cover, generators=generators,
                        sigma_frame=sigma_frame)
    return workloads.build_cover(k, seed, None)
