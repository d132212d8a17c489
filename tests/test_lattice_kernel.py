"""The Birkhoff lattice kernel against the exhaustive sweeps it replaces.

Every fast path in booleanization.py is compared with its reference
sweep from oracles.py over the whole corpus, and a wall-clock guard
fails if an exponential sweep returns to a production path.
"""

import time

from sigmaloc import (
    Positivity,
    bool_congruence,
    boolean_lattice,
    chain_lattice,
    check_overt,
    enumerate_congruences,
    is_congruence,
    is_sigma_overlap_algebra,
    quotient,
    with_nonzero_pos,
)

from corpus import corpus
from oracles import (
    is_congruence_by_element,
    overt_sweep,
    partition_sweep,
    partitions,
    subsets,
    upward_closed_sets,
)

CORPUS = corpus()


def test_enumerate_congruences_matches_the_partition_sweep():
    lattices = CORPUS + [
        ("chain%d" % (n + 1), chain_lattice(n)) for n in range(1, 10)
    ] + [("bool%d" % k, boolean_lattice(k)) for k in range(4)]
    for name, lattice in lattices:
        assert enumerate_congruences(lattice) == partition_sweep(lattice), \
            name


def test_check_overt_matches_the_subset_sweep():
    for name, lattice in CORPUS:
        for members in subsets(lattice.elements):
            pos = Positivity.of(members)
            fast = check_overt(lattice, pos)
            slow = overt_sweep(lattice, pos)
            assert (fast.ok, fast.detail) == (slow.ok, slow.detail), \
                (name, members)
            if fast.detail != "join-splitting fails":
                assert fast.witnesses == slow.witnesses, (name, members)
                continue
            # the first failing pair: a subset the sweep rejects too
            (joinands,) = fast.witnesses
            assert len(joinands) == 2, (name, members)
            assert pos.holds(lattice.join_all(joinands)), (name, members)
            assert not any(pos.holds(w) for w in joinands), (name, members)


def test_overt_laws_force_nonzero_positivity():
    for name, lattice in CORPUS:
        nonzero = Positivity.nonzero(lattice)
        for members in upward_closed_sets(lattice):
            pos = Positivity.of(members)
            assert bool(check_overt(lattice, pos)) == (pos == nonzero), \
                (name, members)


def test_is_congruence_matches_the_element_keyed_loop():
    for name, lattice in CORPUS:
        if len(lattice) > 6:
            continue
        for c in partitions(lattice.elements):
            assert is_congruence(lattice, c) == \
                is_congruence_by_element(lattice, c), (name, c.class_of)


def test_lattice_pipeline_stays_polynomial():
    t0 = time.monotonic()
    for lattice in (chain_lattice(30), boolean_lattice(5)):
        lattice, pos = with_nonzero_pos(lattice)
        c = bool_congruence(lattice, pos)
        q, _projection, inherited = quotient(lattice, c, pos)
        assert is_sigma_overlap_algebra(q, inherited) == (True, None)
        is_sigma_overlap_algebra(lattice, pos)
    # the 10-element chain has 9 join-irreducibles
    assert len(enumerate_congruences(chain_lattice(9))) == 2 ** 9
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
