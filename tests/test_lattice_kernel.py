"""The Birkhoff lattice kernel against the exhaustive sweeps it replaces.

Every fast path in booleanization.py is compared with its reference
sweep from oracles.py over the whole corpus (the Booleanization
congruence by atoms also on chain31, bool6 and seeded down-set
lattices, the overlap algebra test by atoms also on quotients and
seeded down-set lattices, the congruence check by class representative
also on lattices of 7-17 elements, on congruences and on partitions
one element away from one, and the quotient also against the
bool-matrix build over its representatives), validate_lattice and
lattice_from_leq_pairs with the bool-matrix validation on the corpus
and on seeded random relations of 1-8 and of 9-20 elements, and a
wall-clock guard fails if an exponential sweep returns to a production
path.  Families whose first failure comes late in element order (M3
and N5 glued to chains, chains with late intransitive rows, partitions
with a large compatible first class) pin the witnesses read off the
fast passes, and two wall-clock guards fail if a cubic re-scan returns
to a failure path.
"""

import random
import time
from itertools import combinations

from sigmaloc import (
    Congruence,
    LatticeError,
    Positivity,
    bool_congruence,
    boolean_lattice,
    chain_lattice,
    check_overt,
    enumerate_congruences,
    is_congruence,
    is_dense,
    is_strongly_dense,
    is_sigma_overlap_algebra,
    lattice_from_leq_pairs,
    quotient,
    validate_lattice,
    with_nonzero_pos,
)

from corpus import corpus, downset_lattice, product_lattice
from oracles import (
    density_by_pairs,
    is_congruence_by_element,
    join_irreducible_fold,
    matrix_validation,
    overlap_algebra_by_signatures,
    overt_sweep,
    partition_sweep,
    partitions,
    quotient_by_matrix,
    signature_congruence,
    subsets,
    upward_closed_sets,
    warshall_validation,
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


def larger_lattices(rng):
    """Lattices of 7-17 elements: the corpus's, chains, bool4, products
    of chains and seeded down-set lattices, every other one on a
    shuffled element order."""
    out = [(name, lattice) for name, lattice in CORPUS if len(lattice) >= 7]
    out += [("chain%d" % (n + 1), chain_lattice(n)) for n in range(6, 17)]
    out += [("bool4", boolean_lattice(4)),
            ("3x4", product_lattice([chain_lattice(2), chain_lattice(3)])),
            ("2x2x4", product_lattice([chain_lattice(1), chain_lattice(1),
                                       chain_lattice(3)]))]
    while len(out) < 40:
        points = "abcde"[:rng.randint(3, 5)]
        pairs = [(x, y) for i, x in enumerate(points) for y in points[i + 1:]
                 if rng.random() < 0.3]
        lattice = downset_lattice(list(points), pairs)
        if 7 <= len(lattice) <= 17:
            out.append(("down-%d" % len(out), lattice))
    for k in range(1, len(out), 2):
        name, lattice = out[k]
        elements = list(lattice.elements)
        rng.shuffle(elements)
        out[k] = (name + "-shuffled", validate_lattice(elements, lattice.leq))
    return out


def some_congruences(lattice, rng):
    """Every congruence when there are at most 2^8, else 64 of them,
    each relating the elements whose join-irreducibles agree on a
    seeded set of join-irreducibles."""
    if lattice.join_irreducibles.bit_count() <= 8:
        return enumerate_congruences(lattice)
    j = [1 << i for i in range(len(lattice))
         if lattice.join_irreducibles >> i & 1]
    out = []
    for _ in range(64):
        s = sum(bit for bit in j if rng.random() < 0.5)
        out.append(Congruence.from_class_ids(
            lattice.elements, [d & s for d in lattice.down]))
    return out


def near_misses(congruences, rng, count):
    """Seeded partitions made from the congruences by moving one element
    to another class or to a class of its own."""
    out = []
    for _ in range(count):
        c = rng.choice(congruences)
        ids = list(c.class_of)
        i = rng.randrange(len(ids))
        others = [k for k in range(c.class_count() + 1) if k != ids[i]]
        ids[i] = rng.choice(others)
        out.append(Congruence.from_class_ids(c.elements, ids))
    return out


def test_is_congruence_matches_the_element_keyed_loop_on_larger_lattices():
    rng = random.Random("larger")
    details = []
    for name, lattice in larger_lattices(rng):
        congruences = some_congruences(lattice, rng)
        for c in congruences + near_misses(congruences, rng, 40):
            report = is_congruence(lattice, c)
            assert report == is_congruence_by_element(lattice, c), \
                (name, c.class_of)
            details.append(report.detail)
    # the members pass, and near misses fail on meets and on joins
    assert details.count("congruence laws hold") >= 1000
    assert details.count("meet compatibility fails") >= 100
    assert details.count("join compatibility fails") >= 100


def chain(names):
    """The chain on names, in their order."""
    return lattice_from_leq_pairs(names, list(zip(names, names[1:])))


def late_failing_partitions(rng):
    """(name, lattice, partition) triples whose failures come late in
    element order: chains of 20-60 elements and products of two chains
    of 4-8, each partition a congruence with a large first class (an
    initial interval, or a box at the bottom of the product) whose last
    class is merged with another class late in element order."""
    out = []
    for k in range(30):
        n = rng.randint(20, 60)
        lattice = chain(["e%d" % i for i in range(n)])
        first = rng.randint(n // 2, n - 4)
        ids = [0] * first + list(range(1, n - first + 1))
        p, q = sorted(rng.sample(range(first, n), 2))
        ids[q] = ids[p]
        out.append(("chain-%d" % k, lattice, ids))
    for k in range(30):
        a, b = rng.randint(4, 8), rng.randint(4, 8)
        lattice = product_lattice([chain_lattice(a - 1), chain_lattice(b - 1)])
        p, q = rng.randrange(a // 2, a - 1), rng.randrange(b // 2, b - 1)
        ids = [(max(i, p), max(j, q))
               for i in range(a) for j in range(b)]
        last = ids[-1]
        other = rng.choice([x for x in ids[-len(ids) // 3:]
                            if x not in (ids[0], last)])
        ids = [other if x == last else x for x in ids]
        out.append(("product-%d" % k, lattice, ids))
    return [(name, lattice, Congruence.from_class_ids(lattice.elements, ids))
            for name, lattice, ids in out]


def test_is_congruence_matches_the_element_keyed_loop_on_late_failures():
    rng = random.Random("late")
    failures = 0
    for name, lattice, c in late_failing_partitions(rng):
        report = is_congruence(lattice, c)
        assert report == is_congruence_by_element(lattice, c), \
            (name, c.class_of)
        if not report.ok:
            failures += 1
            # the first class is compatible: the witness lies past it
            assert c.class_id(report.witnesses[0]) != 0, name
    assert failures >= 40


def test_a_late_incompatible_class_is_refused_fast():
    names = ["e%d" % i for i in range(600)]
    lattice = chain(names)
    # a compatible first class of 500, then singletons, but e597 and
    # e599 share a class without e598
    ids = [0] * 500 + list(range(1, 98)) + [98, 99, 98]
    c = Congruence.from_class_ids(names, ids)
    t0 = time.monotonic()
    report = is_congruence(lattice, c)
    elapsed = time.monotonic() - t0
    assert (report.ok, report.detail, report.witnesses) == \
        (False, "meet compatibility fails", ("e597", "e599", "e598"))
    assert elapsed < 2.0


def test_quotient_matches_the_matrix_build():
    rng = random.Random("quotient")
    lattices = CORPUS + larger_lattices(rng)
    for name, lattice in lattices:
        congruences = some_congruences(lattice, rng)
        for c in rng.sample(congruences, min(8, len(congruences))):
            q, projection, _ = quotient(lattice, c)
            tables = quotient_by_matrix(lattice, c)
            assert outcome(lambda: q) == tables, (name, c.class_of)
            assert q.join_irreducibles == join_irreducible_fold(tables), \
                (name, c.class_of)
            assert all(projection(x) in q.elements and x in projection(x)
                       for x in lattice.elements), (name, c.class_of)


def test_density_matches_the_pairwise_definitions():
    rng = random.Random(3)
    for name, lattice in CORPUS:
        positivities = [Positivity.nonzero(lattice)] + [
            Positivity.of(x for x in lattice.elements if rng.random() < 0.5)
            for _ in range(3)]
        for c in enumerate_congruences(lattice):
            for pos in positivities:
                assert (is_dense(lattice, c), is_strongly_dense(
                    lattice, c, pos)) == density_by_pairs(lattice, c, pos), \
                    (name, c.class_of)


def test_bool_congruence_matches_the_signature_oracle():
    # the corpus, chain31, bool6 and seeded posets of 3-6 points
    rng = random.Random(5)
    lattices = CORPUS + [("chain31", chain_lattice(30)),
                         ("bool6", boolean_lattice(6))]
    for k in range(8):
        points = "abcdef"[:rng.randint(3, 6)]
        pairs = [(x, y) for i, x in enumerate(points) for y in points[i + 1:]
                 if rng.random() < 0.3]
        lattices.append(("down-%d" % k, downset_lattice(list(points), pairs)))
    for name, lattice in lattices:
        pos = Positivity.nonzero(lattice)
        assert bool_congruence(lattice, pos) == signature_congruence(
            lattice, pos), name


def test_overlap_algebra_matches_the_signature_oracle():
    # the corpus and a few quotients of each, and seeded posets of 1-5
    # points, under their one overt positivity
    rng = random.Random(26)
    lattices = []
    for name, lattice in CORPUS:
        lattices.append((name, lattice))
        congruences = enumerate_congruences(lattice)
        for k, c in enumerate(rng.sample(congruences,
                                         min(2, len(congruences)))):
            lattices.append(("%s/%d" % (name, k), quotient(lattice, c)[0]))
    for k in range(300):
        points = "abcde"[:rng.randint(1, 5)]
        pairs = [(x, y) for i, x in enumerate(points) for y in points[i + 1:]
                 if rng.random() < 0.3]
        lattices.append(("down-%d" % k, downset_lattice(list(points), pairs)))
    verdicts = []
    for name, lattice in lattices:
        pos = Positivity.nonzero(lattice)
        verdict = is_sigma_overlap_algebra(lattice, pos)
        assert verdict == overlap_algebra_by_signatures(lattice, pos), name
        verdicts.append(verdict[0])
    assert verdicts.count(False) >= 20 and verdicts.count(True) >= 20


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


M3 = (["0", "a", "b", "c", "1"],
      [("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"),
       ("c", "1")])
N5 = (["0", "a", "b", "c", "1"],
      [("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "1")])


def order_matrix(elements, pairs):
    """The reflexive-transitive closure of order pairs, as a matrix."""
    index = {x: i for i, x in enumerate(elements)}
    m = [[i == j for j in range(len(elements))] for i in range(len(elements))]
    for x, y in pairs:
        m[index[x]][index[y]] = True
    for k in range(len(m)):
        for i in range(len(m)):
            if m[i][k]:
                m[i] = [a or b for a, b in zip(m[i], m[k])]
    return m


def random_closure_lattice(rng, ground=(2, 4), sets=(1, 5)):
    """The sets of a random family of 1-5 sets (by default) on a ground
    set of 2-4 points, closed under intersection, with the whole ground
    set: a lattice under inclusion, often not distributive (M3 and N5
    are of this form)."""
    ground = frozenset(range(rng.randint(*ground)))
    family = {ground}
    for _ in range(rng.randint(*sets)):
        family.add(frozenset(x for x in ground if rng.random() < 0.5))
    changed = True
    while changed:
        changed = False
        for s, t in combinations(list(family), 2):
            if s & t not in family:
                family.add(s & t)
                changed = True
    return sorted(family, key=sorted), lambda s, t: s <= t


def random_downset_lattice(rng, points=(1, 3)):
    """The down-sets of a random order on 1-3 points (by default):
    distributive."""
    n = rng.randint(*points)
    below = [{i} | {j for j in range(i) if rng.random() < 0.5}
             for i in range(n)]
    for i in range(n):
        for j in sorted(below[i]):
            below[i] |= below[j]
    downsets = {frozenset().union(*(below[i] for i in range(n)
                                    if mask >> i & 1))
                for mask in range(1 << n)}
    return sorted(downsets, key=sorted), lambda s, t: s <= t


def random_order(rng, sizes=(1, 8)):
    """The transitive closure of random pairs along a hidden linear
    order on 1-8 elements (by default): a partial order, often with
    missing meets or joins."""
    elements = list(range(rng.randint(*sizes)))
    m = order_matrix(elements, [(i, j) for i in elements for j in elements
                                if i < j and rng.random() < 0.3])
    return elements, lambda x, y: m[x][y]


def random_relation(rng, sizes=(1, 8)):
    """Any relation on 1-8 elements (by default), reflexive or not."""
    n = rng.randint(*sizes)
    density = rng.random()
    m = [[rng.random() < density for _ in range(n)] for _ in range(n)]
    if rng.random() < 0.5:
        for i in range(n):
            m[i][i] = True
    return list(range(n)), lambda x, y: m[x][y]


def fixed(elements, pairs):
    """A maker that returns the order the pairs generate."""
    m = order_matrix(elements, pairs)
    index = {x: i for i, x in enumerate(elements)}
    return lambda rng: (elements, lambda x, y: m[index[x]][index[y]])


SMALL_MAKERS = [random_relation, random_order, random_downset_lattice,
                random_closure_lattice, fixed(*M3), fixed(*N5)]
# makers whose cases often land on 9-20 elements
LARGER_MAKERS = [
    lambda rng: random_relation(rng, (9, 20)),
    lambda rng: random_order(rng, (9, 20)),
    lambda rng: random_downset_lattice(rng, (4, 5)),
    lambda rng: random_closure_lattice(rng, (4, 5), (3, 8)),
]


def random_cases(rng, count, makers=SMALL_MAKERS, sizes=(1, 8), flip=0.15):
    """(elements, matrix) pairs of sizes[0]-sizes[1] elements drawn from
    the makers, each shuffled and relabelled, with one entry of the
    matrix flipped at rate flip: by default on 1-8 elements, relations,
    orders, distributive and closure lattices, M3 and N5."""
    out = []
    while len(out) < count:
        elements, leq = rng.choice(makers)(rng)
        if not sizes[0] <= len(elements) <= sizes[1]:
            continue
        order = list(elements)
        rng.shuffle(order)
        m = [[bool(leq(x, y)) for y in order] for x in order]
        if rng.random() < flip:
            i, j = rng.randrange(len(m)), rng.randrange(len(m))
            m[i][j] = not m[i][j]
        labels = ["e%d" % i for i in range(len(order))]
        rng.shuffle(labels)
        out.append((labels, m))
    return out


def outcome(build, *args):
    """The error class, message and witnesses, or the compared tables."""
    try:
        lattice = build(*args)
    except LatticeError as err:
        return type(err), err.args[0], err.witnesses
    if isinstance(lattice, tuple):
        return lattice
    return (lattice.elements, lattice.down, lattice.meet_table,
            lattice.join_table, lattice.bottom, lattice.top)


def check_against_the_matrix_validation(elements, m, rng):
    """Both entry points against their oracles; returns the outcome."""
    expected = outcome(matrix_validation, elements, m)
    assert outcome(validate_lattice, elements, m) == expected
    index = {x: i for i, x in enumerate(elements)}
    assert outcome(validate_lattice, elements,
                   lambda x, y: m[index[x]][index[y]]) == expected
    if not isinstance(expected[0], type):
        tables = matrix_validation(elements, m)
        lattice = validate_lattice(elements, m)
        assert lattice.join_irreducibles == join_irreducible_fold(tables)
        assert all(lattice.leq(x, y) is bool(m[index[x]][index[y]])
                   for x in elements for y in elements)
    pairs = [(x, y) for x in elements for y in elements
             if m[index[x]][index[y]] and rng.random() < 0.7]
    if rng.random() < 0.05:
        pairs.append((rng.choice(elements), "stray"))
    assert outcome(lattice_from_leq_pairs, elements, pairs) == \
        outcome(warshall_validation, elements, pairs)
    return expected


def test_validation_matches_the_matrix_oracle_on_the_corpus():
    rng = random.Random(5)
    for _name, lattice in CORPUS:
        elements = lattice.elements
        m = [[lattice.leq(x, y) for y in elements] for x in elements]
        check_against_the_matrix_validation(elements, m, rng)
    for elements, pairs in (M3, N5):
        check_against_the_matrix_validation(
            elements, order_matrix(elements, pairs), rng)


# every verdict of the validation
VERDICTS = {"leq is not reflexive", "leq is not antisymmetric",
            "leq is not transitive", "no meet", "no join",
            "distributivity fails", "ok"}


def test_validation_matches_the_matrix_oracle_on_random_relations():
    rng = random.Random(2024)
    seen = set()
    for elements, m in random_cases(rng, 5000):
        expected = check_against_the_matrix_validation(elements, m, rng)
        seen.add(expected[1] if isinstance(expected[0], type) else "ok")
    assert seen == VERDICTS


def test_validation_matches_the_matrix_oracle_on_larger_relations():
    rng = random.Random("larger-validation")
    seen = set()
    for elements, m in random_cases(rng, 400, LARGER_MAKERS, (9, 20), 0.35):
        expected = check_against_the_matrix_validation(elements, m, rng)
        seen.add(expected[1] if isinstance(expected[0], type) else "ok")
    assert seen == VERDICTS


def glued_block(rng):
    """M3 or N5 glued above a chain, or between two chains, of 20-60
    elements in all, as (elements, matrix) on a shuffled element order:
    not distributive, and the block lands anywhere in that order."""
    block, block_pairs = rng.choice((M3, N5))
    total = rng.randint(20, 60)
    below = rng.randint(1, total)
    lower = ["l%d" % i for i in range(below)]
    upper = ["u%d" % i for i in range(total - below)]
    pairs = list(zip(lower, lower[1:])) + list(zip(upper, upper[1:]))
    pairs += [("b" + x, "b" + y) for x, y in block_pairs]
    pairs.append((lower[-1], "b0"))
    if upper:
        pairs.append(("b1", upper[0]))
    elements = lower + ["b" + x for x in block] + upper
    rng.shuffle(elements)
    return elements, order_matrix(elements, pairs)


def late_intransitive(rng):
    """A chain of 20-60 elements on a shuffled element order, with one
    to three entries x <= z dropped where some y lies strictly between,
    each from a row in the last quarter of the order: reflexive and
    antisymmetric, not transitive, first failing late."""
    n = rng.randint(20, 60)
    rank = list(range(n))
    rng.shuffle(rank)
    m = [[rank[i] <= rank[j] for j in range(n)] for i in range(n)]
    late = range(n - n // 4, n)
    dropped = 0
    while dropped == 0:
        for _ in range(rng.randint(1, 3)):
            i = rng.choice(late)
            far = [j for j in range(n) if rank[j] >= rank[i] + 2 and m[i][j]]
            if far:
                m[i][rng.choice(far)] = False
                dropped += 1
    return ["e%d" % i for i in range(n)], m


def test_validation_matches_the_matrix_oracle_on_late_failures():
    rng = random.Random("late-validation")
    for _ in range(12):
        elements, m = glued_block(rng)
        expected = check_against_the_matrix_validation(elements, m, rng)
        assert expected[1] == "distributivity fails"
    for _ in range(30):
        elements, m = late_intransitive(rng)
        expected = check_against_the_matrix_validation(elements, m, rng)
        assert expected[1] == "leq is not transitive"
        assert elements.index(expected[2][0]) >= len(elements) * 3 // 4


def test_a_late_distributivity_failure_is_refused_fast():
    # a chain of 500 with M3 on top
    names = ["e%d" % i for i in range(500)]
    pairs = list(zip(names, names[1:]))
    pairs += [("e499", x) for x in "xyz"] + [(x, "t") for x in "xyz"]
    t0 = time.monotonic()
    result = outcome(lattice_from_leq_pairs, names + list("xyzt"), pairs)
    elapsed = time.monotonic() - t0
    assert result[1:] == ("distributivity fails", ("x", "y", "z"))
    assert elapsed < 2.0
