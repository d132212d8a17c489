"""The four workloads: their queries, oracles and scaling ladders.

A query is one instance's whole verdict pipeline.  ``run`` is the
timed part and calls only the public sigmaloc functions, through the
module namespaces in ``k``; ``verify`` is untimed and turns the output
into (what, got, expected) triples, with ``expected`` taken from the
benchmark's own description of the instance.

Each workload's queries are fixed slots of (kind, size); the seed picks
the instances inside a slot (labels, element order, random posets,
sampled subsets).  Every pass issues each slot once, so the cost of a
pass, and with it every timing, depends on the seed only through the
instances and not through the mix.  The slots are listed in groups by
cost, so that the median and the 90th percentile fall inside a group
of one shape.
"""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

from documents import DOCUMENTS, build_document, ladder_document, record_view
from inputs import (
    LatticeDesc,
    Capped,
    chain_desc,
    chain_labels,
    compactness_cases,
    lattice_desc,
    seeded,
    shuffled,
)


class Query:
    __slots__ = ("label", "run", "verify", "inp")

    def __init__(self, label, run, verify, inp):
        self.label = label
        self.run = run
        self.verify = verify
        self.inp = inp


def _complemented(lat):
    return all(any(lat.meet(x, y) == lat.bottom and lat.join(x, y) == lat.top
                   for y in lat.elements) for x in lat.elements)


# -- lattice ---------------------------------------------------------------

# One pass, in groups by cost: 14 small instances of 2..12 elements
# (n <= 10 also enumerates congruences), 6 chains of 13 around the
# median, 8 instances of 14 elements or with 9 elements and their
# congruences, 4 chains of 15 around the
# 90th percentile, and the two slowest: the 17-element chain and the
# congruence sweep of the 10-element chain.  The groups around the two
# percentiles hold one shape each, whose cost the seed cannot move, so
# the percentiles do not depend on which instance lands at the rank.
LATTICE_SLOTS = (
    [("chain", 2), ("downset", 3), ("boolean", 4), ("chain", 4),
     ("downset", 4), ("chain", 5), ("downset", 5), ("product", 6),
     ("downset", 6), ("chain", 7), ("downset", 7), ("boolean", 8),
     ("downset", 11), ("product", 12)]
    + [("chain", 13)] * 6
    + [("product", 14), ("chain", 14), ("downset", 14), ("product", 14),
       ("downset", 14), ("downset", 14), ("product", 9), ("product", 9)]
    + [("chain", 15)] * 4
    + [("chain", 17), ("chain", 10)]
)
CONGRUENCE_CAP = 10


def lattice_input(k, desc, rng):
    return (shuffled(desc.elements, rng), shuffled(desc.pairs(), rng), desc)


def run_lattice(k, inp, congruences=True):
    elements, pairs, desc = inp
    lat = k.sigma_frame.lattice_from_leq_pairs(elements, pairs)
    lat, pos = k.generators.with_nonzero_pos(lat)
    c = k.booleanization.bool_congruence(lat, pos)
    q, _projection, inherited = k.booleanization.quotient(lat, c, pos)
    overlap, _witness = k.booleanization.is_sigma_overlap_algebra(q, inherited)
    family = None
    if congruences and len(elements) <= CONGRUENCE_CAP:
        family = k.booleanization.enumerate_congruences(lat)
    return lat, c, q, overlap, family


def verify_lattice(out, inp):
    lat, c, q, overlap, family = out
    desc = inp[2]
    checks = [
        ("order", all(lat.leq(x, y) == desc.leq(x, y)
                      for x in desc.elements for y in desc.elements), True),
        ("classes", c.class_count(), 2 ** desc.atoms),
        ("quotient size", len(q), 2 ** desc.atoms),
        ("quotient complemented", _complemented(q), True),
        ("quotient overlap", overlap, True),
    ]
    if family is not None:
        checks.append(("congruences", len(family),
                       2 ** desc.join_irreducibles))
    return checks


def build_lattice(k, seed, workdir):
    queries = []
    for i, (kind, n) in enumerate(LATTICE_SLOTS):
        rng = seeded(seed, "lattice", i)
        desc = lattice_desc(k, kind, n, rng, max_atoms=3 if n >= 12 else None)
        queries.append(Query("%s%d" % (kind, n), run_lattice, verify_lattice,
                             lattice_input(k, desc, rng)))
    return shuffled(queries, seeded(seed, "lattice", "order"))


def rung_lattice(k, n):
    """The lattice pipeline, without the capped congruence sweep, on the
    chain with n elements."""
    desc = chain_desc(chain_labels(k, n))
    inp = (desc.elements, desc.pairs(), desc)
    t0 = perf_counter()
    out = run_lattice(k, inp, congruences=False)
    return perf_counter() - t0, verify_lattice(out, inp)


# -- cover -----------------------------------------------------------------

# Envelopes of 4..13-element lattices and discrete covers on 2..4
# points; almost all of the time is saturation inside the 2^n frame
# sweep.  Grouped by cost as in LATTICE_SLOTS: 14 small instances, 6
# envelopes of the 2x5 product around the median, 8 envelopes of 10
# and 11 elements, 4 envelopes of the 11-element chain around the 90th
# percentile, and the 2^16 and 2^13 sweeps last.
COVER_SLOTS = (
    [("discrete", 2), ("discrete", 3), ("chain", 4), ("boolean", 4),
     ("downset", 5), ("product", 6), ("downset", 6), ("chain", 7),
     ("downset", 7), ("boolean", 8), ("downset", 8), ("chain", 9),
     ("product", 9), ("downset", 9)]
    + [("product", 10)] * 6
    + [("chain", 10), ("chain", 10), ("downset", 10), ("downset", 10),
       ("downset", 10), ("downset", 11), ("downset", 11), ("downset", 11)]
    + [("chain", 11)] * 4
    + [("discrete", 4), ("chain", 13)]
)
COMPACTNESS_CASES = 3


def _principal_frame(frame_elements, desc):
    """Is every frame element a principal downset, once each, of the
    source?  Then inclusion of frame elements is the source order."""
    seen = set()
    for s in frame_elements:
        top = desc.join(s)
        if set(s) != {x for x in desc.elements if desc.leq(x, top)}:
            return False
        seen.add(top)
    return len(seen) == len(desc)


def run_envelope(k, inp):
    source, desc, cases = inp
    p, _embedding = k.formal_cover.envelope_cover(source)
    frame = k.formal_cover.frame_of_presentation(p)
    iso = k.sigma_frame.find_isomorphism(frame, source)
    laws = k.formal_cover.check_formal_cover_axioms(p)
    subcovers = [k.formal_cover.check_compactness(p, u) for u, _, _ in cases]
    return frame, iso, laws, subcovers


def _compactness_checks(subcovers, cases, joins_to_top):
    checks = []
    for sub, (u, covers, smallest) in zip(subcovers, cases):
        checks.append(("covers top", sub is not None, covers))
        if covers and sub is not None:
            checks.append(("smallest subcover", len(sub), smallest))
            checks.append(("subcover covers", joins_to_top(sub), True))
    return checks


def verify_envelope(out, inp):
    frame, iso, laws, subcovers = out
    _source, desc, cases = inp
    checks = [
        ("frame size", len(frame), len(desc)),
        ("frame is the source", _principal_frame(frame.elements, desc), True),
        ("isomorphic", iso is not None, True),
        ("cover laws", bool(laws), True),
    ]
    return checks + _compactness_checks(
        subcovers, cases, lambda sub: desc.join(sub) == desc.top)


def run_discrete(k, inp):
    base, meet, top, axioms, pos, powerset, cases = inp
    p = k.formal_cover.CoverPresentation.finite(base, meet, top, axioms)
    frame = k.formal_cover.frame_of_presentation(p, max_base=len(base))
    iso = k.sigma_frame.find_isomorphism(frame, powerset)
    laws = k.formal_cover.check_formal_cover_axioms(p)
    overlap, _witness = k.booleanization.is_overlap_cover(p, pos)
    subcovers = [k.formal_cover.check_compactness(p, u) for u, _, _ in cases]
    return frame, iso, laws, overlap, subcovers


def verify_discrete(out, inp):
    frame, iso, laws, overlap, subcovers = out
    base, _meet, top, _axioms, _pos, _powerset, cases = inp
    # the saturated sets are exactly {s : s within T} for each T
    closed = all(set(s) == {b for b in base if b <= frozenset().union(*s)}
                 for s in frame.elements)
    checks = [
        ("frame size", len(frame), 2 ** len(top)),
        ("frame is the powerset", closed, True),
        ("isomorphic", iso is not None, True),
        ("cover laws", bool(laws), True),
        ("overlap cover", overlap, True),
    ]
    return checks + _compactness_checks(
        subcovers, cases, lambda sub: frozenset().union(*sub) == top)


def discrete_input(k, points, rng):
    values = ["v%d" % i for i in range(points)]
    p, pos = k.generators.discrete_cover(values)
    base = shuffled(p.base, rng)
    meet = {(x, y): x & y for x in base for y in base}
    powerset = k.generators.boolean_lattice(points)
    # the base ordered by inclusion, for the compactness oracle
    desc = LatticeDesc(base, lambda x, y: x <= y, points, points)
    return (base, meet, frozenset(values), list(p.axioms), pos, powerset,
            compactness_cases(desc, rng, COMPACTNESS_CASES))


def build_cover(k, seed, workdir):
    queries = []
    for i, (kind, n) in enumerate(COVER_SLOTS):
        rng = seeded(seed, "cover", i)
        if kind == "discrete":
            queries.append(Query("discrete%d" % n, run_discrete,
                                 verify_discrete, discrete_input(k, n, rng)))
            continue
        desc = lattice_desc(k, kind, n, rng)
        source = k.sigma_frame.lattice_from_leq_pairs(
            shuffled(desc.elements, rng), desc.pairs())
        queries.append(Query(
            "envelope-%s%d" % (kind, n), run_envelope, verify_envelope,
            (source, desc, compactness_cases(desc, rng, COMPACTNESS_CASES))))
    return shuffled(queries, seeded(seed, "cover", "order"))


def rung_cover(k, n):
    """The envelope pipeline on the chain with n elements; the default
    max_base of frame_of_presentation is the kernel's cap."""
    desc = chain_desc(chain_labels(k, n))
    source = k.sigma_frame.lattice_from_leq_pairs(desc.elements, desc.pairs())
    inp = (source, desc, [(tuple(desc.elements), True, 1)])
    t0 = perf_counter()
    try:
        out = run_envelope(k, inp)
    except k.formal_cover.BaseTooLarge as err:
        raise Capped(str(err))
    return perf_counter() - t0, verify_envelope(out, inp)


# -- countable -------------------------------------------------------------

PROPER_BUDGET = 10 ** 5
REFUTED_BUDGET = 2 * 10 ** 7
DERIVE_BUDGET = 1000
MEMBER_BUDGET = 20000


def _words(prefix, depth):
    return [prefix + format(i, "0%db" % depth) if depth else prefix
            for i in range(1 << depth)]


def run_cantor_slice(k, inp):
    depth, words = inp
    p = k.generators.cantor_cover()
    # the budget leaves room past the frozen step 2^(depth-1)
    return k.semidecision.run(k.formal_cover.derive(p, "", words),
                              2 ** depth)


def verify_cantor_slice(out, inp):
    depth = inp[0]
    return [("slice step", getattr(out, "at_step", None), 2 ** (depth - 1))]


def run_proper(k, inp):
    word, cover = inp
    p = k.generators.cantor_cover()
    return k.formal_cover.derive(p, word, cover).probe(PROPER_BUDGET)


def verify_unknown(out, inp):
    return [("stays unknown", hasattr(out, "at_step"), False)]


def run_baire(k, inp):
    p = k.generators.baire_cover()
    out = []
    for a, node in inp:
        u = p.axioms_of(node)[0]
        res = k.formal_cover.derive(p, a, u).probe(DERIVE_BUDGET)
        out.append(res)
    return out


def verify_baire(out, inp):
    # a is covered by the children of node iff a extends node
    return [("baire %r" % (a,), hasattr(res, "at_step"), a[:len(node)] == node)
            for res, (a, node) in zip(out, inp)]


def run_finite_derive(k, inp):
    source, _desc, questions, budget = inp
    p, _embedding = k.formal_cover.envelope_cover(source)
    return [k.formal_cover.derive(p, a, u).probe(budget) for a, u in questions]


def verify_finite_derive(out, inp):
    _source, desc, questions, _budget = inp
    # a <| U in the envelope iff a <= join(U) in the source
    return [("derive", hasattr(res, "at_step"), desc.leq(a, desc.join(u)))
            for res, (a, u) in zip(out, questions)]


def run_union(k, inp):
    sets = inp
    en = k.enumeration
    index = en.Enumeration.from_iterable(range(len(sets)))
    members = {i: en.Enumeration.from_iterable(s) for i, s in enumerate(sets)}
    return en.union_countable(index, members).elements()


def verify_union(out, inp):
    return [("union", sorted(out), sorted(set().union(*inp)))]


def run_intersect(k, inp):
    first, second = inp
    en = k.enumeration
    eq = en.SemiDecidableEquality.from_decidable()
    return en.intersect_binary(en.Enumeration.from_iterable(first),
                               en.Enumeration.from_iterable(second),
                               eq).elements()


def verify_intersect(out, inp):
    return [("intersection", sorted(out), sorted(set(inp[0]) & set(inp[1])))]


def run_ext_equal(k, inp):
    en = k.enumeration
    return [en.ext_equal_finite(en.Enumeration.from_iterable(a),
                                en.Enumeration.from_iterable(b))
            for a, b in inp]


def verify_ext_equal(out, inp):
    return [("ext equal", got, set(a) == set(b))
            for got, (a, b) in zip(out, inp)]


def run_detachable(k, inp):
    values, probes = inp
    en = k.enumeration
    e = en.Enumeration.from_iterable(values)
    d, g = en.to_detachable(e)
    back = en.from_detachable(d, g, bound=e.bound)
    eq = en.SemiDecidableEquality.from_decidable()
    found = [en.member_semidecide(x, back, eq).probe(MEMBER_BUDGET)
             for x in probes]
    return back.elements(), [d.chi(i) for i in range(len(values) + 2)], found


def verify_detachable(out, inp):
    values, probes = inp
    elements, chi, found = out
    checks = [("round trip", elements, list(dict.fromkeys(values))),
              ("index set", chi, [True] * len(values) + [False, False])]
    checks.extend(("member %r" % (x,), hasattr(res, "at_step"), x in values)
                  for res, x in zip(found, probes))
    return checks


def run_free(k, inp):
    gens, pairs, target_k, assignment, samples = inp
    sf = k.sigma_frame
    en = k.enumeration

    def element(names):
        return sf.free_element(
            [sf.TOP_GENERATOR if x == "TOP" else x for x in names])

    def names(cls):
        return frozenset("TOP" if x is sf.TOP_GENERATOR else x for x in cls)

    eq = sf.extend_equality_to_free(en.SemiDecidableEquality.from_decidable())
    meets = [names(sf.free_class_of(sf.free_meet(element(a), element(b), eq)))
             for a, b in pairs]
    free = sf.free_lattice(gens)
    target = k.generators.boolean_lattice(target_k)
    h = sf.extend_to_free(gens, target, assignment)
    images = [h(element(s)) for s in samples]
    return meets, len(free), images


def verify_free(out, inp):
    gens, pairs, target_k, assignment, samples = inp
    meets, size, images = out
    checks = [("free lattice size", size, 2 ** len(gens) + 1)]
    for got, (a, b) in zip(meets, pairs):
        checks.append(("free meet", got, _free_meet_oracle(a, b)))
    for got, s in zip(images, samples):
        bits = (1 << target_k) - 1 if "TOP" in s else 0
        for g in s:
            if g != "TOP":
                bits |= int(assignment[g], 2)
        checks.append(("extension", got, format(bits, "0%db" % target_k)))
    return checks


def _free_meet_oracle(a, b):
    """Generator sets of a free meet: TOP is neutral, and distinct
    generators meet to nothing."""
    if "TOP" in a and "TOP" in b:
        return frozenset({"TOP"})
    if "TOP" in a:
        return frozenset(b)
    if "TOP" in b:
        return frozenset(a)
    return frozenset(a) & frozenset(b)


DERIVE_QUESTIONS = 12


def _envelope_source(k, kind, n, rng):
    desc = lattice_desc(k, kind, n, rng)
    source = k.sigma_frame.lattice_from_leq_pairs(
        shuffled(desc.elements, rng), desc.pairs())
    return source, desc


def _derive_questions(desc, rng):
    """As many questions that hold as questions that do not."""
    wanted = {True: DERIVE_QUESTIONS // 2, False: DERIVE_QUESTIONS // 2}
    questions = []
    while len(questions) < DERIVE_QUESTIONS:
        a = rng.choice(desc.elements)
        u = tuple(rng.sample(desc.elements, rng.randint(0, 3)))
        holds = desc.leq(a, desc.join(u))
        if wanted[holds]:
            wanted[holds] -= 1
            questions.append((a, u))
    return questions


def _countable_slots(k, seed):
    """(label, run, verify, input) for one pass of the countable workload.

    Grouped by cost as in LATTICE_SLOTS: 13 small queries, 6 proper
    subcovers of the Cantor root around the median, 6 enumeration and
    slice queries, 4 Baire queries that stay unknown around the 90th
    percentile, and the refuted finite derive last.
    """
    slots = []
    for depth in range(1, 8):
        slots.append(("slice%d" % depth, run_cantor_slice,
                      verify_cantor_slice, (depth, _words("", depth))))
    rng = seeded(seed, "countable", "baire")
    confirmations = []
    for _ in range(8):
        node = tuple(rng.randrange(10) for _ in range(rng.randint(0, 2)))
        extra = tuple(rng.randrange(10) for _ in range(rng.randint(0, 2)))
        confirmations.append((node + extra, node))
    slots.append(("baire-covered", run_baire, verify_baire, confirmations))
    rng = seeded(seed, "countable", "sets")
    sets = [rng.sample(range(200), 40) for _ in range(4)]
    slots.append(("union", run_union, verify_union, sets))
    base = rng.sample(range(1000), 120)
    same = shuffled(base + base[:30], rng)
    other = base[:-1] + [1000 + rng.randrange(100)]
    slots.append(("ext_equal", run_ext_equal, verify_ext_equal,
                  [(base, same), (base, shuffled(other, rng))]))
    gens = ["g%d" % j for j in range(3)]
    pairs = [(rng.sample(gens + ["TOP"], 2), rng.sample(gens + ["TOP"], 2))
             for _ in range(4)]
    assignment = {g: format(rng.randrange(16), "04b") for g in gens}
    samples = [rng.sample(gens + ["TOP"], 2) for _ in range(6)]
    slots.append(("free", run_free, verify_free,
                  (gens, pairs, 4, assignment, samples)))
    for kind, n in (("boolean", 4), ("chain", 5)):
        rng = seeded(seed, "countable", "derive", kind)
        source, desc = _envelope_source(k, kind, n, rng)
        slots.append(("derive-%s%d" % (kind, n), run_finite_derive,
                      verify_finite_derive,
                      (source, desc, _derive_questions(desc, rng),
                       DERIVE_BUDGET)))
    # proper subcovers of the root: below other words their cost
    # depends on the word, so the seed would move it
    for depth in (1, 2, 3, 1, 2, 3):
        rng = seeded(seed, "countable", "proper", len(slots))
        cover = _words("", depth)
        cover.remove(rng.choice(cover))
        slots.append(("proper%d" % depth, run_proper, verify_unknown,
                      ("", shuffled(cover, rng))))
    slots.append(("slice8", run_cantor_slice, verify_cantor_slice,
                  (8, _words("", 8))))
    for i in range(3):
        rng = seeded(seed, "countable", "intersect", i)
        first = rng.sample(range(52), 26)
        rest = [x for x in range(52) if x not in first]
        second = shuffled(rng.sample(first, 13) + rng.sample(rest, 13), rng)
        slots.append(("intersect%d" % i, run_intersect, verify_intersect,
                      (first, second)))
    for i in range(2):
        rng = seeded(seed, "countable", "detachable", i)
        values = [rng.randrange(50) for _ in range(30)]
        probes = [rng.choice(values), 50 + rng.randrange(50)]
        slots.append(("detachable%d" % i, run_detachable, verify_detachable,
                      (values, probes)))
    for i in range(4):
        rng = seeded(seed, "countable", "stranger", i)
        node = (rng.randrange(10),)
        stranger = ((node[0] + 1 + rng.randrange(9)) % 10, rng.randrange(10))
        slots.append(("baire-stranger%d" % i, run_baire, verify_baire,
                      [(stranger, node)]))
    # the one refuted finite derive: top is not below the bottom
    source, desc = _envelope_source(k, "chain", 4,
                                    seeded(seed, "countable", "refuted"))
    slots.append(("refuted", run_finite_derive, verify_finite_derive,
                  (source, desc, [(desc.top, (desc.bottom,))],
                   REFUTED_BUDGET)))
    return slots


def build_countable(k, seed, workdir):
    queries = [Query(label, run, verify, inp)
               for label, run, verify, inp in _countable_slots(k, seed)]
    return shuffled(queries, seeded(seed, "countable", "order"))


def rung_countable(k, depth):
    """The Cantor slice of the given depth, which confirms at 2^(depth-1)."""
    inp = (depth, _words("", depth))
    t0 = perf_counter()
    out = run_cantor_slice(k, inp)
    return perf_counter() - t0, verify_cantor_slice(out, inp)


# -- cli -------------------------------------------------------------------

EXAMPLES = ("chain", "diamond", "cantor")
FORMATS = (("text", "txt"), ("records", "jsonl"))


def cli_argv(path, fmt):
    return ["--input", path, "--format", fmt]


def run_cli_process(k, inp):
    """One whole ``python -m sigmaloc.cli`` process, waited for."""
    proc = subprocess.run(
        [sys.executable, "-m", "sigmaloc.cli"] + cli_argv(inp[0], inp[1]),
        cwd=k.root, env=k.child_env, capture_output=True, timeout=170)
    return proc.returncode, proc.stdout


def run_cli_inprocess(k, inp):
    """The same command through ``cli.main`` in this process."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = k.cli.main(cli_argv(inp[0], inp[1]))
    return code, out.getvalue().encode()


def verify_golden(out, inp):
    _path, _fmt, code, golden = inp
    return [("exit code", out[0], code), ("golden bytes", out[1], golden)]


def verify_document(out, inp):
    _path, fmt, code, expects = inp
    got_code, stdout = out
    text = stdout.decode()
    checks = [("exit code", got_code, code)]
    if fmt == "records":
        records = [json.loads(line) for line in text.splitlines()]
        checks.append(("records", len(records), len(expects)))
        for record, expect in zip(records, expects):
            view = record_view(record)
            checks.append(("record", {key: view.get(key)
                                      for key in expect.record},
                           expect.record))
    else:
        heads = [line for line in text.splitlines()
                 if not line.startswith(" ")]
        checks.append(("lines", len(heads), len(expects)))
        for line, expect in zip(heads, expects):
            checks.append(("line", line[:len(expect.head)], expect.head))
    return checks


def _golden_code(jsonl):
    """Exit code 1 iff some golden record failed."""
    return int(not all(json.loads(line)["ok"] for line in jsonl.splitlines()))


def build_cli(k, seed, workdir):
    queries = []
    for name in EXAMPLES:
        path = os.path.join(k.root, "docs", "examples", name + ".cov")
        goldens = {}
        for fmt, ext in FORMATS:
            with open(os.path.join(k.root, "tests", "golden",
                                   "%s.%s" % (name, ext)), "rb") as handle:
                goldens[fmt] = handle.read()
        code = _golden_code(goldens["records"].decode())
        for fmt, _ext in FORMATS:
            queries.append(Query("%s-%s" % (name, fmt), run_cli_process,
                                 verify_golden,
                                 (path, fmt, code, goldens[fmt])))
    docdir = os.path.join(workdir, "cli")
    os.makedirs(docdir, exist_ok=True)
    for slot in range(DOCUMENTS):
        doc, expects, code = build_document(k, seed, slot)
        text = k.cli.pretty_print(doc)
        if k.cli.parse(text) != doc:
            raise ValueError("document %d does not round-trip" % slot)
        path = os.path.join(docdir, "doc%d.cov" % slot)
        with open(path, "w") as handle:
            handle.write(text)
        for fmt, _ext in FORMATS:
            queries.append(Query("doc%d-%s" % (slot, fmt), run_cli_process,
                                 verify_document, (path, fmt, code, expects)))
    return shuffled(queries, seeded(seed, "cli", "order"))


def rung_cli(k, n):
    """A cli process on the n-element chain: check overt and booleanize."""
    text = k.cli.pretty_print(ladder_document(k, chain_labels(k, n)))
    path = os.path.join(k.workdir, "ladder%d.cov" % n)
    with open(path, "w") as handle:
        handle.write(text)
    t0 = perf_counter()
    code, stdout = run_cli_process(k, (path, "records"))
    elapsed = perf_counter() - t0
    lines = stdout.decode().splitlines()
    return elapsed, [("exit code", code, 0), ("records", len(lines), 2)]
