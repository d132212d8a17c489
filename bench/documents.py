"""Seeded ``.cov`` documents for the cli workload, with their oracles.

A document is built as a ``sigmaloc.cli.Document`` from the cli's own
block and command classes, and printed with ``pretty_print``; the
caller checks ``parse(pretty_print(doc)) == doc`` before using it.  For
every command the oracle predicts the record fields and the head of
the text line from the benchmark's description of the block, and the
exit code from those predictions.
"""

from inputs import lattice_desc, seeded, shuffled

# Every generated document has the same block shapes, so that the cli
# processes cost about the same and the percentiles do not depend on
# which document the seed makes slowest.  Lattice blocks are (kind,
# size, pos): pos "nonzero" is overt, pos "bottom" also makes the
# bottom positive, which is not.  Cover blocks are (kind, size).
DOC_LATTICES = [("chain", 5, "nonzero"), ("boolean", 8, "nonzero"),
                ("product", 6, "nonzero"), ("downset", 7, "nonzero"),
                ("chain", 4, "bottom")]
DOC_COVERS = [("discrete", 3), ("cantor", 3)]
DOCUMENTS = 6
SMALL = 8        # congruences and envelope commands only up to this size
DERIVES = 3      # derive commands per cover block
BUDGET = 200


class Expect:
    """The predicted outcome of one command."""

    def __init__(self, record, head):
        self.record = record
        self.head = head

    @property
    def ok(self):
        return self.record["ok"]


def record_view(record):
    """The fields of a cli record that the oracle predicts."""
    view = {k: record.get(k) for k in ("command", "target", "ok")}
    command = view["command"]
    if command == "check":
        view["aspect"] = record.get("aspect")
        view["detail"] = record.get("detail")
    elif command == "booleanize":
        view["identity"] = record.get("identity")
        view["classes"] = len(record.get("classes") or ())
    elif command == "congruences":
        view["count"] = record.get("count")
    elif command == "envelope":
        for key in ("axioms", "frame_size", "isomorphic"):
            view[key] = record.get(key)
    elif command == "derive":
        view["result"] = record.get("result")
        view["at_step"] = record.get("at_step")
    return view


def _lattice_commands(cli, name, desc, pos_mode):
    n = len(desc)
    overt = pos_mode == "nonzero"
    items = []
    expects = []

    def add(item, record, head):
        items.append(item)
        record.setdefault("target", name)
        expects.append(Expect(record, head))

    add(cli.CheckCommand(name, "lattice"),
        {"command": "check", "aspect": "lattice", "ok": True,
         "detail": "%d elements" % n},
        "check %s lattice: pass (%d elements)" % (name, n))
    add(cli.CheckCommand(name, "overt"),
        {"command": "check", "aspect": "overt", "ok": overt,
         "detail": "overt laws hold" if overt else "bottom is positive"},
        "check %s overt: %s" % (name, "pass" if overt else "FAIL"))
    overlap = overt and desc.is_boolean
    record = {"command": "check", "aspect": "overlap", "ok": overlap}
    if overt:
        record["detail"] = ("sigma-overlap algebra" if overlap
                            else "not a sigma-overlap algebra")
    add(cli.CheckCommand(name, "overlap"), record,
        "check %s overlap: %s" % (name, "pass" if overlap else "FAIL"))
    classes = 2 ** desc.atoms
    if overt:
        identity = desc.is_boolean
        head = ("booleanize %s: identity congruence (%d classes)"
                % (name, classes) if identity
                else "booleanize %s: %d classes" % (name, classes))
        add(cli.BooleanizeCommand(name),
            {"command": "booleanize", "ok": True, "identity": identity,
             "classes": classes}, head)
    else:
        add(cli.BooleanizeCommand(name),
            {"command": "booleanize", "ok": False, "identity": False,
             "classes": 0}, "booleanize %s: FAIL" % name)
    if n <= SMALL:
        count = 2 ** desc.join_irreducibles
        add(cli.CongruencesCommand(name),
            {"command": "congruences", "ok": True, "count": count},
            "congruences %s: %d congruences" % (name, count))
        axioms = _envelope_axiom_count(desc)
        add(cli.EnvelopeCommand(name),
            {"command": "envelope", "ok": True, "axioms": axioms,
             "frame_size": n, "isomorphic": True},
            "envelope %s: %d axioms; frame has %d elements; "
            "isomorphic to source: yes" % (name, axioms, n))
    return items, expects


def _envelope_axiom_count(desc):
    """bottom <| {} plus one a <| {b, c} per a below b join c."""
    count = 1
    elements = desc.elements
    for i, b in enumerate(elements):
        for c in elements[i:]:
            w = desc.join((b, c))
            count += sum(1 for a in elements if desc.leq(a, w))
    return count


def _derive(cli, name, element, cover, covered, at_step=None):
    record = {"command": "derive", "ok": covered,
              "result": "confirmed" if covered else "unknown",
              "at_step": at_step}
    if covered and at_step is None:
        del record["at_step"]
    head = "derive %s %s <|%s budget %d: %s" % (
        name, element, "".join(" " + c for c in cover), BUDGET,
        "confirmed at step" if covered else "unknown (budget exhausted)")
    record["target"] = name
    return cli.DeriveCommand(name, element, tuple(cover), BUDGET), \
        Expect(record, head)


def _discrete_block(cli, name, points, rng):
    def label(mask):
        return "s" + format(mask, "0%db" % points)

    masks = list(range(1 << points))
    full = masks[-1]
    base = shuffled([label(m) for m in masks], rng)
    meet = []
    for i, x in enumerate(masks):
        for y in masks[i + 1:]:
            if full not in (x, y):
                meet.append((label(x), label(y), label(x & y)))
    axioms = [(label(m), tuple(label(1 << j) for j in range(points)
                               if m >> j & 1)) for m in masks]
    block = cli.CoverBlock(name, tuple(base), label(full),
                           tuple(shuffled(meet, rng)), tuple(axioms),
                           tuple(label(m) for m in masks if m))
    items = [block]
    expects = []
    for aspect in ("formalcover", "overt", "overlap"):
        items.append(cli.CheckCommand(name, aspect))
        expects.append(Expect(
            {"command": "check", "target": name, "aspect": aspect,
             "ok": True}, "check %s %s: pass" % (name, aspect)))
    for _ in range(DERIVES):
        a = rng.choice(masks)
        cover = rng.sample(masks, rng.randint(0, 3))
        union = 0
        for m in cover:
            union |= m
        covered = a & ~union == 0
        item, expect = _derive(cli, name, label(a),
                               [label(m) for m in cover], covered)
        items.append(item)
        expects.append(expect)
    return items, expects


def _cantor_block(cli, name, depth, rng):
    words = [format(i, "0%db" % d) if d else ""
             for d in range(depth + 1) for i in range(1 << d)]

    def label(w):
        return "s" + w if w else "e"

    base = shuffled([label(w) for w in words] + ["nil"], rng)
    meet = []
    for i, x in enumerate(words):
        for y in words[i + 1:]:
            if x == "":
                continue
            if y.startswith(x):
                v = label(y)
            elif x.startswith(y):
                v = label(x)
            else:
                v = "nil"
            meet.append((label(x), label(y), v))
        if x:
            meet.append(("nil", label(x), "nil"))
    axioms = [(label(w), (label(w + "0"), label(w + "1")))
              for w in words if len(w) < depth] + [("nil", ())]
    block = cli.CoverBlock(name, tuple(base), "e", tuple(shuffled(meet, rng)),
                           tuple(axioms), None)
    items = [block, cli.CheckCommand(name, "formalcover")]
    expects = [Expect({"command": "check", "target": name,
                       "aspect": "formalcover", "ok": True},
                      "check %s formalcover: pass" % name)]
    leaves = [w for w in words if len(w) == depth]
    # the whole slice below a word confirms at the frozen step
    start = rng.choice([w for w in words if len(w) < depth])
    below = [w for w in leaves if w.startswith(start)]
    item, expect = _derive(cli, name, label(start),
                           [label(w) for w in shuffled(below, rng)], True,
                           at_step=2 ** (depth - len(start) - 1))
    items.append(item)
    expects.append(expect)
    for _ in range(DERIVES - 1):
        a = rng.choice(words)
        cover = rng.sample(words, rng.randint(1, 4))
        # a <| U iff every leaf below a lies below some member of U
        covered = all(any(leaf.startswith(m) for m in cover)
                      for leaf in leaves if leaf.startswith(a))
        item, expect = _derive(cli, name, label(a),
                               [label(m) for m in cover], covered)
        items.append(item)
        expects.append(expect)
    return items, expects


def build_document(k, seed, slot):
    """(Document, expectations, exit code) for one document slot."""
    cli = k.cli
    items = []
    commands = []
    expects = []
    for i, (kind, n, pos_mode) in enumerate(DOC_LATTICES):
        rng = seeded(seed, "cli", slot, "lattice", i)
        desc = lattice_desc(k, kind, n, rng)
        name = "L%d" % i
        pos = [x for x in desc.elements
               if pos_mode == "bottom" or x != desc.bottom]
        items.append(cli.LatticeBlock(
            name, tuple(shuffled(desc.elements, rng)),
            tuple(shuffled(desc.pairs(), rng)), tuple(shuffled(pos, rng))))
        cmds, exp = _lattice_commands(cli, name, desc, pos_mode)
        commands += cmds
        expects += exp
    for i, (kind, size) in enumerate(DOC_COVERS):
        rng = seeded(seed, "cli", slot, "cover", i)
        name = "C%d" % i
        make = _discrete_block if kind == "discrete" else _cantor_block
        block_items, exp = make(cli, name, size, rng)
        items.append(block_items[0])
        commands += block_items[1:]
        expects += exp
    code = 0 if all(e.ok for e in expects) else 1
    return cli.Document(tuple(items + commands)), expects, code


def ladder_document(k, labels):
    """The chain with these labels, its nonzero positivity, and the
    2^n commands of the lattice pipeline: check overt and booleanize."""
    cli = k.cli
    pairs = tuple(zip(labels, labels[1:]))
    return cli.Document((
        cli.LatticeBlock("Chain", tuple(labels), pairs, tuple(labels[1:])),
        cli.CheckCommand("Chain", "overt"),
        cli.BooleanizeCommand("Chain"),
    ))
