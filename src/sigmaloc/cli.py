"""Command line front end: a small declaration language for finite
lattices and cover presentations, plus check/derive/booleanize-style
commands over them.

Input files hold named blocks and commands:

    lattice Chain3 {
      elements: 0 a 1;
      leq: 0<=a, a<=1;
      pos: a 1;
    }

    cover Pair {
      base: bot x y top;
      top: top;
      meet: x*y=bot, x*top=x, y*top=y, bot*x=bot, bot*y=bot, bot*top=bot;
      axiom: top <| x y;
      axiom: bot <| ;
    }

    check Chain3 overt
    derive Pair top <| x y budget 100

'#' starts a comment.  The meet table is completed automatically with
idempotence, commutativity, and the top as unit; any other missing pair
is an error.  leq is closed reflexively and transitively.  Covers may
also carry a pos field (positivity on the base) so that
`check NAME overlap` works for them.

Exit status: 0 when every command passes, 1 when some command fails
(a FAIL report or an unknown derivation), 2 on parse or usage errors.
"""

import argparse
import json
import re
import sys
from collections import namedtuple

from .booleanization import (
    Positivity,
    RepresentativeDependentPos,
    SizeCapExceeded,
    bool_congruence,
    check_overt,
    check_overt_cover,
    enumerate_congruences,
    is_overlap_cover,
    is_sigma_overlap_algebra,
    quotient,
)
from .formal_cover import (
    BaseTooLarge,
    CoverError,
    CoverPresentation,
    _check_base,
    check_formal_cover_axioms,
    derive,
    derive_with_trace,
    envelope_cover,
    frame_of_presentation,
)
from .reports import CheckReport, Record, failed, passed
from .semidecision import Confirmed
from .sigma_frame import LatticeError, lattice_from_leq_pairs


class ParseError(Exception):
    def __init__(self, message, line, col):
        super().__init__("line %d, col %d: %s" % (line, col, message))
        self.message = message
        self.line = line
        self.col = col


class DocumentError(Exception):
    """Semantic error in an otherwise well-formed document."""


_Token = namedtuple("_Token", "kind value line col")

# A newline, blanks or a comment (all skipped), a symbol, a word, or any
# other character, which is an error.
_TOKEN = re.compile(r"(\n)|[ \t\r]+|#[^\n]*|(<=|<\||[{}:;,*=])|(\w+)|(.)")


def _tokenize(text):
    """The word and symbol tokens of a text, then an `eof` token.

    A token's column is its offset from the start of its line, plus 1;
    `eof` sits one column past the end of the last line.  Newlines only
    separate tokens: a derive command's cover list ends at the end of
    its line because every token carries its line.
    """
    tokens = []
    line, start = 1, 0
    for m in _TOKEN.finditer(text):
        newline, sym, word, other = m.groups()
        col = m.start() - start + 1
        if newline:
            line += 1
            start = m.end()
        elif sym:
            tokens.append(_Token("sym", sym, line, col))
        elif word:
            tokens.append(_Token("word", word, line, col))
        elif other:
            raise ParseError("unexpected character %r" % other, line, col)
    tokens.append(_Token("eof", "", line, len(text) - start + 1))
    return tokens


# Document items.  A field is a name, a tuple of names, of (x, y) leq
# pairs, (x, y, meet) entries or (head, cover) axioms, or None for an
# absent pos field or budget clause.
class LatticeBlock(Record, namedtuple(
        "LatticeBlock", "name elements leq_pairs pos")):
    __slots__ = ()


class CoverBlock(Record, namedtuple(
        "CoverBlock", "name base top meet_entries axioms pos")):
    __slots__ = ()


class CheckCommand(Record, namedtuple("CheckCommand", "target aspect")):
    __slots__ = ()


class BooleanizeCommand(Record, namedtuple("BooleanizeCommand", "target")):
    __slots__ = ()


class CongruencesCommand(Record, namedtuple("CongruencesCommand", "target")):
    __slots__ = ()


class DeriveCommand(Record, namedtuple(
        "DeriveCommand", "target element cover budget")):
    __slots__ = ()


class EnvelopeCommand(Record, namedtuple("EnvelopeCommand", "target")):
    __slots__ = ()


class Document(Record, namedtuple("Document", "items")):
    __slots__ = ()


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        t = self.peek()
        if t.kind != "eof":
            self.pos += 1
        return t

    def fail(self, message, token=None):
        t = token or self.peek()
        raise ParseError(message, t.line, t.col)

    def expect_sym(self, value):
        t = self.advance()
        if t.kind != "sym" or t.value != value:
            self.fail("expected %r" % value, t)
        return t

    def expect_word(self, what="identifier"):
        t = self.advance()
        if t.kind != "word":
            self.fail("expected %s" % what, t)
        return t

    def words_until_sym(self, stop):
        out = []
        while self.peek().kind == "word":
            out.append(self.advance().value)
        self.expect_sym(stop)
        return tuple(out)

    def parse_document(self):
        items = []
        while True:
            t = self.peek()
            if t.kind == "eof":
                break
            if t.kind != "word":
                self.fail("expected a block or command")
            if t.value not in _KEYWORDS:
                self.fail("unknown keyword %r" % t.value)
            head = self.advance()
            items.append(_KEYWORDS[head.value].parse(self, head))
        return Document(tuple(items))

    def fields(self, block):
        """The `field:` tokens of a block body, up to its closing '}'.
        Only `axiom` may come twice: each lists one cover axiom."""
        self.expect_sym("{")
        seen = set()
        while True:
            t = self.advance()
            if t.kind == "sym" and t.value == "}":
                return
            if t.kind != "word":
                self.fail("expected a field or '}'", t)
            self.expect_sym(":")
            if t.value in seen:
                self.fail("duplicate %s field %r" % (block, t.value), t)
            if t.value != "axiom":
                seen.add(t.value)
            yield t

    def word_tuples(self, *syms):
        """Tuples `w0 s1 w1 s2 w2 ...` for the symbols syms, separated by
        ',' and ended by ';'; the list may be empty."""
        if self.peek().kind == "sym" and self.peek().value == ";":
            self.advance()
            return ()
        out = []
        while True:
            words = [self.expect_word().value]
            for sym in syms:
                self.expect_sym(sym)
                words.append(self.expect_word().value)
            out.append(tuple(words))
            t = self.advance()
            if t.kind == "sym" and t.value == ";":
                return tuple(out)
            if not (t.kind == "sym" and t.value == ","):
                self.fail("expected ',' or ';'", t)

    def parse_lattice(self, head):
        name = self.expect_word("lattice name").value
        elements = None
        leq_pairs = ()
        pos = None
        for t in self.fields("lattice"):
            if t.value == "elements":
                elements = self.words_until_sym(";")
                if not elements:
                    self.fail("elements list is empty", t)
            elif t.value == "leq":
                leq_pairs = self.word_tuples("<=")
            elif t.value == "pos":
                pos = self.words_until_sym(";")
            else:
                self.fail("unknown lattice field %r" % t.value, t)
        if elements is None:
            self.fail("lattice %s has no elements field" % name, head)
        return LatticeBlock(name, elements, leq_pairs, pos)

    def parse_cover(self, head):
        name = self.expect_word("cover name").value
        base = None
        top = None
        meet_entries = ()
        axioms = []
        pos = None
        for t in self.fields("cover"):
            if t.value == "base":
                base = self.words_until_sym(";")
                if not base:
                    self.fail("base list is empty", t)
            elif t.value == "top":
                top = self.expect_word().value
                self.expect_sym(";")
            elif t.value == "meet":
                meet_entries = self.word_tuples("*", "=")
            elif t.value == "axiom":
                axiom_head = self.expect_word().value
                self.expect_sym("<|")
                cover = self.words_until_sym(";")
                axioms.append((axiom_head, cover))
            elif t.value == "pos":
                pos = self.words_until_sym(";")
            else:
                self.fail("unknown cover field %r" % t.value, t)
        if base is None:
            self.fail("cover %s has no base field" % name, head)
        if top is None:
            self.fail("cover %s has no top field" % name, head)
        return CoverBlock(name, base, top, meet_entries, tuple(axioms), pos)

    def parse_check(self, _head):
        name = self.expect_word("name").value
        aspect = self.expect_word("aspect").value
        if aspect not in _ASPECTS:
            self.fail("unknown aspect %r (one of %s)"
                      % (aspect, ", ".join(_ASPECTS)))
        return CheckCommand(name, aspect)

    def parse_name(self, head):
        """The shared `KEYWORD NAME` form of booleanize, congruences and
        envelope."""
        return _KEYWORDS[head.value].cls(self.expect_word("name").value)

    def parse_derive(self, _head):
        name = self.expect_word("name").value
        element = self.expect_word().value
        arrow = self.expect_sym("<|")
        # The list runs to the end of the `<|` line or to a keyword; its last
        # two words are the budget clause when the first is `budget`.
        words = []
        while (self.peek().kind == "word" and self.peek().line == arrow.line
               and self.peek().value not in _KEYWORDS):
            words.append(self.advance())
        budget = None
        if len(words) >= 2 and words[-2].value == "budget":
            b = words.pop()
            words.pop()
            if not (b.value.isascii() and b.value.isdigit()):
                self.fail("budget must be a natural number", b)
            budget = int(b.value)
        return DeriveCommand(name, element, tuple(w.value for w in words),
                             budget)


def parse(text):
    """Parse a document; raises ParseError with line and column."""
    return _Parser(_tokenize(text)).parse_document()


def pretty_print(document):
    """Canonical text for a document; parse(pretty_print(d)) == d.

    Raises ValueError for an item that no text parses back to: a name
    that is not one word (a whole \\w+ match, as the tokenizer reads
    words), a lattice with no elements, a cover with an empty base, a
    check of an unknown aspect, and a derive with a negative budget, a
    cover member named like a keyword, or no budget and a cover whose
    second-to-last member is `budget`.
    """
    chunks = []
    for item in document.items:
        if type(item) not in _ENTRY_OF:
            raise TypeError("not a document item: %r" % (item,))
        for field_name, value in item._asdict().items():
            for w in _names(value):
                if not re.fullmatch(r"\w+", w):
                    raise ValueError("%r: %s %r is not a word"
                                     % (item, field_name, w))
        chunks.append(_ENTRY_OF[type(item)].show(item))
    return "\n\n".join(chunks) + "\n"


def _names(value):
    """The strs of an item's field, itself one or nested in tuples."""
    if isinstance(value, tuple):
        return [w for v in value for w in _names(v)]
    return [value] if isinstance(value, str) else []


def _show_lattice(block):
    if not block.elements:
        raise ValueError("lattice %s: elements list is empty" % block.name)
    lines = ["lattice %s {" % block.name,
             "  elements: %s;" % " ".join(block.elements)]
    if block.leq_pairs:
        lines.append("  leq: %s;" % ", ".join(
            "%s<=%s" % p for p in block.leq_pairs))
    if block.pos is not None:
        lines.append("  pos:%s;" % _word_list(block.pos))
    lines.append("}")
    return "\n".join(lines)


def _show_cover(block):
    if not block.base:
        raise ValueError("cover %s: base list is empty" % block.name)
    lines = ["cover %s {" % block.name,
             "  base: %s;" % " ".join(block.base),
             "  top: %s;" % block.top]
    if block.meet_entries:
        lines.append("  meet: %s;" % ", ".join(
            "%s*%s=%s" % e for e in block.meet_entries))
    for head, cover in block.axioms:
        lines.append("  axiom: %s <|%s;" % (head, _word_list(cover)))
    if block.pos is not None:
        lines.append("  pos:%s;" % _word_list(block.pos))
    lines.append("}")
    return "\n".join(lines)


def _show_check(cmd):
    if cmd.aspect not in _ASPECTS:
        raise ValueError("check %s: unknown aspect %r" % (cmd.target,
                                                          cmd.aspect))
    return "check %s %s" % (cmd.target, cmd.aspect)


def _show_name(cmd):
    return "%s %s" % (_ENTRY_OF[type(cmd)].keyword, cmd.target)


def _show_derive(cmd):
    text = "derive %s %s <|%s" % (cmd.target, cmd.element,
                                  _word_list(cmd.cover))
    for w in cmd.cover:
        if w in _KEYWORDS:
            raise ValueError("%s: cover member %r is a keyword" % (text, w))
    if cmd.budget is None and cmd.cover[-2:-1] == ("budget",):
        raise ValueError("%s: the last two cover members read as a budget"
                         % (text,))
    if cmd.budget is not None:
        if cmd.budget < 0:
            raise ValueError("%s: budget %d is not a natural number"
                             % (text, cmd.budget))
        text += " budget %d" % cmd.budget
    return text


def _word_list(words):
    return (" " + " ".join(words)) if words else ""


def _declared(where, noun, names):
    """The set of names a block declares; a repeat is an error."""
    seen = set()
    for x in names:
        if x in seen:
            raise DocumentError("%s: duplicate %s %r" % (where, noun, x))
        seen.add(x)
    return seen


def _require_known(where, field_name, words, seen):
    for w in words:
        if w not in seen:
            raise DocumentError("%s: %s mentions unknown element %r"
                                % (where, field_name, w))


def _positivity(where, pos, seen):
    if pos is None:
        return None
    _require_known(where, "pos", pos, seen)
    return Positivity.of(pos)


def build_lattice(block):
    """Lattice and optional positivity from a lattice block."""
    where = "lattice %s" % block.name
    seen = _declared(where, "element", block.elements)
    for pair in block.leq_pairs:
        _require_known(where, "leq", pair, seen)
    try:
        lattice = lattice_from_leq_pairs(list(block.elements),
                                         list(block.leq_pairs))
    except LatticeError as err:
        detail = err.args[0]
        if err.witnesses:
            detail += " (%s)" % ", ".join(
                _fmt_value(w) for w in err.witnesses)
        raise DocumentError("%s: %s" % (where, detail))
    return lattice, _positivity(where, block.pos, seen)


def build_cover(block):
    """Presentation and optional positivity from a cover block.

    The meet table is completed with idempotence, the top as unit, and
    commutativity; a pair still missing after that is an error.
    """
    where = "cover %s" % block.name
    base = block.base
    seen = _declared(where, "base element", base)
    if block.top not in seen:
        raise DocumentError("%s: top %r is not in the base"
                            % (where, block.top))
    table = {}
    for x, y, v in block.meet_entries:
        _require_known(where, "meet", (x, y, v), seen)
        for pair in ((x, y), (y, x)):
            if table.setdefault(pair, v) != v:
                raise DocumentError("%s: meet table conflict at %s*%s"
                                    % ((where,) + pair))
    for x in base:
        table.setdefault((x, x), x)
        table.setdefault((x, block.top), x)
        table.setdefault((block.top, x), x)
    for x in base:
        for y in base:
            if (x, y) not in table:
                raise DocumentError("%s: meet table is missing %s*%s"
                                    % (where, x, y))
    for head, cover in block.axioms:
        _require_known(where, "axiom", (head,) + cover, seen)
    try:
        p = CoverPresentation.finite(
            base=list(base),
            meet=table,
            top=block.top,
            axioms=[(h, tuple(c)) for h, c in block.axioms],
        )
    except CoverError as err:
        raise DocumentError("%s: %s" % (where, err.args[0]))
    return p, _positivity(where, block.pos, seen)


def _fmt_value(v):
    """A witness as text: a name, or a tuple of witnesses in parentheses."""
    if isinstance(v, str):
        return v
    return "(%s)" % " ".join(_fmt_value(x) for x in v)


def _report_text(report):
    if report.ok:
        return "pass (%s)" % report.detail
    if report.witnesses:
        return ("FAIL (%s; witness: %s)"
                % (report.detail,
                   ", ".join(_fmt_value(w) for w in report.witnesses)))
    return "FAIL (%s)" % report.detail


def _trace_lines(trace, depth, out):
    pad = "  " * depth
    rule = trace[0]
    if rule == "refl":
        out.append("%s%s [refl]" % (pad, trace[1]))
    elif rule == "below":
        out.append("%s%s <= %s [below]" % (pad, trace[1], trace[2]))
    else:
        cover = trace[2]
        out.append("%s%s <| {%s} [axiom]"
                   % (pad, trace[1], " ".join(str(c) for c in cover)))
        for child in trace[3]:
            _trace_lines(child, depth + 1, out)


class _Runner:
    """Executes a document's commands against its built blocks."""

    def __init__(self, document, budget_default):
        self.budget_default = budget_default
        self.blocks = {}
        self.commands = []
        for item in document.items:
            entry = _ENTRY_OF[type(item)]
            if entry.build is None:
                self.commands.append(item)
            elif item.name in self.blocks:
                raise DocumentError("duplicate name %r" % item.name)
            else:
                self.blocks[item.name] = (entry.keyword,) + entry.build(item)
        for cmd in self.commands:
            self.validate(cmd)

    def validate(self, cmd):
        """Every kind and pos error of a command, raised before any run."""
        entry = _ENTRY_OF[type(cmd)]
        if cmd.target not in self.blocks:
            raise DocumentError("command refers to unknown name %r"
                                % cmd.target)
        kind, structure, pos = self.blocks[cmd.target]
        if entry.kind not in ("either", kind):
            raise DocumentError("%s needs a %s, %r is a %s"
                                % (entry.keyword, entry.kind, cmd.target,
                                   kind))
        if entry.needs_pos:
            _need_pos(entry.keyword, cmd.target, pos)
        if entry.validate is not None:
            entry.validate(cmd, kind, structure, pos)

    def run_all(self):
        """Returns (lines, records, all_ok).

        Each run method returns its text lines and the fields of its
        record past `command` and `target`; a size guard tripped while
        running is a document error.
        """
        lines = []
        records = []
        for cmd in self.commands:
            entry = _ENTRY_OF[type(cmd)]
            try:
                cmd_lines, fields = entry.run(
                    self, cmd, *self.blocks[cmd.target])
            except (SizeCapExceeded, BaseTooLarge) as err:
                raise DocumentError("%s: %s" % (entry.show(cmd), err))
            lines.extend(cmd_lines)
            records.append(dict(fields, command=entry.keyword,
                                target=cmd.target))
        return lines, records, all(record["ok"] for record in records)

    def run_check(self, cmd, kind, structure, pos):
        report = getattr(_ASPECTS[cmd.aspect], kind)(structure, pos)
        line = "check %s %s: %s" % (cmd.target, cmd.aspect,
                                    _report_text(report))
        return [line], {"aspect": cmd.aspect, "ok": report.ok,
                        "detail": report.detail,
                        "witnesses": report.witnesses}

    def run_booleanize(self, cmd, _kind, lattice, pos):
        name = cmd.target
        try:
            c = bool_congruence(lattice, pos)
            quotient_lattice, _projection, inherited = quotient(
                lattice, c, pos)
            overlap_after, _w = is_sigma_overlap_algebra(
                quotient_lattice, inherited)
        except (ValueError, RepresentativeDependentPos) as err:
            return ["booleanize %s: FAIL (%s)" % (name, err)], {
                "ok": False, "detail": str(err), "classes": [],
                "identity": False, "overlap_after": False}
        identity = c.class_count() == len(lattice)
        if identity:
            head = ("identity congruence (%d classes)" % c.class_count())
        else:
            head = "%d classes" % c.class_count()
        if overlap_after:
            tail = ("already a sigma-overlap algebra" if identity
                    else "quotient is a sigma-overlap algebra")
        else:
            tail = "quotient is NOT a sigma-overlap algebra"
        lines = ["booleanize %s: %s; %s" % (name, head, tail)]
        for i, cls in enumerate(c.classes()):
            lines.append("  class %d: %s" % (i, " ".join(cls)))
        return lines, {"ok": overlap_after, "detail": tail,
                       "classes": c.classes(),
                       "identity": identity, "overlap_after": overlap_after}

    def run_congruences(self, cmd, _kind, lattice, _pos):
        family = enumerate_congruences(lattice)
        lines = ["congruences %s: %d congruences" % (cmd.target, len(family))]
        for c in family:
            lines.append("  %s" % " ".join(
                "[%s]" % " ".join(cls) for cls in c.classes()))
        return lines, {
            "ok": True, "count": len(family),
            "congruences": [c.classes() for c in family],
        }

    def run_derive(self, cmd, _kind, p, _pos):
        budget = cmd.budget if cmd.budget is not None else self.budget_default
        sd = derive(p, cmd.element, cmd.cover)
        res = sd.probe(budget)
        header = _show_derive(cmd._replace(budget=budget))
        fields = {"element": cmd.element, "cover": cmd.cover,
                  "budget": budget}
        if isinstance(res, Confirmed):
            lines = ["%s: confirmed at step %d" % (header, res.at_step)]
            trace = derive_with_trace(p, cmd.element, cmd.cover, res.at_step)
            _trace_lines(trace, 1, lines)
            fields.update(ok=True, result="confirmed", at_step=res.at_step,
                          trace=trace)
            return lines, fields
        fields.update(ok=False, result="unknown", at_step=None, trace=None)
        return ["%s: unknown (budget exhausted)" % header], fields

    def run_envelope(self, cmd, _kind, lattice, _pos):
        p, embedding = envelope_cover(lattice)
        frame = frame_of_presentation(p)
        iso = set(embedding.values()) == set(frame.elements)
        axioms = sum(heads.bit_count() for heads in p._raw_covers.values())
        line = ("envelope %s: %d axioms; frame has %d elements; "
                "isomorphic to source: %s"
                % (cmd.target, axioms, len(frame), "yes" if iso else "no"))
        return [line], {"ok": iso, "axioms": axioms,
                        "frame_size": len(frame), "isomorphic": iso}


def _need_pos(keyword, target, pos):
    if pos is None:
        raise DocumentError("%s %s needs a pos field on %r"
                            % (keyword, target, target))


def _validate_check(cmd, kind, _structure, pos):
    aspect = _ASPECTS[cmd.aspect]
    if getattr(aspect, kind) is None:
        raise DocumentError("check %s %s: %r is a %s"
                            % (cmd.target, cmd.aspect, cmd.target, kind))
    if aspect.needs_pos:
        _need_pos("check", cmd.target, pos)


def _validate_derive(cmd, _kind, p, _pos):
    for w in (cmd.element,) + cmd.cover:
        if not p.contains(w):
            raise DocumentError("derive mentions unknown base element %r"
                                % (w,))


def _validate_envelope(cmd, _kind, lattice, _pos):
    """The frame's base cap, checked before envelope_cover builds the
    envelope."""
    try:
        _check_base(len(lattice))
    except BaseTooLarge as err:
        raise DocumentError("%s: %s" % (_show_name(cmd), err))


def _pair_report(check, errors, holds, fails):
    """A CheckReport check from one that returns (ok, witness) and
    raises errors when its preconditions fail.  BaseTooLarge, a
    CoverError too, is a size guard and passes through to run_all."""
    def report(structure, pos):
        try:
            ok, witness = check(structure, pos)
        except BaseTooLarge:
            raise
        except errors as err:
            return failed(str(err))
        witnesses = (witness,) if witness is not None else ()
        return CheckReport(ok, holds if ok else fails, witnesses)
    return report


# A check aspect gives its check on a lattice and on a cover (the
# fields are named after the block kinds; None where the aspect does not
# apply), each taking (structure, pos) and returning a CheckReport, and
# whether it needs a pos field.  Insertion order is the order the
# parser lists the aspects in.
_Aspect = namedtuple("_Aspect", "lattice cover needs_pos")
_ASPECTS = {
    "overt": _Aspect(check_overt, check_overt_cover, True),
    "overlap": _Aspect(
        _pair_report(is_sigma_overlap_algebra, ValueError,
                     "sigma-overlap algebra", "not a sigma-overlap algebra"),
        _pair_report(is_overlap_cover, CoverError,
                     "overlap cover", "not an overlap cover"),
        True),
    "formalcover": _Aspect(
        None, lambda p, _pos: check_formal_cover_axioms(p), False),
    "lattice": _Aspect(
        lambda lattice, _pos: passed("%d elements" % len(lattice)), None,
        False),
}


class _Keyword(Record, namedtuple(
        "_Keyword", "keyword cls parse show build kind needs_pos validate run",
        defaults=(None, "either", False, None, None))):
    """How one keyword of the language is parsed, printed, and either
    built (blocks) or checked and run (commands): parse(parser, head
    token) -> item, show(item) -> text, build(block) -> (structure, pos);
    kind is the block kind a command's target is, validate(cmd, kind,
    structure, pos) an extra check and run(...) -> (lines, record fields).
    """

    __slots__ = ()


_KEYWORDS = {entry.keyword: entry for entry in (
    _Keyword("lattice", LatticeBlock, _Parser.parse_lattice, _show_lattice,
             build=build_lattice),
    _Keyword("cover", CoverBlock, _Parser.parse_cover, _show_cover,
             build=build_cover),
    _Keyword("check", CheckCommand, _Parser.parse_check, _show_check,
             validate=_validate_check, run=_Runner.run_check),
    _Keyword("booleanize", BooleanizeCommand, _Parser.parse_name,
             _show_name, kind="lattice", needs_pos=True,
             run=_Runner.run_booleanize),
    _Keyword("congruences", CongruencesCommand, _Parser.parse_name,
             _show_name, kind="lattice", run=_Runner.run_congruences),
    _Keyword("derive", DeriveCommand, _Parser.parse_derive, _show_derive,
             kind="cover", validate=_validate_derive,
             run=_Runner.run_derive),
    _Keyword("envelope", EnvelopeCommand, _Parser.parse_name, _show_name,
             kind="lattice", validate=_validate_envelope,
             run=_Runner.run_envelope),
)}
_ENTRY_OF = {entry.cls: entry for entry in _KEYWORDS.values()}


def run_document(text, budget=1000):
    """Parse and execute; returns (lines, records, exit_code)."""
    document = parse(text)
    runner = _Runner(document, budget)
    lines, records, all_ok = runner.run_all()
    return lines, records, 0 if all_ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="sigmaloc",
        description="Check lattice and cover declarations: overtness, "
                    "overlap laws, cover laws, derivations, "
                    "Booleanization, congruence lists, envelopes.")
    parser.add_argument("--input", required=True,
                        help="input file ('-' for stdin)")
    parser.add_argument("--format", choices=("text", "records"),
                        default="text",
                        help="text lines or one JSON record per command")
    parser.add_argument("--budget", type=int, default=1000,
                        help="default probe budget for derive commands")
    args = parser.parse_args(argv)
    if args.budget < 0:
        parser.error("argument --budget: must be a natural number, got %d"
                     % args.budget)
    try:
        if args.input == "-":
            text = sys.stdin.read()
        else:
            with open(args.input, "r", encoding="utf-8") as handle:
                text = handle.read()
    except (OSError, UnicodeDecodeError) as err:
        print("cannot read %s: %s" % (args.input, err), file=sys.stderr)
        return 2
    try:
        lines, records, code = run_document(text, budget=args.budget)
    except (ParseError, DocumentError) as err:
        print("%s: %s" % (args.input, err), file=sys.stderr)
        return 2
    if args.format == "text":
        for line in lines:
            print(line)
    else:
        for record in records:
            print(json.dumps(record, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
