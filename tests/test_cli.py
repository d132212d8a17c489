"""Declaration language: parsing, pretty-printing, execution, exit codes."""

import io
import json
import os
import random
import re
import subprocess
import sys

import pytest

from sigmaloc import (
    BaseTooLarge,
    envelope_cover,
    frame_of_presentation,
    is_overlap_cover,
)
from sigmaloc.cli import (
    BooleanizeCommand,
    CheckCommand,
    CongruencesCommand,
    CoverBlock,
    DeriveCommand,
    Document,
    DocumentError,
    EnvelopeCommand,
    LatticeBlock,
    ParseError,
    _tokenize,
    build_cover,
    build_lattice,
    main,
    parse,
    pretty_print,
    run_document,
)

EXAMPLES = os.path.join(os.path.dirname(__file__), os.pardir, "docs",
                        "examples")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

CHAIN_DOC = """
lattice Chain3 {
  elements: 0 a 1;
  leq: 0<=a, a<=1;
  pos: a 1;
}

check Chain3 overt
"""


def test_parse_shapes():
    doc = parse(CHAIN_DOC)
    assert len(doc.items) == 2
    block, cmd = doc.items
    assert isinstance(block, LatticeBlock)
    assert block.elements == ("0", "a", "1")
    assert block.leq_pairs == (("0", "a"), ("a", "1"))
    assert block.pos == ("a", "1")
    assert cmd == CheckCommand("Chain3", "overt")


def test_locations_do_not_affect_equality():
    a = parse(CHAIN_DOC)
    b = parse("\n\n" + CHAIN_DOC.replace("\n  pos", "\n\n  pos"))
    assert a == b


def test_pretty_print_round_trip_examples():
    for name in ("chain.cov", "diamond.cov", "cantor.cov"):
        with open(os.path.join(EXAMPLES, name), encoding="utf-8") as f:
            text = f.read()
        doc = parse(text)
        assert parse(pretty_print(doc)) == doc
        assert pretty_print(parse(pretty_print(doc))) == pretty_print(doc)


def test_pretty_print_round_trip_edge_cases():
    doc = Document((
        LatticeBlock("L", ("x",), (), ()),
        CoverBlock("C", ("t", "b"), "t", (("t", "b", "b"),),
                   (("b", ()),), None),
        DeriveCommand("C", "t", (), None),
        DeriveCommand("C", "t", ("b",), 55),
    ))
    assert parse(pretty_print(doc)) == doc


def test_comments_and_newlines_are_ignored_in_blocks():
    doc = parse("lattice L { # side note\n elements:\n x; }\ncheck L lattice")
    assert doc.items[0].elements == ("x",)


def test_derive_cover_list_ends_at_newline():
    doc = parse("cover C { base: t; top: t; }\nderive C t <| t\ncheck C "
                "formalcover")
    d = doc.items[1]
    assert isinstance(d, DeriveCommand)
    assert d.cover == ("t",)
    assert isinstance(doc.items[2], CheckCommand)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse("lattice L {\n  elements x;\n}")
    assert err.value.line == 2
    assert "expected ':'" in err.value.message
    with pytest.raises(ParseError):
        parse("lattice L { elements: x; } check L sideways")
    with pytest.raises(ParseError):
        parse("widget W {}")
    with pytest.raises(ParseError):
        parse("lattice L { elements: x;...")


def test_an_error_at_the_end_of_input_names_the_next_column():
    with pytest.raises(ParseError) as err:
        parse("lattice L {")
    assert str(err.value) == "line 1, col 12: expected a field or '}'"
    with pytest.raises(ParseError) as err:
        parse("lattice L { # open")
    assert str(err.value) == "line 1, col 19: expected a field or '}'"


@pytest.mark.parametrize("text, message", [
    ("lattice L { elements: ; }", "line 1, col 13: elements list is empty"),
    ("lattice L { pos: a; }", "line 1, col 1: lattice L has no elements field"),
    ("cover C { base: ; top: t; }", "line 1, col 11: base list is empty"),
    ("cover C { base: t; top: t; foo: x; }",
     "line 1, col 28: unknown cover field 'foo'"),
    ("cover C { top: t; }", "line 1, col 1: cover C has no base field"),
    ("cover C { base: t; }", "line 1, col 1: cover C has no top field"),
    ("lattice L { elements: 0 a 1; leq: 0<=a, a<=1; pos: a 1; pos: 1; }",
     "line 1, col 57: duplicate lattice field 'pos'"),
    ("lattice L { elements: 0 1; elements: 0 1; }",
     "line 1, col 28: duplicate lattice field 'elements'"),
    ("lattice L { elements: 0 a 1; leq: 0<=a; leq: a<=1; }",
     "line 1, col 41: duplicate lattice field 'leq'"),
    ("cover C { base: t; base: t; top: t; }",
     "line 1, col 20: duplicate cover field 'base'"),
    ("cover C { base: t; top: t; top: t; }",
     "line 1, col 28: duplicate cover field 'top'"),
    ("cover C { base: t; top: t; meet: t*t=t; meet: ; }",
     "line 1, col 41: duplicate cover field 'meet'"),
    ("cover C { base: t; top: t; pos: t; pos: ; }",
     "line 1, col 36: duplicate cover field 'pos'"),
])
def test_block_field_errors(text, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == message


def test_pretty_print_refuses_a_non_item():
    with pytest.raises(TypeError) as err:
        pretty_print(Document(("x",)))
    assert str(err.value) == "not a document item: 'x'"


def test_budget_must_be_numeric():
    # "\u00b2" (superscript two) passes str.isdigit but not int().
    for budget in ("lots", "\u00b2"):
        with pytest.raises(ParseError, match="must be a natural number"):
            parse("cover C { base: t; top: t; }\nderive C t <| t budget "
                  + budget)


def test_budget_last_on_its_line_is_a_cover_member():
    text = "cover C { base: t budget; top: t; }\nderive C t <| budget\n"
    doc = parse(text)
    assert doc.items[1] == DeriveCommand("C", "t", ("budget",), None)
    assert parse(pretty_print(doc)) == doc
    # a budget value on the next line is not read as the budget
    doc = parse(text + "check C formalcover\n")
    assert doc.items[1].cover == ("budget",)
    assert isinstance(doc.items[2], CheckCommand)
    lines, _records, code = run_document(text, budget=5)
    assert code == 1
    assert lines == ["derive C t <| budget budget 5: unknown "
                     "(budget exhausted)"]
    # followed by a word on its line, budget still opens the clause
    doc = parse("cover C { base: t budget; top: t; }\n"
                "derive C t <| t budget 7 check C formalcover\n")
    assert doc.items[1] == DeriveCommand("C", "t", ("t",), 7)
    assert isinstance(doc.items[2], CheckCommand)


def test_derive_cover_list_ends_at_a_keyword():
    text = ("cover C { base: t; top: t; }\n"
            "derive C t <| t check C formalcover\n")
    doc = parse(text)
    assert doc.items[1] == DeriveCommand("C", "t", ("t",), None)
    assert doc.items[2] == CheckCommand("C", "formalcover")
    lines, _records, code = run_document(text, budget=5)
    assert code == 0
    assert lines[0] == "derive C t <| t budget 5: confirmed at step 0"
    assert lines[-1].startswith("check C formalcover: pass")


def test_derive_with_a_budget_member_round_trips():
    doc = Document((DeriveCommand("C", "t", ("budget",), 7),))
    assert pretty_print(doc) == "derive C t <| budget budget 7\n"
    assert parse(pretty_print(doc)) == doc
    # the run header names the budget used, and parses back as well
    text = "cover C { base: t budget; top: t; }\nderive C t <| budget\n"
    lines, _records, _code = run_document(text, budget=5)
    header = lines[0].split(":")[0]
    assert header == "derive C t <| budget budget 5"
    assert parse(header).items[0] == DeriveCommand("C", "t", ("budget",), 5)
    # `budget` before the last two words is a cover member
    assert parse("derive C t <| budget t budget 3").items[0] == \
        DeriveCommand("C", "t", ("budget", "t"), 3)


def test_pretty_print_refuses_derives_that_do_not_parse_back():
    for cmd in (DeriveCommand("C", "t", ("budget", "t"), None),
                DeriveCommand("C", "t", ("check",), None),
                DeriveCommand("C", "t", ("x", "derive"), 4)):
        with pytest.raises(ValueError, match=re.escape("derive C t <|")):
            pretty_print(Document((cmd,)))


def test_pretty_print_round_trips_or_refuses_random_derives():
    rng = random.Random(7)
    pool = ["t", "x", "budget", "0", "7", "12", "check", "derive", "cover"]
    for _ in range(2000):
        cover = tuple(rng.choice(pool) for _ in range(rng.randint(0, 4)))
        budget = rng.choice((None, 0, 7, 120))
        doc = Document((DeriveCommand(rng.choice(pool), rng.choice(pool),
                                      cover, budget),))
        try:
            text = pretty_print(doc)
        except ValueError:
            continue
        assert parse(text) == doc, text


def test_pretty_print_refuses_empty_blocks():
    for block, message in ((LatticeBlock("L", (), (), None),
                            "lattice L: elements list is empty"),
                           (CoverBlock("C", (), "t", (), (), None),
                            "cover C: base list is empty")):
        with pytest.raises(ValueError, match=message):
            pretty_print(Document((block,)))


@pytest.mark.parametrize("item, message", [
    # "a b" would print as the two elements a and b
    (LatticeBlock("L", ("a b",), (), None), "elements 'a b' is not a word"),
    (LatticeBlock("L", ("",), (), None), "elements '' is not a word"),
    (LatticeBlock("L", ("x",), (), ("x,y",)), "pos 'x,y' is not a word"),
    (CoverBlock("C", ("t", "q-r"), "t", (), (), None),
     "base 'q-r' is not a word"),
    (DeriveCommand("C", "t", ("a;b",), None), "cover 'a;b' is not a word"),
    (CheckCommand("L L", "overt"), "target 'L L' is not a word"),
    (CheckCommand("L", "sideways"), "check L: unknown aspect 'sideways'"),
    (DeriveCommand("C", "t", (), -1),
     "derive C t <|: budget -1 is not a natural number"),
])
def test_pretty_print_refuses_names_that_are_not_words(item, message):
    with pytest.raises(ValueError) as err:
        pretty_print(Document((item,)))
    assert str(err.value).endswith(message)
    if "is not a word" in message:
        assert str(err.value) == "%r: %s" % (item, message)


def test_empty_leq_and_meet_fields_round_trip():
    doc = parse("lattice L { elements: x; leq: ; }\n"
                "cover C { base: t; top: t; meet: ; }\n")
    lattice, cover = doc.items
    assert lattice.leq_pairs == () and cover.meet_entries == ()
    assert parse(pretty_print(doc)) == doc


def random_item(rng, pool):
    """A block or command over words from pool; blocks may be empty."""
    def words(low, high):
        return tuple(rng.choice(pool) for _ in range(rng.randint(low, high)))

    kind = rng.randrange(7)
    if kind == 0:
        return LatticeBlock(
            rng.choice(pool), words(0, 3),
            tuple((rng.choice(pool), rng.choice(pool))
                  for _ in range(rng.randint(0, 2))),
            rng.choice((None, words(0, 2))))
    if kind == 1:
        return CoverBlock(
            rng.choice(pool), words(0, 3), rng.choice(pool),
            tuple(words(3, 3) for _ in range(rng.randint(0, 2))),
            tuple((rng.choice(pool), words(0, 2))
                  for _ in range(rng.randint(0, 2))),
            rng.choice((None, words(0, 2))))
    if kind == 2:
        return CheckCommand(rng.choice(pool), rng.choice(
            ("overt", "overlap", "formalcover", "lattice")))
    if kind == 3:
        return DeriveCommand(rng.choice(pool), rng.choice(pool),
                             words(0, 4), rng.choice((None, 0, 7, 120)))
    cls = (BooleanizeCommand, CongruencesCommand, EnvelopeCommand)[kind - 4]
    return cls(rng.choice(pool))


def test_pretty_print_round_trips_or_refuses_random_documents():
    rng = random.Random(5)
    pool = ["t", "x", "budget", "0", "7", "check", "derive", "cover",
            "lattice", "elements", "base", "top", "pos", "axiom"]
    refused = 0
    for _ in range(1500):
        doc = Document(tuple(random_item(rng, pool)
                             for _ in range(rng.randint(1, 4))))
        try:
            text = pretty_print(doc)
        except ValueError:
            refused += 1
            continue
        assert parse(text) == doc, text
    assert 0 < refused < 1500


def mutations(rng, count):
    """count documents, each an example with one token deleted,
    duplicated, swapped with its neighbour or replaced by another token
    of the same example."""
    examples = []
    for name in sorted(os.listdir(EXAMPLES)):
        with open(os.path.join(EXAMPLES, name)) as handle:
            text = re.sub(r"#[^\n]*", "", handle.read())
        examples.append(re.findall(r"<=|<\||\n|[{}:;,*=]|\w+", text))
    for _ in range(count):
        tokens = list(rng.choice(examples))
        k = rng.randrange(len(tokens))
        op = rng.randrange(4)
        if op == 0:
            del tokens[k]
        elif op == 1:
            tokens.insert(k, tokens[k])
        elif op == 2:
            tokens[k:k + 2] = tokens[k:k + 2][::-1]
        else:
            tokens[k] = rng.choice(tokens)
        yield " ".join(tokens)


def test_tokens_sit_at_their_line_and_column():
    texts = []
    for name in sorted(os.listdir(EXAMPLES)):
        with open(os.path.join(EXAMPLES, name)) as handle:
            texts.append(handle.read())
    texts.extend(mutations(random.Random(2), 300))
    for text in texts:
        lines = text.split("\n")
        *tokens, eof = _tokenize(text)
        for t in tokens:
            assert t.kind in ("word", "sym"), (text, t)
            assert lines[t.line - 1].startswith(t.value, t.col - 1), (text, t)
        assert (eof.kind, eof.line, eof.col) == (
            "eof", len(lines), len(lines[-1]) + 1), text


def test_main_survives_mutated_examples(tmp_path, capsys):
    rng = random.Random(1)
    path = tmp_path / "mutant.cov"
    for text in mutations(rng, 300):
        path.write_text(text)
        code = main(["--input", str(path), "--budget", "50",
                     "--format", rng.choice(("text", "records"))])
        err = capsys.readouterr().err
        assert code in (0, 1, 2), text
        assert "Traceback" not in err, text


def flat_cover(k):
    """A cover block C: bot below k pairwise disjoint atoms below t,
    every element but bot positive, and bot <| {}.  Each set of atoms
    with bot is saturated, so its frame has 2^k + 1 elements."""
    atoms = ["a%d" % i for i in range(k)]
    meets = ", ".join(["%s*%s=bot" % (x, y) for i, x in enumerate(atoms)
                       for y in atoms[i + 1:]]
                      + ["bot*%s=bot" % x for x in atoms + ["t"]])
    return ("cover C { base: bot t %s; top: t; meet: %s; pos: t %s;"
            " axiom: bot <| ; }\n" % (" ".join(atoms), meets, " ".join(atoms)))


def test_cover_checks_answer_on_a_base_past_the_old_cap(tmp_path, capsys):
    # overt and overlap on a cover are bounded by what they walk, not by
    # the base: flat_cover(14) has 16 base elements and 2^14 + 1
    # saturated subsets, and both answer at default flags
    doc = tmp_path / "doc.cov"
    atoms = " ".join("a%d" % i for i in range(14))
    for aspect, code, text in (
            ("overt", 0, "pass (overt cover laws hold)"),
            ("overlap", 1,
             "FAIL (not an overlap cover; witness: (t (%s)))" % atoms)):
        doc.write_text(flat_cover(14) + "check C %s\n" % aspect)
        assert main(["--input", str(doc)]) == code
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == "check C %s: %s\n" % (aspect, text)


def test_formalcover_refuses_more_than_2_15_saturated_subsets(tmp_path,
                                                              capsys):
    doc = tmp_path / "doc.cov"
    doc.write_text(flat_cover(14) + "check C formalcover\n")
    assert main(["--input", str(doc)]) == 0
    assert capsys.readouterr().out == ("check C formalcover: pass (cover "
                                       "laws hold (65536 subsets checked))\n")
    # the laws check, overlap and the frame share the one guard of the
    # closure-start walk on 2^15 + 1 saturated subsets
    for aspect in ("formalcover", "overlap"):
        doc.write_text(flat_cover(15) + "check C %s\n" % aspect)
        assert main(["--input", str(doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("%s: check C %s: more than 32768 "
                                "saturated subsets\n" % (doc, aspect))
    p, _pos = build_cover(parse(flat_cover(15)).items[0])
    with pytest.raises(BaseTooLarge, match="^more than 32768 saturated"):
        frame_of_presentation(p, max_base=17)


def test_overlap_cover_closes_only_the_walk_and_a_few_more_masks():
    # the witness is found from the failing closed sets, with no subset
    # sweep: beyond the walk's starts, the overt precondition and the
    # witness ask for at most n + 3 closures
    p, pos = build_cover(parse(flat_cover(12)).items[0])
    starts = sum(1 for _ in p.closure_starts())
    p, pos = build_cover(parse(flat_cover(12)).items[0])
    requested = []
    closure = p.closure
    p.closure = lambda mask: requested.append(mask) or closure(mask)
    ok, (a, subset) = is_overlap_cover(p, pos)
    assert (ok, a, subset) == (False, "t",
                               tuple("a%d" % i for i in range(12)))
    assert starts < len(requested) <= starts + len(p.base) + 3


def test_negative_budget_flag_is_a_usage_error(tmp_path, capsys):
    doc = tmp_path / "doc.cov"
    doc.write_text("cover C { base: t; top: t; }\nderive C t <| t\n")
    with pytest.raises(SystemExit) as exit_:
        main(["--input", str(doc), "--budget", "-5"])
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --budget: must be a natural number" in captured.err


def test_max_base_flag_is_an_unrecognized_argument(tmp_path, capsys):
    doc = tmp_path / "doc.cov"
    doc.write_text("cover C { base: t; top: t; }\ncheck C formalcover\n")
    with pytest.raises(SystemExit) as exit_:
        main(["--input", str(doc), "--max-base", "15"])
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --max-base 15" in captured.err
    assert main(["--input", str(doc)]) == 0


def test_build_lattice_errors():
    with pytest.raises(DocumentError, match="duplicate element"):
        build_lattice(parse("lattice L { elements: x x; }").items[0])
    with pytest.raises(DocumentError, match="unknown element"):
        build_lattice(parse(
            "lattice L { elements: x; leq: x<=y; }").items[0])
    with pytest.raises(DocumentError, match="antisymmetric"):
        build_lattice(parse(
            "lattice L { elements: x y; leq: x<=y, y<=x; }").items[0])
    with pytest.raises(DocumentError, match="no meet|no join"):
        build_lattice(parse(
            "lattice L { elements: w x y z; leq: w<=x, w<=y; }").items[0])


def test_build_cover_meet_completion():
    block = parse("""
cover C {
  base: t x y b;
  top: t;
  meet: x*y=b, x*b=b, y*b=b;
  axiom: t <| x y;
  axiom: b <| ;
}
""").items[0]
    p, pos = build_cover(block)
    assert pos is None
    assert p.meet("x", "x") == "x"
    assert p.meet("t", "y") == "y"
    assert p.meet("y", "x") == "b"


def test_build_cover_errors():
    with pytest.raises(DocumentError, match="missing"):
        build_cover(parse(
            "cover C { base: t x y; top: t; }").items[0])
    with pytest.raises(DocumentError, match="conflict"):
        build_cover(parse(
            "cover C { base: t x y b; top: t;"
            " meet: x*y=b, y*x=x, x*b=b, y*b=b; }").items[0])
    with pytest.raises(DocumentError, match="not idempotent"):
        build_cover(parse(
            "cover C { base: t x; top: t; meet: x*x=t; }").items[0])
    with pytest.raises(DocumentError, match="top"):
        build_cover(parse(
            "cover C { base: x; top: z; }").items[0])
    with pytest.raises(DocumentError, match="unknown"):
        build_cover(parse(
            "cover C { base: t; top: t; axiom: t <| q; }").items[0])


def test_run_document_exit_codes():
    lines, records, code = run_document(CHAIN_DOC)
    assert code == 0
    assert lines == ["check Chain3 overt: pass (overt laws hold)"]
    assert records[0]["ok"] is True
    _lines, _records, code = run_document(
        CHAIN_DOC + "\ncheck Chain3 overlap\n")
    assert code == 1


def test_run_document_unknown_name():
    with pytest.raises(DocumentError):
        run_document("check Ghost overt")


def test_run_document_duplicate_name():
    with pytest.raises(DocumentError):
        run_document("lattice L { elements: x; }\n"
                     "cover L { base: x; top: x; }")


def test_derive_uses_default_budget_when_absent():
    text = ("cover C { base: t; top: t; }\n"
            "derive C t <| t\n")
    lines, records, code = run_document(text, budget=77)
    assert code == 0
    assert records[0]["budget"] == 77
    assert "budget 77" in lines[0]


def test_derive_unknown_fails_the_run():
    text = ("cover C { base: t x y b; top: t;"
            " meet: x*y=b, x*b=b, y*b=b;"
            " axiom: t <| x y; }\n"
            "derive C t <| x\n")
    lines, records, code = run_document(text)
    assert code == 1
    assert records[0]["result"] == "unknown"
    assert lines[0].endswith("unknown (budget exhausted)")


def test_derive_prints_a_below_step(tmp_path, capsys):
    doc = tmp_path / "below.cov"
    doc.write_text("cover C { base: e s0 s1 nil; top: e;"
                   " meet: s0*s1=nil, nil*s0=nil, nil*s1=nil;"
                   " axiom: e <| s0 s1; axiom: nil <| ; }\n"
                   "derive C s0 <| e s1\n")
    assert main(["--input", str(doc)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "derive C s0 <| e s1 budget 1000: confirmed at step 0",
        "  s0 <= e [below]"]
    assert main(["--input", str(doc), "--format", "records"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["trace"] == ["below", "s0", "e"]


def test_main_reads_files_and_reports_usage_errors(tmp_path, capsys):
    doc = tmp_path / "ok.cov"
    doc.write_text(CHAIN_DOC)
    assert main(["--input", str(doc)]) == 0
    out = capsys.readouterr().out
    assert "pass (overt laws hold)" in out

    bad = tmp_path / "bad.cov"
    bad.write_text("lattice L { elements: x x; }")
    assert main(["--input", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "duplicate element" in err

    assert main(["--input", str(tmp_path / "absent.cov")]) == 2
    capsys.readouterr()


def test_an_undecodable_file_is_a_read_error(tmp_path, capsys):
    doc = tmp_path / "latin.cov"
    doc.write_bytes(b"lattice L { elements: \xff; }\n")
    assert main(["--input", str(doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cannot read %s: " % doc)
    assert "Traceback" not in err


def test_main_reads_stdin_for_a_dash(monkeypatch, capsys):
    with open(os.path.join(EXAMPLES, "chain.cov")) as handle:
        monkeypatch.setattr(sys, "stdin", io.StringIO(handle.read()))
    with open(os.path.join(GOLDEN, "chain.txt"), "rb") as handle:
        expected = handle.read()
    # the chain example has a failing check, as its golden run exits 1
    assert main(["--input", "-"]) == 1
    assert capsys.readouterr().out.encode() == expected


def test_main_records_format(tmp_path, capsys):
    doc = tmp_path / "doc.cov"
    doc.write_text(CHAIN_DOC)
    assert main(["--input", str(doc), "--format", "records"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    record = json.loads(out[0])
    assert record["command"] == "check"
    assert record["aspect"] == "overt"
    assert record["ok"] is True


def _cli(args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "sigmaloc.cli"] + args,
        capture_output=True, timeout=60, env=env)


# Splitting fails at U = {a}: top <| a covers b and top, both positive;
# the witness is the first positive element in base order.
SPLIT_FAILS_DOC = """
cover C {
  base: bot a b top;
  top: top;
  meet: bot*a=bot, bot*b=bot, a*b=a;
  axiom: top <| a;
  axiom: bot <| ;
  pos: b top;
}

check C overt
"""
SPLIT_FAILS_OUT = {
    "text": b"check C overt: FAIL (cover splitting fails; witness: b, (a))\n",
    "records": b'{"aspect": "overt", "command": "check", "detail": '
               b'"cover splitting fails", "ok": false, "target": "C", '
               b'"witnesses": ["b", ["a"]]}\n',
}


def test_golden_files_are_byte_identical(tmp_path):
    # each run under two hash seeds, so no output may depend on hashing
    split = tmp_path / "split.cov"
    split.write_text(SPLIT_FAILS_DOC)
    runs = []
    for name, expected_code in (("chain", 1), ("diamond", 0), ("cantor", 0)):
        path = os.path.join(EXAMPLES, name + ".cov")
        for fmt, ext in (("text", "txt"), ("records", "jsonl")):
            with open(os.path.join(GOLDEN, "%s.%s" % (name, ext)),
                      "rb") as handle:
                runs.append((path, fmt, expected_code, handle.read()))
    for fmt, out in SPLIT_FAILS_OUT.items():
        runs.append((str(split), fmt, 1, out))
    for path, fmt, expected_code, expected in runs:
        for seed in ("0", "1"):
            got = _cli(["--input", path, "--format", fmt],
                       env=dict(os.environ, PYTHONHASHSEED=seed))
            assert got.returncode == expected_code, (path, fmt, got.stderr)
            assert got.stdout == expected, (path, fmt, seed)


def test_help_is_byte_identical(monkeypatch, capsys):
    # argparse wraps the help to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    with open(os.path.join(GOLDEN, "help.txt"), encoding="utf-8") as handle:
        assert capsys.readouterr().out == handle.read()


def test_golden_runs_are_deterministic():
    path = os.path.join(EXAMPLES, "chain.cov")
    first = _cli(["--input", path, "--format", "records"])
    second = _cli(["--input", path, "--format", "records"])
    assert first.stdout == second.stdout


LATTICE_L = "lattice L { elements: 0 1; leq: 0<=1; }\n"
COVER_C = "cover C { base: t; top: t; }\n"


@pytest.mark.parametrize("text, message", [
    (COVER_C + "check C lattice", "check C lattice: 'C' is a cover"),
    (LATTICE_L + "check L formalcover",
     "check L formalcover: 'L' is a lattice"),
    (LATTICE_L + "check L overt", "check L needs a pos field on 'L'"),
    (COVER_C + "check C overt", "check C needs a pos field on 'C'"),
    (LATTICE_L + "check L overlap", "check L needs a pos field on 'L'"),
    (COVER_C + "check C overlap", "check C needs a pos field on 'C'"),
    (LATTICE_L + "booleanize L", "booleanize L needs a pos field on 'L'"),
    (COVER_C + "booleanize C", "booleanize needs a lattice, 'C' is a cover"),
    (COVER_C + "congruences C",
     "congruences needs a lattice, 'C' is a cover"),
    (COVER_C + "envelope C", "envelope needs a lattice, 'C' is a cover"),
    (LATTICE_L + "derive L 1 <| 0", "derive needs a cover, 'L' is a lattice"),
    (COVER_C + "derive C t <| q", "derive mentions unknown base element 'q'"),
])
def test_command_and_kind_mismatches_are_usage_errors(tmp_path, capsys,
                                                      text, message):
    doc = tmp_path / "doc.cov"
    doc.write_text(text)
    assert main(["--input", str(doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "%s: %s\n" % (doc, message)


def chain_doc(n):
    """A lattice block C on an n-element chain, then `envelope C`."""
    elements = ["c%d" % i for i in range(n)]
    return ("lattice C { elements: %s; leq: %s; }\nenvelope C\n"
            % (" ".join(elements), ", ".join(
                "%s<=%s" % pair for pair in zip(elements, elements[1:]))))


def test_envelope_refuses_a_large_lattice_before_building(
        monkeypatch, tmp_path, capsys):
    doc = tmp_path / "doc.cov"
    doc.write_text(chain_doc(15))
    assert main(["--input", str(doc)]) == 0
    assert capsys.readouterr().out.endswith(
        "frame has 15 elements; isomorphic to source: yes\n")

    def refuse(_lattice):
        raise AssertionError("envelope_cover ran")

    monkeypatch.setattr("sigmaloc.cli.envelope_cover", refuse)
    doc.write_text(chain_doc(16))
    assert main(["--input", str(doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("%s: envelope C: base has 16 elements, "
                            "cap is 15\n" % doc)


def test_envelope_counts_its_axioms_without_listing_them(monkeypatch,
                                                         capsys):
    # the count is read off the per-cover map, so p.axioms is never
    # listed; the goldens pin the counts
    built = []

    def recording(lattice):
        p, embedding = envelope_cover(lattice)
        built.append(p)
        return p, embedding

    monkeypatch.setattr("sigmaloc.cli.envelope_cover", recording)
    for example, code, line in (
            ("chain.cov", 1, "envelope Chain3: 15 axioms; frame has 3 "
                             "elements; isomorphic to source: yes"),
            ("diamond.cov", 0, "envelope Diamond: 30 axioms; frame has 4 "
                               "elements; isomorphic to source: yes")):
        assert main(["--input", os.path.join(EXAMPLES, example)]) == code
        assert line in capsys.readouterr().out.splitlines()
        p = built.pop()
        assert "axioms" not in vars(p), example
        assert len(p.axioms) == int(line.split()[2]), example


def test_envelope_reports_a_frame_that_is_not_the_source(
        monkeypatch, capsys):
    # unreachable on valid input: without the top's pair rules the
    # diamond's atoms no longer cover the top, and the frame gains the
    # closed set {0, x, y}
    def without_top_pairs(lattice):
        p, embedding = envelope_cover(lattice)
        top = lattice.elements.index(lattice.top)
        p._rules[top] = [bits for bits in p._rules[top]
                         if bits.bit_count() < 2]
        p._group_rules()
        return p, embedding

    monkeypatch.setattr("sigmaloc.cli.envelope_cover", without_top_pairs)
    diamond = os.path.join(EXAMPLES, "diamond.cov")
    assert main(["--input", diamond]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == (
        "envelope Diamond: 30 axioms; frame has 5 elements; "
        "isomorphic to source: no")
    assert main(["--input", diamond, "--format", "records"]) == 1
    assert json.loads(capsys.readouterr().out.splitlines()[-1]) == {
        "axioms": 30, "command": "envelope", "frame_size": 5,
        "isomorphic": False, "ok": False, "target": "Diamond"}


BOOLEANIZE_DOC = """
lattice L {
  elements: 0 a 1;
  leq: 0<=a, a<=1;
  pos: a 1;
}

booleanize L
"""


def test_booleanize_reports_a_quotient_that_is_no_overlap_algebra(
        monkeypatch, tmp_path, capsys):
    # unreachable on valid input; the text shown if a quotient ever failed
    monkeypatch.setattr("sigmaloc.cli.is_sigma_overlap_algebra",
                        lambda lattice, pos: (False, None))
    doc = tmp_path / "doc.cov"
    doc.write_text(BOOLEANIZE_DOC)
    assert main(["--input", str(doc)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "booleanize L: 2 classes; quotient is NOT a sigma-overlap algebra",
        "  class 0: 0",
        "  class 1: a 1"]
    assert main(["--input", str(doc), "--format", "records"]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "classes": [["0"], ["a", "1"]], "command": "booleanize",
        "detail": "quotient is NOT a sigma-overlap algebra",
        "identity": False, "ok": False, "overlap_after": False,
        "target": "L"}
