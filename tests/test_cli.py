"""Declaration language: parsing, pretty-printing, execution, exit codes."""

import json
import os
import subprocess
import sys

import pytest

from sigmaloc.cli import (
    CheckCommand,
    CoverBlock,
    DeriveCommand,
    Document,
    DocumentError,
    LatticeBlock,
    ParseError,
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
    assert a.items[0].location != b.items[0].location


def test_pretty_print_round_trip_examples():
    for name in ("chain.cov", "diamond.cov", "cantor.cov"):
        text = open(os.path.join(EXAMPLES, name)).read()
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


def test_budget_must_be_numeric():
    # "\u00b2" (superscript two) passes str.isdigit but not int().
    for budget in ("lots", "\u00b2"):
        with pytest.raises(ParseError, match="must be a natural number"):
            parse("cover C { base: t; top: t; }\nderive C t <| t budget "
                  + budget)


def test_negative_budget_flag_is_a_usage_error(tmp_path, capsys):
    doc = tmp_path / "doc.cov"
    doc.write_text("cover C { base: t; top: t; }\nderive C t <| t\n")
    with pytest.raises(SystemExit) as exit_:
        main(["--input", str(doc), "--budget", "-5"])
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --budget: must be a natural number" in captured.err


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


def test_main_records_format(tmp_path, capsys):
    doc = tmp_path / "doc.cov"
    doc.write_text(CHAIN_DOC)
    assert main(["--input", str(doc), "--format", "records"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    record = json.loads(out[0])
    assert record["command"] == "check"
    assert record["aspect"] == "overt"
    assert record["ok"] is True


def _cli(args):
    return subprocess.run(
        [sys.executable, "-m", "sigmaloc.cli"] + args,
        capture_output=True, timeout=60)


def test_golden_files_are_byte_identical():
    for name, expected_code in (("chain", 1), ("diamond", 0), ("cantor", 0)):
        path = os.path.join(EXAMPLES, name + ".cov")
        for fmt, ext in (("text", "txt"), ("records", "jsonl")):
            got = _cli(["--input", path, "--format", fmt])
            assert got.returncode == expected_code, (name, fmt, got.stderr)
            golden = os.path.join(GOLDEN, "%s.%s" % (name, ext))
            with open(golden, "rb") as handle:
                assert got.stdout == handle.read(), (name, fmt)


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
