"""The record contract: every record class of the package builds from
its fields in order, positionally or by keyword, with its defaults;
prints as Class(field=value, ...); hashes as the tuple of its fields;
refuses assignment; and equals only records of its own class.
Importing the CLI loads none of dataclasses, inspect and typing."""

import os
import subprocess
import sys

import pytest

from sigmaloc import (
    CheckReport,
    Confirmed,
    Congruence,
    DetachableSubset,
    Enumeration,
    Positivity,
    SemiDecidableEquality,
    SigmaFrameHom,
    chain_lattice,
)
from sigmaloc.cli import (
    BooleanizeCommand,
    CheckCommand,
    CongruencesCommand,
    CoverBlock,
    DeriveCommand,
    Document,
    EnvelopeCommand,
    LatticeBlock,
    _Keyword,
)

SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def alpha(n):
    return n


def chi(x):
    return True


def psi(x, y):
    return None


CHAIN2 = chain_lattice(1)

# (class, field names, a value per field, the defaults)
RECORDS = [
    (CheckReport, "ok detail witnesses", (False, "d", ("x",)),
     {"detail": "", "witnesses": ()}),
    (Confirmed, "at_step", (3,), {}),
    (Enumeration, "alpha bound", (alpha, 4), {"bound": None}),
    (DetachableSubset, "chi", (chi,), {}),
    (SemiDecidableEquality, "psi max_confirm_budget", (psi, 0),
     {"max_confirm_budget": None}),
    (SigmaFrameHom, "source target mapping",
     (CHAIN2, CHAIN2, {"0": "0", "1": "1"}), {}),
    (Positivity, "members", (frozenset({"a"}),), {}),
    (Congruence, "elements class_of", (("0", "a"), (0, 0)), {}),
    (LatticeBlock, "name elements leq_pairs pos",
     ("L", ("0", "1"), (("0", "1"),), None), {}),
    (CoverBlock, "name base top meet_entries axioms pos",
     ("C", ("t",), "t", (("t", "t", "t"),), (("t", ()),), ("t",)), {}),
    (CheckCommand, "target aspect", ("L", "overt"), {}),
    (BooleanizeCommand, "target", ("L",), {}),
    (CongruencesCommand, "target", ("L",), {}),
    (DeriveCommand, "target element cover budget",
     ("C", "t", ("t",), 5), {}),
    (EnvelopeCommand, "target", ("L",), {}),
    (Document, "items", ((BooleanizeCommand("L"),),), {}),
    (_Keyword, "keyword cls parse show build kind needs_pos validate run",
     ("x", Document, alpha, alpha, alpha, "lattice", True, psi, psi),
     {"build": None, "kind": "either", "needs_pos": False,
      "validate": None, "run": None}),
]


@pytest.mark.parametrize("cls, names, values, defaults", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_record_contract(cls, names, values, defaults):
    names = names.split()
    r = cls(*values)
    assert isinstance(r, cls)
    assert r == cls(**dict(zip(names, values)))
    assert not r != cls(*values)
    for name, value in zip(names, values):
        assert getattr(r, name) is value
    required = len(names) - len(defaults)
    assert list(defaults) == names[required:]
    bare = cls(*values[:required])
    for name, value in defaults.items():
        assert getattr(bare, name) == value
    assert repr(r) == "%s(%s)" % (cls.__name__, ", ".join(
        "%s=%r" % pair for pair in zip(names, values)))
    try:
        expected = hash(values)
    except TypeError:
        with pytest.raises(TypeError):
            hash(r)
    else:
        assert hash(r) == expected
    with pytest.raises(AttributeError):
        setattr(r, names[0], values[0])
    with pytest.raises(AttributeError):
        r.extra = 1
    changed = cls(*((object(),) + values[1:]))
    assert r != changed and not r == changed


def test_records_equal_only_their_own_class():
    commands = [BooleanizeCommand("L"), CongruencesCommand("L"),
                EnvelopeCommand("L")]
    for i, a in enumerate(commands):
        for j, b in enumerate(commands):
            assert (a == b) is (i == j)
            assert (a != b) is (i != j)
    for record, fields in ((Confirmed(3), (3,)),
                           (CheckReport(True), (True, "", ())),
                           (Positivity(frozenset()), (frozenset(),))):
        assert record != fields and fields != record
        assert not record == fields and not fields == record
    assert Document((Confirmed(1),)) != Document(((1,),))


def test_importing_the_cli_loads_no_record_machinery():
    # -S, since a site module may import typing itself
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    out = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, sigmaloc.cli; print(sorted({'dataclasses', "
         "'inspect', 'typing'} & set(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
