"""Uniform result type for the check_* oracles, and the base of every
sigmaloc record."""

from collections import namedtuple

__all__ = [
    "CheckReport",
    "failed",
    "passed",
]


class Record:
    """Base of the named-tuple records: a record equals only records of
    its own class, so Confirmed(3) != (3,).  Declared as
    class Confirmed(Record, namedtuple("Confirmed", "at_step"))."""

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__


class CheckReport(Record, namedtuple("CheckReport", "ok detail witnesses",
                                     defaults=("", ()))):
    __slots__ = ()

    def __bool__(self):
        return self.ok


def passed(detail=""):
    return CheckReport(True, detail)


def failed(detail, witnesses=()):
    return CheckReport(False, detail, tuple(witnesses))
