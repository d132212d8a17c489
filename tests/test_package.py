"""The package namespace: what `from sigmaloc import *` exports."""

import types

import sigmaloc


def test_all_lists_exactly_the_public_names():
    public = {name for name, value in vars(sigmaloc).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert sorted(sigmaloc.__all__) == sorted(public)
