"""The package namespace: what `from sigmaloc import *` exports."""

import ast
import inspect
import types

import sigmaloc

MODULES = [sigmaloc.pairing, sigmaloc.semidecision, sigmaloc.enumeration,
           sigmaloc.reports, sigmaloc.sigma_frame, sigmaloc.formal_cover,
           sigmaloc.booleanization, sigmaloc.generators]


def test_all_lists_exactly_the_public_names():
    public = {name for name, value in vars(sigmaloc).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert sorted(sigmaloc.__all__) == sorted(public)


def defined_names(module):
    """Names a module binds at top level by def, class or assignment,
    not by import."""
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets
                         if isinstance(t, ast.Name))
    return names


def test_each_module_lists_only_the_names_it_defines():
    listed = []
    for module in MODULES:
        assert set(module.__all__) <= defined_names(module), module.__name__
        listed.extend(module.__all__)
    # no name listed twice, and together the package's list
    assert len(set(listed)) == len(listed)
    assert sorted(listed) == sigmaloc.__all__
    # a name one module imports from another is not re-exported
    assert "Positivity" in vars(sigmaloc.generators)
    assert "Positivity" not in sigmaloc.generators.__all__
