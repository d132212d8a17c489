"""Keep the sigmaloc modules these tests imported in sys.modules.

bench/run.py's load_kernel imports sigmaloc afresh, so after the bench
tests run in the same process sys.modules holds other module objects
than the ones these test modules bound at import.  A patch by dotted
path or an import inside a function would then reach the new modules
while the code under test runs in the old ones.  Each test here runs
with the modules imported here, at collection, put back.
"""

import importlib
import pkgutil
import sys

import pytest

import sigmaloc

for _info in pkgutil.iter_modules(sigmaloc.__path__):
    importlib.import_module("sigmaloc." + _info.name)

IMPORTED = {name: module for name, module in sys.modules.items()
            if name == "sigmaloc" or name.startswith("sigmaloc.")}


@pytest.fixture(autouse=True)
def imported_sigmaloc(monkeypatch):
    for name, module in IMPORTED.items():
        monkeypatch.setitem(sys.modules, name, module)
