"""Every module of the package imports on its own, first in a fresh
interpreter. ``memagent/__init__`` imports its modules in one fixed order,
which can hide an import cycle that a different first import would hit."""

import importlib.util
import pkgutil
import subprocess
import sys

import pytest

_PACKAGE = importlib.util.find_spec("memagent").submodule_search_locations

#: Registers the package without running its ``__init__``, then imports the
#: module named by argv[1], so that module is the first of the package to load.
_IMPORT_FIRST = """
import importlib, importlib.util, sys, types
package = types.ModuleType("memagent")
package.__path__ = importlib.util.find_spec("memagent").submodule_search_locations
sys.modules["memagent"] = package
importlib.import_module("memagent." + sys.argv[1])
"""


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(_PACKAGE)))
def test_module_imports_first_in_a_fresh_interpreter(name):
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_FIRST, name], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
