"""Every name a module exports in ``__all__`` exists in it.

A name deleted from a module but left in an ``__all__`` list (its own or the
package's) fails here at once, not at a user's ``from fusenet import *``.
"""

import importlib
import pkgutil

import pytest

import fusenet

MODULES = ["fusenet"] + sorted(
    f"fusenet.{info.name}" for info in pkgutil.iter_modules(fusenet.__path__)
)


@pytest.mark.parametrize("module_name", MODULES)
def test_exported_names_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", ())
    assert len(exported) == len(set(exported)), "an __all__ lists a name twice"
    assert [name for name in exported if not hasattr(module, name)] == []

