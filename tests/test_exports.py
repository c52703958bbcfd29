"""Every name the package exports resolves.

A name left in a module's ``__all__`` after its definition is deleted fails
only at ``from module import *``, which nothing else in the suite runs. The
package root's own imports need no test: ``import stablepred`` fails first.
"""

import importlib
import pkgutil

import stablepred


def exported_names():
    """(module, name) for each ``__all__`` entry of every stablepred module."""
    pairs = []
    for info in pkgutil.iter_modules(stablepred.__path__):
        module = importlib.import_module(f"stablepred.{info.name}")
        pairs += [(module.__name__, name) for name in getattr(module, "__all__", ())]
    return pairs


def test_every_exported_name_resolves():
    missing = [f"{module}.{name}" for module, name in exported_names()
               if not hasattr(importlib.import_module(module), name)]
    assert not missing
