"""Every annotation on the simulated message path resolves.

The modules use ``from __future__ import annotations``, so a name missing
from an annotation (``Optional`` never imported, say) costs nothing at
import time and only raises ``NameError`` when something resolves the
hints.  ``typing.get_type_hints`` over every function and method is the
local stand-in for a linter's undefined-name check (F821).
"""

import importlib
import inspect
import pkgutil
import typing

import pytest

PACKAGES = ("repro.xkernel", "repro.netsim", "repro.gmp", "repro.tcp")
MODULES = ("repro.core.pfi",)


def _module_names():
    names = list(MODULES)
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        names.append(package_name)
        names.extend(info.name for info in pkgutil.iter_modules(
            package.__path__, prefix=f"{package_name}."))
    return sorted(names)


def _functions(module):
    """``(qualified name, function)`` defined in ``module``: top-level
    functions and the methods of top-level classes."""
    for name, value in vars(module).items():
        if getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value):
            yield name, value
        elif inspect.isclass(value):
            for attribute, member in vars(value).items():
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                if inspect.isfunction(member):
                    yield f"{name}.{attribute}", member


MODULE_NAMES = _module_names()


def test_the_census_covers_the_message_path():
    # the modules whose unresolved annotations motivated this census
    for name in ("repro.gmp.reliable", "repro.gmp.timers", "repro.core.pfi"):
        assert name in MODULE_NAMES


@pytest.mark.parametrize("module_name", MODULE_NAMES)
def test_annotations_resolve(module_name):
    module = importlib.import_module(module_name)
    unresolved = []
    for name, function in _functions(module):
        try:
            typing.get_type_hints(function)
        except NameError as exc:
            unresolved.append(f"{name}: {exc}")
    assert unresolved == []
