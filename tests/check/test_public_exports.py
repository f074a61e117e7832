"""Every public export resolves: each name a ``repro`` module lists in its
``__all__`` is an attribute of that module.  A stale re-export of a deleted
name fails here, not in a user's ``from repro.x import *``."""

from __future__ import annotations

import importlib
import pkgutil
import types

import pytest

import repro


def _module_names():
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.rsplit(".", 1)[-1] != "__main__":  # importing it runs the CLI
            names.append(info.name)
    return sorted(names)


MODULES = _module_names()


@pytest.mark.parametrize("module_name", MODULES)
def test_every_name_in_all_resolves(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", ())
    missing = [name for name in exported if not hasattr(module, name)]
    assert missing == [], f"{module_name}.__all__ lists unresolvable names: {missing}"
    # A package binds each imported submodule as an attribute, so a stale
    # export that shares its name with a submodule (a deleted function
    # ``sweep`` of ``repro.analysis.sweep``) would still resolve.  Packages
    # export subpackages only; a plain module in ``__all__`` is such a stale
    # name.
    modules = [
        name
        for name in exported
        if isinstance(getattr(module, name), types.ModuleType)
        and not hasattr(getattr(module, name), "__path__")
    ]
    assert modules == [], f"{module_name}.__all__ lists plain modules: {modules}"


def test_the_walk_reaches_every_subpackage():
    packages = {name.split(".")[1] for name in MODULES if name != "repro"}
    assert {"analysis", "api", "engine", "service", "stats"} <= packages
