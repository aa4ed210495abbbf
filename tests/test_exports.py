"""Every name a module lists in ``__all__`` exists, so a deletion cannot
leave a stale export behind."""

import importlib
import pkgutil

import pytest

import hballs

# __main__ runs the command line on import
MODULES = [info.name for info in pkgutil.iter_modules(hballs.__path__)
           if not info.name.startswith("_")]


def test_modules_declare_exports():
    declared = [name for name in MODULES
                if hasattr(importlib.import_module(f"hballs.{name}"), "__all__")]
    assert {"geometry", "kernel", "quadrature", "extension", "calculus", "norms",
            "theorems"} <= set(declared)


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve(name):
    module = importlib.import_module(f"hballs.{name}")
    missing = [sym for sym in getattr(module, "__all__", ()) if not hasattr(module, sym)]
    assert missing == []
