"""Every name a module lists in ``__all__`` exists, so a deletion cannot
leave a stale export behind."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_import_leaves_concurrent_futures_unloaded():
    # every fresh interpreter pays for what the package imports (bench setup_s)
    src = str(Path(hballs.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, hballs; print('concurrent.futures' in sys.modules)"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), check=True)
    assert done.stdout.strip() == "False"
