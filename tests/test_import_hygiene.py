"""Every module-level import in ``src/hballs`` and ``tests`` is used by its module.

No linter is a dependency, so this parses each module with ``ast`` and
fails on an imported name the module never reads.  Exempt: the package's
``__init__`` (its imports are re-exports), names listed in ``__all__`` and
names on a line marked ``# noqa: F401`` (kept for code that patches them by
name, such as bench/tracing.py).
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "hballs"
MODULES = sorted(p for p in [*PACKAGE.glob("*.py"), *TESTS.glob("*.py")]
                 if p.name != "__init__.py")


def _module_imports(body):
    """Import statements of a module body, outside functions and classes."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for field in ("body", "orelse", "finalbody", "handlers"):
                yield from _module_imports(getattr(node, field, []))


def unused_imports(source: str) -> list:
    """(line, name) of each module-level import ``source`` never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    unused = []
    for node in _module_imports(tree.body):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                unused.append((alias.lineno, name))
    return unused


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_its_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_an_unused_import():
    source = ("import os\nimport numpy as np\nfrom json import dumps, loads  # noqa: F401\n"
              "from math import pi\n__all__ = ['pi']\nnp.zeros(1)\n")
    assert unused_imports(source) == [(1, "os")]
