"""Every name a ``modnls`` module imports is read in that module.

A stand-in for a linter's unused-import rule, built on ``ast``.  A name also
counts as read when a string constant of the module equals it (``cli``
looks its drivers up by name, ``__all__`` lists re-exports) or when it is
imported on a ``# noqa: F401`` line (a name kept for a tracer to wrap).
The package's ``__init__`` imports only to re-export, so it is not checked.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import modnls

MODULES = sorted(p for p in Path(modnls.__file__).resolve().parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            if "# noqa: F401" in lines[alias.lineno - 1]:
                continue
            name = alias.asname or alias.name.split(".")[0]
            imported[name] = alias.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    named = {node.value for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in read and name not in named]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_finds_an_unused_import():
    source = ("import math\nimport re\nfrom os import path, sep\n"
              "from sys import argv  # noqa: F401\n"
              "NAMES = ['sep']\nprint(math.pi)\n")
    assert unused_imports(source) == ["line 2: re", "line 3: path"]
