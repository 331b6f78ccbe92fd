"""Every name a module of the package, a test module or a demo imports is
used in that module.

A name imported only to be bound in a module (perfbench times the
extraction entry points on every module that binds them) is marked
``# noqa: F401`` on its line; the package's ``__init__.py`` re-exports and
is skipped.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "phishevade"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted([*(ROOT / "tests").glob("*.py"), *(ROOT / "demos").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """``line: name`` for each name ``source`` imports and never reads,
    skipping ``__future__`` imports and lines marked ``# noqa: F401``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    name = alias.asname or alias.name.partition(".")[0]
                    imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}: {name}" for name, line in sorted(imported.items(),
                                                        key=lambda item: item[1])
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", SCRIPTS,
                         ids=[f"{p.parent.name}/{p.name}" for p in SCRIPTS])
def test_every_name_a_test_or_demo_imports_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_finds_an_unused_name_and_honors_noqa():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "from json import dumps, loads  # noqa: F401\n"
              "from re import (\n    compile,\n    escape,\n)\n"
              "sys.exit(compile)\n")
    assert unused_imports(source) == ["2: os", "6: escape"]
