"""Every name a proadapt module imports is used in that module, every
module-level private name is read somewhere in the package, and every
name in a module's ``__all__`` is bound in it.

A deletion can leave an import or a private helper behind that nothing
uses any more, or a stale ``__all__`` entry that breaks any code that
reads every exported name (perfbench's tracer does); these checks name
each such import, helper or entry.
"""

from __future__ import annotations

import ast
import importlib
import types
from pathlib import Path

import pytest

import proadapt

MODULES = sorted(Path(proadapt.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names ``source`` binds by import and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``.
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_the_check_finds_an_unused_import():
    assert unused_imports("import os\nimport sys\nfrom a.b import c, d as e\nsys.exit(e)\n"
                          ) == ["line 1: os", "line 3: c"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """The private (``_name``) functions, classes and constants that a
    module of ``sources`` (file name -> source) defines at module level and
    no module reads, as a name or as an attribute."""
    defined, read = [], set()
    for file, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((file, node.lineno, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(file, node.lineno, name.id) for target in targets
                            for name in ast.walk(target) if isinstance(name, ast.Name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [f"{file} line {line}: {name}" for file, line, name in defined
            if name.startswith("_") and not name.startswith("__") and name not in read]


def test_the_check_finds_an_unread_private_helper():
    sources = {"a.py": "_LIMIT = 3\n_A, _B = 1, 2\ndef _used():\n    return _LIMIT + _A\n"
                       "def _planted():\n    pass\nclass _Unused:\n    pass\n",
               "b.py": "from . import a\nVALUE = a._used()\n"}
    assert unread_private_names(sources) == ["a.py line 2: _B", "a.py line 5: _planted",
                                             "a.py line 7: _Unused"]


def test_every_private_name_is_read():
    package = Path(proadapt.__file__).parent
    assert unread_private_names({path.name: path.read_text(encoding="utf-8")
                                 for path in sorted(package.glob("*.py"))}) == []


def unbound_exports(module) -> list[str]:
    """The names in ``module.__all__`` that reading from ``module`` fails on."""
    return [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]


def test_the_check_finds_a_stale_export():
    module = types.ModuleType("planted")
    module.__all__ = ["kept", "deleted"]
    module.kept = 1
    assert unbound_exports(module) == ["deleted"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_exported_name_is_bound(path):
    name = "proadapt" if path.stem == "__init__" else f"proadapt.{path.stem}"
    assert unbound_exports(importlib.import_module(name)) == []
