"""Every name a faultcast module reads is defined where Python will look for
it, and every name it imports is read.

A static check with the standard library's ``symtable``: a name read in any
scope must be bound in that scope (a parameter, an assignment or an import),
come from an enclosing function, or be a module-level name, a module
attribute or a builtin.  An unbound name would only fail, with a
``NameError``, when the line that reads it runs.  A second check, with
``ast``, finds imports that nothing reads, such as those a deletion leaves
behind.
"""

import ast
import builtins
import symtable
from pathlib import Path

import pytest

import faultcast

SOURCES = sorted(Path(faultcast.__file__).parent.glob("*.py"))

#: Names every module namespace holds without binding them itself.
MODULE_ATTRIBUTES = {
    "__builtins__",
    "__cached__",
    "__doc__",
    "__file__",
    "__loader__",
    "__name__",
    "__package__",
    "__path__",
    "__spec__",
}


def _scopes(table):
    yield table
    for child in table.get_children():
        yield from _scopes(child)


def undefined_names(source: str, filename: str):
    """(scope, name) for each name read but bound nowhere it can be found."""
    module = symtable.symtable(source, filename, "exec")
    scopes = list(_scopes(module))
    globals_ = set(dir(builtins)) | MODULE_ATTRIBUTES
    for scope in scopes:
        for symbol in scope.get_symbols():
            at_module = scope is module or symbol.is_declared_global()
            if at_module and (symbol.is_assigned() or symbol.is_imported()):
                globals_.add(symbol.get_name())
    missing = []
    for scope in scopes:
        for symbol in scope.get_symbols():
            if not symbol.is_referenced() or symbol.is_free():
                continue  # an enclosing function binds a free name
            if symbol.is_parameter() or symbol.is_assigned() or symbol.is_imported():
                continue
            # read but not bound here: looked up among the module's globals
            # (``Symbol.is_global`` is not used: Python 3.11 takes any
            # function named ``top`` for the module scope)
            if symbol.get_name() not in globals_:
                missing.append((scope.get_name(), symbol.get_name()))
    return missing


@pytest.mark.parametrize("path", SOURCES, ids=[p.stem for p in SOURCES])
def test_every_name_a_module_reads_is_defined(path):
    assert undefined_names(path.read_text(encoding="utf-8"), str(path)) == []


def test_the_check_finds_an_unbound_name():
    source = (
        "import os\n"
        "X = 1\n"
        "def f(a):\n"
        "    b = a + X + len(os.sep)\n"
        "    def g():\n"
        "        return b + Missing\n"
        "    return [c for c in g() if c is not Other]\n"
        "class C:\n"
        "    y = Absent\n"
        "    def top(self):\n"
        "        return self.y\n"
    )
    assert sorted(name for _, name in undefined_names(source, "<test>")) == ["Absent", "Missing", "Other"]


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unused_imports(source: str, filename: str):
    """Names a module imports but never reads.  Reads in annotations count,
    quoted ones too, and so does a listing in ``__all__``; ``__future__``
    imports are not names."""
    tree = ast.parse(source, filename)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    trees = [tree]
    for annotation in filter(None, _annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                trees.append(ast.parse(node.value, filename, "eval"))
    read = {node.id for t in trees for node in ast.walk(t) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted(imported - read)


@pytest.mark.parametrize("path", SOURCES, ids=[p.stem for p in SOURCES])
def test_every_name_a_module_imports_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8"), str(path)) == []


def test_the_check_finds_an_unread_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from typing import Dict, List, Optional, Tuple\n"
        "from .core import Exported, Unread\n"
        "__all__ = ['Exported']\n"
        "def f(a: Dict[str, int]) -> 'Optional[Tuple]':\n"
        "    import json\n"
        "    x: List = []\n"
        "    return a\n"
    )
    assert unused_imports(source, "<test>") == ["Unread", "json", "np", "os"]
