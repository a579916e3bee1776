"""Every name a faultcast module reads is defined where Python will look for it.

A static check with the standard library's ``symtable``: a name read in any
scope must be bound in that scope (a parameter, an assignment or an import),
come from an enclosing function, or be a module-level name, a module
attribute or a builtin.  An unbound name would only fail, with a
``NameError``, when the line that reads it runs.
"""

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
