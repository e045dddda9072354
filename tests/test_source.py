"""The library's source: every module but the package's `__init__` reads
each name it imports, unless the import is marked `# noqa: F401` (a name
kept for a caller that binds it through the module), and every private
module-level name is read somewhere in the package."""

import ast
import os

import pytest

import linkinv

SRC = os.path.dirname(linkinv.__file__)
MODULES = sorted(name for name in os.listdir(SRC) if name.endswith(".py") and name != "__init__.py")


def _annotations(tree):
    """The expressions of the string annotations in tree, parsed."""
    for node in ast.walk(tree):
        notes = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            notes = [a.annotation for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                            args.vararg, args.kwarg) if a is not None]
            notes.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            notes = [node.annotation]
        for note in notes:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                yield ast.parse(note.value, mode="eval")


def unused_imports(source: str) -> list:
    """(line, name) of each import in source whose name is never read."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1] + lines[node.lineno - 1]:
                    imported.append((alias.lineno, alias.asname or alias.name.split(".")[0]))
    read = {node.id for root in (tree, *_annotations(tree)) for node in ast.walk(root)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    return [(line, name) for line, name in imported if name not in read]


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os, re\n"
              "from a import (b,\n    c)  # noqa: F401\nfrom d import e\n"
              "def f(x: 'e') -> int:\n    return re.sub(x)\n")
    assert unused_imports(source) == [(2, "os"), (3, "b")]


@pytest.mark.parametrize("module", MODULES)
def test_modules_read_every_name_they_import(module):
    with open(os.path.join(SRC, module)) as fh:
        assert unused_imports(fh.read()) == []


def _defined(statement):
    """The names a module-level statement binds."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    targets = statement.targets if isinstance(statement, ast.Assign) else \
        [statement.target] if isinstance(statement, ast.AnnAssign) else []
    return [node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)]


def unread_private_names(sources: dict) -> list:
    """(module, name) of each module-level _name defined in sources, {module:
    source}, that no statement but its own definition reads, as a name, an
    attribute or an import."""
    defined, read = [], {}
    for module, source in sources.items():
        tree = ast.parse(source)
        for statement in tree.body:
            names = set()
            for root in (statement, *_annotations(statement)):
                for node in ast.walk(root):
                    if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                        names.add(node.id)
                    elif isinstance(node, ast.Attribute):
                        names.add(node.attr)
                    elif isinstance(node, ast.ImportFrom):
                        names.update(alias.name for alias in node.names)
            for name in _defined(statement):
                if name.startswith("_") and not name.startswith("__"):
                    defined.append((module, name, statement))
            for name in names:
                read.setdefault(name, []).append(statement)
    return [(module, name) for module, name, statement in defined
            if all(s is statement for s in read.get(name, ()))]


def test_the_check_finds_an_unread_private_name():
    sources = {"a.py": "_A = 1\n_B = _A\ndef _f(n):\n    return _f(n - 1)\n",
               "b.py": "from .a import _B\nclass _C:\n    pass\nx: '_C'\n"}
    assert unread_private_names(sources) == [("a.py", "_f")]


def test_private_module_level_names_are_read():
    sources = {}
    for module in sorted(name for name in os.listdir(SRC) if name.endswith(".py")):
        with open(os.path.join(SRC, module)) as fh:
            sources[module] = fh.read()
    assert unread_private_names(sources) == []
