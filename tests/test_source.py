"""Static checks of the package source."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "fractal_renorm"


def unused_imports(source: str) -> list[str]:
    """Names bound by a module-level import that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items()
            if name not in used]


def test_unused_imports_are_found():
    source = "import os\nfrom typing import List, Sequence\nx: List = []\n"
    assert unused_imports(source) == ["os (line 1)", "Sequence (line 2)"]


def test_no_unused_module_imports():
    # __init__ imports to re-export
    found = {path.name: unused_imports(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))
             if path.name != "__init__.py"}
    assert {name: names for name, names in found.items() if names} == {}


def private_definitions(source: str) -> dict[str, int]:
    """Module-level private names a module defines, with their lines:
    functions, classes and assigned names starting with one underscore."""
    found = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            targets = [n.id for t in nodes for n in ast.walk(t)
                       if isinstance(n, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                found[name] = node.lineno
    return found


def read_names(source: str) -> set[str]:
    """Names a module reads: loaded names, attributes and imported names."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level private names that no module of sources reads."""
    read = set().union(*map(read_names, sources.values()))
    return [f"{module}: {name} (line {line})"
            for module, source in sources.items()
            for name, line in private_definitions(source).items()
            if name not in read]


def test_unread_private_names_are_found():
    sources = {"a.py": "_A = 1\n_B = 2\ndef _f():\n    return _A\n",
               "b.py": "from a import _f\nclass _C:\n    pass\n"}
    assert unread_private_names(sources) == [
        "a.py: _B (line 2)", "b.py: _C (line 2)"]


def test_no_private_name_only_tests_read():
    # a private helper the package no longer calls must go, not linger
    # for the tests
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))}
    assert unread_private_names(sources) == []


def constant_definitions(source: str) -> dict[str, int]:
    """Module-level UPPER_CASE names a module assigns, with their lines."""
    found = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for name in (n.id for t in nodes for n in ast.walk(t)
                         if isinstance(n, ast.Name)):
                if name.isupper():
                    found[name] = node.lineno
    return found


def loaded_names(source: str) -> set[str]:
    """Names a module's code reads: loaded names and attributes, not the
    names it imports."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}


def unread_constants(sources: dict[str, str]) -> list[str]:
    """Module-level constants that no module but __init__ reads."""
    read = set().union(*(loaded_names(source)
                         for module, source in sources.items()
                         if module != "__init__.py"))
    return [f"{module}: {name} (line {line})"
            for module, source in sources.items()
            for name, line in constant_definitions(source).items()
            if name not in read]


def test_unread_constants_are_found():
    sources = {"a.py": "A_TOL = 1\nB_TOL = 2\nC = 3\nx = C\n",
               "b.py": "from a import B_TOL\nimport a\ny = a.C\n",
               "__init__.py": "from a import A_TOL\nz = A_TOL\n"}
    assert unread_constants(sources) == ["a.py: A_TOL (line 1)",
                                         "a.py: B_TOL (line 2)"]


def test_every_constant_is_read():
    # a constant that only __init__ re-exports, or that only an import
    # names, is a leftover
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))}
    assert unread_constants(sources) == []
