"""Checks of the package source, and of the README against the package."""

import ast
import re
from pathlib import Path
from types import SimpleNamespace

import fractal_renorm
from fractal_renorm import cli, relations

SRC = Path(__file__).resolve().parent.parent / "src" / "fractal_renorm"
README = SRC.parent.parent / "README.md"


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


def public_definitions(source: str) -> dict[str, int]:
    """Module-level public functions, classes and aliases (a name bound
    to another name) a module defines, with their lines."""
    found = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Name):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            continue
        found.update((name, node.lineno) for name in targets
                     if not name.startswith("_"))
    return found


def names_read_from(source: str, own: bool) -> set[str]:
    """Names a module can read of a module-level definition: attributes
    and imported names, and, in the defining module itself (own), loaded
    names."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
        elif own and isinstance(node, ast.Name) \
                and isinstance(node.ctx, ast.Load):
            read.add(node.id)
    return read


def init_only_public_names(sources: dict[str, str]) -> list[str]:
    """Module-level public names that no module but __init__ reads."""
    found = []
    for module, source in sources.items():
        read = set().union(*(names_read_from(other, other_module == module)
                             for other_module, other in sources.items()
                             if other_module != "__init__.py"))
        found += [f"{module}: {name} (line {line})"
                  for name, line in public_definitions(source).items()
                  if name not in read]
    return found


def test_init_only_public_names_are_found():
    sources = {"a.py": ("def f():\n    return g()\ndef g():\n    pass\n"
                        "def h():\n    pass\nclass C:\n    pass\n"
                        "alias = h\nLIMIT = 3\n"),
               "b.py": "from a import C\ndef run(x):\n    return x.h\n",
               "__init__.py": "from a import f, alias\nfrom b import run\n"}
    assert init_only_public_names(sources) == [
        "a.py: f (line 1)", "a.py: alias (line 9)", "b.py: run (line 2)"]


def test_no_public_name_only_init_reads():
    # a public function the package no longer calls must go, not linger
    # as an export for the tests
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))}
    assert init_only_public_names(sources) == []


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


def linalg_calls(source: str, name: str) -> list[int]:
    """Lines of the calls in source of a function name from a linalg
    module, as np.linalg.name(...) or as a name imported from it."""
    tree = ast.parse(source)
    imported = {alias.asname or alias.name
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and (node.module or "").endswith("linalg")
                for alias in node.names if alias.name == name}
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and (
                      isinstance(node.func, ast.Attribute)
                      and node.func.attr == name
                      and isinstance(node.func.value, ast.Attribute)
                      and node.func.value.attr == "linalg"
                      or isinstance(node.func, ast.Name)
                      and node.func.id in imported))


def test_linalg_calls_are_found():
    source = ("import numpy as np\nfrom numpy.linalg import inv as i\n"
              "np.linalg.inv(a)\nnp.linalg.pinv(a)\nx.inv(a)\ni(a)\n"
              "inv(a)\n")
    assert linalg_calls(source, "inv") == [3, 6]


def test_no_inverse_in_source():
    # a trace or a resistance is a solve: no module inverts a matrix or
    # takes a pseudo-inverse
    found = {f"{path.name}: {name}": lines
             for path in sorted(SRC.glob("*.py"))
             for name in ("inv", "pinv")
             if (lines := linalg_calls(path.read_text(encoding="utf-8"),
                                       name))}
    assert found == {}


def calls_outside(source: str, names: set[str], owner: str) -> list[str]:
    """Calls of the given names, as name(...) or x.name(...), anywhere in
    source but inside the module-level function owner, in line order."""
    tree = ast.parse(source)
    inside = {id(node) for top in tree.body
              if isinstance(top, ast.FunctionDef) and top.name == owner
              for node in ast.walk(top)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and id(node) not in inside:
            func = node.func
            name = func.id if isinstance(func, ast.Name) \
                else getattr(func, "attr", None)
            if name in names:
                found.append((node.lineno, node.col_offset, name))
    return [f"{name} (line {line})" for line, _, name in sorted(found)]


def test_calls_outside_are_found():
    source = ("def subject(k):\n    return build(k)\n"
              "def other(k):\n    return build(k) + m.build(k) + keep(k)\n"
              "build(1)\n")
    assert calls_outside(source, {"build"}, "subject") == [
        "build (line 4)", "build (line 4)", "build (line 5)"]


def test_only_subject_builds_a_subject():
    # what a report kind computes on is built in one place, so a run and
    # a validate build it once
    builders = {"build_structure", "cell_graph", "build_gd_structure"}
    found = {name: calls_outside((SRC / name).read_text(encoding="utf-8"),
                                 builders, "subject")
             for name in ("reports.py", "cli.py")}
    assert found == {"reports.py": [], "cli.py": []}


def imports_of(source: str, module: str) -> list[int]:
    """Lines of the imports in a package module's source that import the
    sibling module, relatively or by the package's name."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name.split(".") for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module.split(".") if node.module else []
            names = [base + [alias.name] for alias in node.names]
        else:
            continue
        if any(module in parts[:2] for parts in names):
            lines.append(node.lineno)
    return lines


def test_imports_of_are_found():
    source = ("from .cli import main\nfrom . import cli\n"
              "import fractal_renorm.cli\nfrom fractal_renorm import cli\n"
              "from .reports import cli_rows\nimport click\n")
    assert imports_of(source, "cli") == [1, 2, 3, 4]


def test_only_the_entry_points_import_cli():
    # the command line sits on top of the library: a module it imports
    # that imports it back makes a cycle
    found = {path.name: imports_of(path.read_text(encoding="utf-8"), "cli")
             for path in sorted(SRC.glob("*.py"))}
    assert {name for name, lines in found.items() if lines} == \
        {"__init__.py", "__main__.py"}


def readme_block(heading: str) -> str:
    """The first python code block under a level-2 README heading."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index(f"\n## {heading}\n"):]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_readme_library_use_runs(capsys):
    exec(compile(readme_block("Library use"), "README.md", "exec"), {})
    assert "criteria_hold_exists_unique" in capsys.readouterr().out


def unresolved_calls(text: str, package) -> list[str]:
    """Backticked calls `name(` or `A.b(` in text that are not attributes
    of package."""
    missing = []
    for name in re.findall(r"`([A-Za-z_][\w.]*)\(", text):
        target = package
        for part in name.split("."):
            target = getattr(target, part, None)
        if target is None:
            missing.append(name)
    return missing


def test_unresolved_calls_are_found():
    package = SimpleNamespace(f=len, A=SimpleNamespace(b=len))
    text = "`f(x)`, `A.b(y)`, `A.c(z)`, `g(1)`, `f` and f(x)"
    assert unresolved_calls(text, package) == ["A.c", "g"]


def test_readme_calls_resolve():
    # a call the README names must be one the package has
    text = README.read_text(encoding="utf-8")
    assert unresolved_calls(text, fractal_renorm) == []


def test_readme_cap_default_is_the_package_one():
    # the README states the default cap that the search and the parser use
    stated = re.findall(r"`--cap` \(default (\d+)\)",
                        README.read_text(encoding="utf-8"))
    args = cli.build_parser().parse_args(
        ["relations", "--n", "2", "--m", "1", "--theta", "1/12"])
    assert [int(cap) for cap in stated] == [relations.DEFAULT_ENUM_CAP] \
        == [args.cap]
