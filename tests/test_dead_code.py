"""`src/` holds no code that only tests use.

An AST scan of the package: every function, class and method it defines
must be referenced somewhere in the package outside its own definition,
as a name or an attribute.  An import alone is not a reference, so a
definition that only tests call, or that a module imports and never uses,
fails the scan.  Dunder methods are called by the language and are left out.

A second scan fails on any import, at module or function level, whose
bound name its module never reads.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import a2l2

# definitions the package reaches only from outside it, as "module.name"
ENTRY_POINTS: frozenset[str] = frozenset()

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def referenced_names(tree: ast.AST) -> Counter:
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def unreferenced_definitions(package: Path) -> list[str]:
    trees = {path.stem: ast.parse(path.read_text()) for path in package.glob("*.py")}
    everywhere = sum((referenced_names(tree) for tree in trees.values()), Counter())
    unused = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, DEFINITIONS):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            # a recursive call is inside the definition and does not count
            if everywhere[name] - referenced_names(node)[name] == 0:
                unused.append(f"{module}.{name}")
    return unused


def unused_imports(package: Path) -> list[str]:
    """"module.name" for every name an import of the package binds and its
    module never reads; `from __future__` imports bind nothing."""
    unused = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                # `import a.b` binds `a`
                bound = alias.asname or alias.name.partition(".")[0]
                if bound not in read:
                    unused.append(f"{path.stem}.{bound}")
    return unused


def test_every_definition_in_src_has_a_reference_in_src():
    package = Path(a2l2.__file__).parent
    unused = set(unreferenced_definitions(package)) - ENTRY_POINTS
    assert not unused, sorted(unused)


def test_scan_finds_a_definition_that_only_tests_call(tmp_path):
    (tmp_path / "stage.py").write_text(
        "def used(l):\n    return l\n\n\n"
        "def tested_only(l):\n    return tested_only(l - 1) if l else used(l)\n"
    )
    (tmp_path / "checks.py").write_text(
        "from .stage import tested_only, used\n\n\nprint(used(1))\n"
    )
    assert unreferenced_definitions(tmp_path) == ["stage.tested_only"]


def test_every_import_in_src_is_read():
    assert not unused_imports(Path(a2l2.__file__).parent)


def test_scan_finds_an_import_that_its_module_never_reads(tmp_path):
    (tmp_path / "stage.py").write_text(
        "from __future__ import annotations\n\n"
        "import os.path\n"
        "from .liealg import bracket, split_basis as layout\n\n\n"
        "def used(l):\n    import json\n    from math import gcd\n"
        "    return bracket(l, gcd(l, 2))\n"
    )
    assert unused_imports(tmp_path) == ["stage.os", "stage.layout", "stage.json"]
