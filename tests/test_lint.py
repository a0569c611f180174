"""Static checks on the package source (there is no linter in the toolchain)."""

import ast
from pathlib import Path

import pytest

import tatebv

MODULES = sorted(p for p in Path(tatebv.__file__).parent.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "annotations":  # from __future__ import annotations
                    imported[name] = node.lineno
    unused = sorted(f"{name} (line {line})" for name, line in imported.items()
                    if name not in used)
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_every_definition_is_used_in_the_package():
    """No public API that only tests call: every function, class and method
    defined in the package, dunders aside, is referenced by name or by
    attribute somewhere in the package's own source."""
    trees = [ast.parse(p.read_text()) for p in Path(tatebv.__file__).parent.glob("*.py")]
    defined, used = set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = sorted(n for n in defined - used if not (n.startswith("__") and n.endswith("__")))
    assert not unused, f"defined but never referenced in the package: {', '.join(unused)}"
