"""The package holds only code that a package path needs."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "expodom"

# the console script, and the simplex the tests use as the independent
# dual route
ALLOWED = {("cli", "entry"), ("simplex", "solve_max_leq")}


def _exported() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _referenced(modules: dict, skip: ast.AST) -> set[str]:
    """Names read by package code, outside the definition ``skip``."""
    names = set()
    for tree in modules.values():
        for top in tree.body:
            if top is skip:
                continue
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


def test_every_public_definition_is_exported_or_used():
    exported = _exported()
    modules = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "__init__"
    }
    unused = [
        (stem, node.name)
        for stem, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in exported
        and node.name not in _referenced(modules, node)
    ]
    assert sorted(set(unused) - ALLOWED) == []
