"""The package's public surface: every public name is read by the package or the benchmark."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _trees(paths):
    return [ast.parse(path.read_text(), filename=str(path)) for path in paths]


def _public_definitions(tree):
    """Public functions, methods and classes defined at module level or in a class body."""
    bodies = [tree.body] + [node.body for node in tree.body if isinstance(node, ast.ClassDef)]
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {node.name for body in bodies for node in body if isinstance(node, kinds) and not node.name.startswith("_")}


def _read_names(tree):
    """Names read by code: bare names and attributes; imports alone read nothing."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) or isinstance(node, ast.Attribute)
    }


def test_every_public_name_is_read_outside_the_tests():
    """A public function, method or class that only tests call belongs in ``tests/oracles.py``."""
    package = _trees(sorted((ROOT / "src" / "oscillab").glob("*.py")))
    readers = package + _trees(sorted((ROOT / "bench").glob("*.py")))
    defined = set().union(*map(_public_definitions, package))
    read = set().union(*map(_read_names, readers))
    assert sorted(defined - read) == []
