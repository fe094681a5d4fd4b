"""Source hygiene: every name a module of the package imports is used there."""

import ast
import collections
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "qgl")


def _unused_imports(path):
    with open(path, "r", encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted("%s (line %d)" % (name, line) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("name", sorted(f for f in os.listdir(SRC) if f.endswith(".py")))
def test_every_import_is_used(name):
    assert _unused_imports(os.path.join(SRC, name)) == []


def _references(tree):
    """How often each name occurs as a name, an attribute or a string."""
    refs = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs[node.value] += 1
    return refs


def _unused_private_definitions(path):
    """Private functions, classes and methods (not dunders) of the module that
    nothing else in it names."""
    with open(path, "r", encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    defs = [node for node in tree.body if isinstance(node, kinds)]
    defs += [node for cls in defs if isinstance(cls, ast.ClassDef)
             for node in cls.body if isinstance(node, kinds)]
    everywhere = _references(tree)
    return sorted(
        "%s (line %d)" % (node.name, node.lineno) for node in defs
        if node.name.startswith("_") and not node.name.endswith("__")
        # uses inside its own body (recursion) do not count
        and everywhere[node.name] == _references(node)[node.name]
    )


@pytest.mark.parametrize("name", sorted(f for f in os.listdir(SRC) if f.endswith(".py")))
def test_every_private_definition_is_used(name):
    assert _unused_private_definitions(os.path.join(SRC, name)) == []
