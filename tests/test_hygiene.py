"""Source hygiene: every name a module of the package imports is used there."""

import ast
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
