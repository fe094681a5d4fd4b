"""Source hygiene: every name a module of the package imports is used there,
every private definition is used in its module, and every public one is
named somewhere in the package or the benchmark."""

import ast
import collections
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "qgl")
BENCH = os.path.join(ROOT, "bench")


def _parse(path):
    with open(path, "r", encoding="utf-8") as fh:
        return ast.parse(fh.read(), path)


def _unused_imports(path):
    tree = _parse(path)
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


def _definitions(tree):
    """(qualified name, node) of the module's top-level functions and classes
    and of the methods of its classes."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    defs = [(node.name, node) for node in tree.body if isinstance(node, kinds)]
    return defs + [("%s.%s" % (cls.name, node.name), node) for _, cls in defs
                   if isinstance(cls, ast.ClassDef)
                   for node in cls.body if isinstance(node, kinds)]


def _unused_private_definitions(path):
    """Private functions, classes and methods (not dunders) of the module that
    nothing else in it names."""
    tree = _parse(path)
    everywhere = _references(tree)
    return sorted(
        "%s (line %d)" % (node.name, node.lineno) for _, node in _definitions(tree)
        if node.name.startswith("_") and not node.name.endswith("__")
        # uses inside its own body (recursion) do not count
        and everywhere[node.name] == _references(node)[node.name]
    )


@pytest.mark.parametrize("name", sorted(f for f in os.listdir(SRC) if f.endswith(".py")))
def test_every_private_definition_is_used(name):
    assert _unused_private_definitions(os.path.join(SRC, name)) == []


# Public definitions that nothing in the package or the benchmark names,
# each with the reason it stays.
UNREFERENCED_ALLOWED = {
    # the grading of an element, beside parity: the tests check products by it
    "pbwcore.Element.weight",
}


def _unreferenced_public_definitions():
    """Public functions, classes and methods of the package that no module of
    it names outside the definition's own body and no file of bench names."""
    trees = {f[:-3]: _parse(os.path.join(SRC, f))
             for f in sorted(os.listdir(SRC)) if f.endswith(".py")}
    everywhere, bench = collections.Counter(), collections.Counter()
    for tree in trees.values():
        everywhere.update(_references(tree))
    for f in os.listdir(BENCH):
        if f.endswith(".py"):
            bench.update(_references(_parse(os.path.join(BENCH, f))))
    return sorted(
        "%s.%s" % (mod, qual) for mod, tree in trees.items() for qual, node in _definitions(tree)
        if not node.name.startswith("_")
        and everywhere[node.name] == _references(node)[node.name] and not bench[node.name]
    )


def test_every_public_definition_is_used():
    # a definition that only tests call belongs beside those tests, in tests/;
    # an allowlist entry that something now names, or that is gone, is stale
    assert _unreferenced_public_definitions() == sorted(UNREFERENCED_ALLOWED)
