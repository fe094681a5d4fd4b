"""Source hygiene: every name a module of the package imports is used there,
and ``src/qgl`` is what a command reaches.

The reach rule replays the argv corpus of record (``argv_corpus.json``) once
under tracing, in a fresh interpreter.  Every function and method of the
package, nested ones included, must be entered by some corpus argv, be a
protocol dunder, or be listed in ``REACH_ALLOWED`` with its reason.  What
only tests use belongs beside those tests, in ``tests/``.
"""

import ast
import functools
import os

import pytest

import argv_corpus

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "qgl")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))


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


@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_used(name):
    assert _unused_imports(os.path.join(SRC, name)) == []


# Python calls these for an operator, a comparison, a hash, a repr or an
# attribute write, not by name, so a value type keeps its whole protocol
# whether or not a command needs each part of it.
PROTOCOL_DUNDERS = {
    "__init__", "__setattr__", "__repr__", "__eq__", "__hash__", "__bool__",
    "__add__", "__sub__", "__mul__", "__truediv__", "__neg__", "__pow__",
    "__radd__", "__rsub__", "__rmul__", "__rtruediv__",
}

# Definitions no corpus argv enters, each with the reason it stays.  The
# benchmark's entries wait on the stats module of ROADMAP item 12, whose
# --stats argvs would reach them.
REACH_ALLOWED = {
    "cli.main": "the console script; the corpus calls cli.run in process",
    "hopf.TensorElement.one": "bench/workloads.py: the delta oracle's unit",
    "linalg.in_span": "bench/tracer.py wraps it by name",
    "linalg.nullspace": "bench/tracer.py wraps it by name",
    "pbwcore.Algebra.expand_monomial": "bench/tracer.py wraps it by name",
    "pbwcore.PBWMonomial.key": "bench/workloads.py: the delta oracle's keys",
    "repmod.kac_module": "bench/tracer.py wraps it by name",
    "repmod.quotient_module": "bench/tracer.py wraps it by name",
    "repmod.singular_vectors": "bench/tracer.py wraps it by name",
    "repmod.tensor_module": "bench/tracer.py wraps it by name",
    "repmod._factor_columns": "called only by repmod.tensor_module",
    "scalars.RatFunc.coeffs": "bench/workloads.py: the specialize oracle's coefficients",
}


def _functions():
    """(qualified name, "src/qgl/<file>:<first line>", enclosing function's
    qualified name or None) of every function and method of the package.
    The first line of a decorated function is its first decorator's, as in
    its code object."""
    out = []

    def walk(node, mod, prefix, outer):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = prefix + child.name
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                out.append((qual, "src/qgl/%s.py:%d" % (mod, first), outer))
                walk(child, mod, qual + ".", qual)
            elif isinstance(child, ast.ClassDef):
                walk(child, mod, prefix + child.name + ".", outer)
            else:
                walk(child, mod, prefix, outer)

    for f in MODULES:
        walk(_parse(os.path.join(SRC, f)), f[:-3], f[:-3] + ".", None)
    return out


@functools.lru_cache(maxsize=None)
def _unreached():
    """Qualified names of the definitions no corpus argv enters, less the
    protocol dunders and the functions nested in an unreached one (they
    count with it)."""
    entered = set(argv_corpus.traced_pass()["entered"])
    unreached = {qual: outer for qual, loc, outer in _functions() if loc not in entered}
    return sorted(qual for qual, outer in unreached.items()
                  if outer not in unreached and qual.rsplit(".", 1)[1] not in PROTOCOL_DUNDERS)


@pytest.mark.parametrize("name", MODULES)
def test_every_definition_is_reached(name):
    prefix = name[:-3] + "."
    assert [q for q in _unreached() if q.startswith(prefix) and q not in REACH_ALLOWED] == []


def test_every_reach_allowance_is_needed():
    # an entry that a corpus argv now reaches, or that is gone, is stale
    assert sorted(q for q in REACH_ALLOWED if q not in _unreached()) == []
