"""The library holds only code the program runs: every function, class and
method defined in src/vkalex is referred to by name somewhere in the
library or the benchmark.  Code that only the tests reach lives in
tests/_util.py."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "vkalex"


def _modules():
    """src/vkalex without the package's re-exports, and the benchmark,
    which patches some names through strings."""
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    return paths + sorted((ROOT / "bench").glob("*.py"))


def _definitions(tree):
    """Names of the non-dunder functions, classes and methods defined at
    module level or in a class body."""
    out = set()
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                out.add(node.name)
            if isinstance(node, ast.ClassDef):
                todo.extend(node.body)
    return out


def _references(tree):
    """Every Name, Attribute and identifier-like string constant."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            out.add(node.value)
    return out


def test_every_library_definition_is_used():
    defined = {}
    used = set()
    for path in _modules():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used |= _references(tree)
        if path.parent == SRC:
            for name in _definitions(tree):
                defined.setdefault(name, path.name)
    unused = sorted("%s: %s" % (defined[n], n) for n in defined if n not in used)
    assert not unused, "defined in src/vkalex, used only outside it: %s" % unused
