"""The library holds only code the program runs: every function, class and
method defined in src/vkalex is referred to by name somewhere in the
library or the benchmark, every parameter default is overridden there, and
every attribute a class stores on self is read there.  Code that only the
tests reach lives in tests/_util.py."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "vkalex"


def _modules():
    """src/vkalex without the package's re-exports, and the benchmark."""
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


def _patched_names():
    """The attribute names the tracer patches through strings: the third
    item of each tuple bench/tracing.py's _patch_points returns.  No other
    string counts as a use, since in the library or the rest of the
    benchmark such a string is a message or a key."""
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text(
        encoding="utf-8"))
    func = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef)
                and node.name == "_patch_points")
    return {item.elts[2].value for node in ast.walk(func)
            if isinstance(node, ast.Return)
            for item in node.value.elts if isinstance(item, ast.Tuple)}


def _references(tree):
    """Every Name and Attribute."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def test_every_library_definition_is_used():
    defined = {}
    used = _patched_names()
    for path in _modules():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used |= _references(tree)
        if path.parent == SRC:
            for name in _definitions(tree):
                defined.setdefault(name, path.name)
    unused = sorted("%s: %s" % (defined[n], n) for n in defined if n not in used)
    assert not unused, "defined in src/vkalex, used only outside it: %s" % unused


def _defaulted_parameters(tree):
    """(called name, parameter, position) of each parameter with a default:
    the name a call uses is the class's for an __init__, and position is
    the number of positional arguments that reach the parameter, self and
    cls not counted, or None for a keyword-only one."""
    methods = {id(f): c.name for c in ast.walk(tree)
               if isinstance(c, ast.ClassDef) for f in c.body}
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = a.posonlyargs + a.args
        name = node.name
        if id(node) in methods:
            if not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                       for d in node.decorator_list):
                params = params[1:]
            if name == "__init__":
                name = methods[id(node)]
        for pos in range(len(params) - len(a.defaults), len(params)):
            out.append((name, params[pos].arg, pos))
        out += [(name, p.arg, None)
                for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return out


def _calls(tree):
    """(called name, positional count, keyword names) of each call whose
    callee is a name or an attribute; a name bound by `from ... import x
    as y` counts as x.  A *args makes the count unbounded, a **kwargs
    stands for every keyword."""
    aliases = {a.asname: a.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               for a in node.names if a.asname}
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
        if name is None:
            continue
        count = (float("inf") if any(isinstance(x, ast.Starred)
                                     for x in node.args) else len(node.args))
        keywords = {k.arg for k in node.keywords}
        out.append((aliases.get(name, name), count, keywords))
    return out


def test_every_library_default_is_overridden():
    """A parameter with a default that no call in the library or the
    benchmark sets is a knob only the tests turn: the library has one rule
    for it, and the tests build any other one from that rule."""
    params = []
    calls = []
    for path in _modules():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls += _calls(tree)
        if path.parent == SRC:
            params += [(path.name,) + p for p in _defaulted_parameters(tree)]
    unset = sorted(
        "%s: %s(%s=...)" % (module, name, param)
        for module, name, param, pos in params
        if not any(callee == name and (param in keywords or None in keywords
                                       or (pos is not None and count > pos))
                   for callee, count, keywords in calls))
    assert not unset, "defaults no library or bench call overrides: %s" % unset


def _stored_attributes(tree):
    """Attribute names assigned on self, tuple targets included."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name) and node.value.id == "self"}


def _read_attributes(tree):
    """Every attribute name loaded."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_stored_attribute_is_read():
    """A value a library class keeps on self that neither the library nor
    the benchmark reads back is kept for the tests alone."""
    stored = {}
    read = _patched_names()
    for path in _modules():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read |= _read_attributes(tree)
        if path.parent == SRC:
            for name in _stored_attributes(tree):
                stored.setdefault(name, path.name)
    unread = sorted("%s: %s" % (stored[n], n) for n in stored if n not in read)
    assert not unread, "stored on self in src/vkalex, never read: %s" % unread
