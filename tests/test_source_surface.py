"""The library holds no API that only tests use: every public top-level
name defined in src/blowup_lab is referenced somewhere in src/ besides
its own definition (a use, an attribute access or an import); and every
default, of a parameter of its functions and methods or of a field of
its frozen dataclasses, is passed by some call in src/ or perfbench/
and left out by another.  A default that no call passes is a setting
nothing uses; one that every call overrides is one only tests rely on.
Calls are matched to what they call by name.  Nor does any module in
src/blowup_lab or tests/ import a name it never reads, or bind a local
name (one not starting with _) that its function never reads."""

import ast
import math
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "blowup_lab"
TESTS = SRC.parent.parent / "tests"
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def public_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from (name for name in names if not name.startswith("_"))


def references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_public_name_is_used_in_the_library():
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    used = {name for tree in trees.values() for name in references(tree)}
    unused = [f"{module}: {name}" for module, tree in trees.items()
              for name in public_definitions(tree) if name not in used]
    assert not unused, ("public names that nothing in src/ uses: "
                        + ", ".join(unused))


def is_frozen_dataclass(node):
    return isinstance(node, ast.ClassDef) and any(
        isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
        and any(k.arg == "frozen" and getattr(k.value, "value", False)
                for k in d.keywords)
        for d in node.decorator_list)


def defaults(tree):
    """(callee, name, position) of each defaulted parameter of a
    top-level function or method and of each defaulted field of a frozen
    dataclass; a call reaches __init__ and the fields by the class name,
    and position counts positional arguments after self."""
    for node in tree.body:
        if is_frozen_dataclass(node):
            fields = [s for s in node.body if isinstance(s, ast.AnnAssign)
                      and isinstance(s.target, ast.Name)]
            yield from ((node.name, s.target.id, i)
                        for i, s in enumerate(fields) if s.value is not None)
        defs = [(node, node.name, 0)] if isinstance(node, ast.FunctionDef) \
            else [(fn, node.name if fn.name == "__init__" else fn.name, 1)
                  for fn in getattr(node, "body", [])
                  if isinstance(fn, ast.FunctionDef)]
        for fn, callee, skip in defs:
            first = len(fn.args.args) - len(fn.args.defaults)
            yield from ((callee, a.arg, i - skip)
                        for i, a in enumerate(fn.args.args) if i >= first)
            yield from ((callee, a.arg, math.inf) for a, d in
                        zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d)


def library_defaults():
    """(module, callee, name, [whether each call by that name passes
    it]) of each default in src/, over the calls in src/ and perfbench/;
    a call with *args or **kwargs passes everything."""
    trees = {path: ast.parse(path.read_text())
             for root in (SRC, SRC.parent.parent / "perfbench")
             for path in sorted(root.glob("*.py"))}
    calls = [(getattr(c.func, "id", None) or getattr(c.func, "attr", None),
              len(c.args), {k.arg for k in c.keywords},
              any(isinstance(a, ast.Starred) for a in c.args)
              or None in {k.arg for k in c.keywords})
             for tree in trees.values() for c in ast.walk(tree)
             if isinstance(c, ast.Call)]
    for path, tree in trees.items():
        if path.parent == SRC:
            for callee, name, pos in defaults(tree):
                yield path.name, callee, name, [
                    star or name in kws or n > pos
                    for called, n, kws, star in calls if called == callee]


def test_every_defaulted_parameter_is_passed_by_a_caller():
    unpassed = [f"{module}: {callee}({name})"
                for module, callee, name, passes in library_defaults()
                if not any(passes)]
    assert not unpassed, ("defaults that no call in src/ or perfbench/ "
                          "passes: " + ", ".join(unpassed))


def test_every_default_is_left_out_by_a_caller():
    overridden = [f"{module}: {callee}({name})"
                  for module, callee, name, passes in library_defaults()
                  if all(passes)]
    assert not overridden, ("defaults that every call in src/ and "
                            "perfbench/ overrides: " + ", ".join(overridden))


def reads(node):
    """The names read anywhere inside node."""
    return {n.id for n in ast.walk(node)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}


def unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name.split(".")[0], node.lineno)
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((a.asname or a.name, node.lineno)
                            for a in node.names)
    used = reads(tree)
    return [f"line {line}: import {name}"
            for name, line in imported.items() if name not in used]


def own_nodes(fn):
    """A function and the nodes of its own scope, without the functions
    and classes defined in it (their names are its)."""
    stack = [fn]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(child for child in ast.iter_child_nodes(node)
                     if not isinstance(child, SCOPES + (ast.ClassDef,)))


def unused_locals(tree):
    """The names each function binds and nothing in it (nested functions
    included) reads, but for names starting with _ and names declared
    global or nonlocal."""
    for fn in ast.walk(tree):
        if not isinstance(fn, SCOPES):
            continue
        bound, free = {}, set()
        for node in own_nodes(fn):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                bound.setdefault(node.id, node.lineno)
            elif isinstance(node, ast.ExceptHandler) and node.name:
                bound.setdefault(node.name, node.lineno)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                free.update(node.names)
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                    bound.setdefault(child.name, child.lineno)
        used = reads(fn) | free
        yield from (f"line {line}: local {name}" for name, line in
                    bound.items() if name not in used
                    and not name.startswith("_"))


def test_the_unused_name_checks_find_what_they_look_for():
    tree = ast.parse("import os, sys as system\n"
                     "from . import spectral\n"
                     "def f(x):\n"
                     "    a, _b = x\n"
                     "    y = a\n"
                     "    for i in x:\n"
                     "        pass\n"
                     "    def g():\n"
                     "        return system\n"
                     "    return lambda z: [w for w in z]\n")
    assert unused_imports(tree) == ["line 1: import os",
                                    "line 2: import spectral"]
    assert sorted(unused_locals(tree)) == [
        "line 5: local y", "line 6: local i", "line 8: local g"]


def test_no_unused_import_or_local_in_src_or_tests():
    found = [f"{path.parent.name}/{path.name}, {item}"
             for root in (SRC, TESTS) for path in sorted(root.glob("*.py"))
             for tree in [ast.parse(path.read_text())]
             for item in (*unused_imports(tree), *unused_locals(tree))]
    assert not found, "names bound and never read: " + "; ".join(found)
