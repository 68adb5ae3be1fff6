"""The library holds no API that only tests use: every public top-level
name defined in src/blowup_lab is referenced somewhere in src/ besides
its own definition (a use, an attribute access or an import); and every
default, of a parameter of its functions and methods or of a field of
its frozen dataclasses, is passed by some call in src/ or perfbench/
and left out by another.  A default that no call passes is a setting
nothing uses; one that every call overrides is one only tests rely on.
Calls are matched to what they call by name."""

import ast
import math
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "blowup_lab"


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
