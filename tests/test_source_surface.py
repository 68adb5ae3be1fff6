"""The library holds no API that only tests use: every public top-level
name defined in src/blowup_lab is referenced somewhere in src/ besides
its own definition (a use, an attribute access or an import), and every
defaulted parameter of its functions and methods is passed by some call
in src/ or perfbench/."""

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


def defaulted_parameters(tree):
    """(callee, parameter, position) of each defaulted parameter of a
    top-level function or method; a call reaches __init__ by the class
    name, and position counts positional arguments after self."""
    for node in tree.body:
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


def test_every_defaulted_parameter_is_passed_by_a_caller():
    trees = {path: ast.parse(path.read_text())
             for root in (SRC, SRC.parent.parent / "perfbench")
             for path in sorted(root.glob("*.py"))}
    # (callee, positional count, keywords) of each call; *args or
    # **kwargs pass everything
    calls = [(getattr(c.func, "id", None) or getattr(c.func, "attr", None),
              len(c.args), {k.arg for k in c.keywords},
              any(isinstance(a, ast.Starred) for a in c.args)
              or None in {k.arg for k in c.keywords})
             for tree in trees.values() for c in ast.walk(tree)
             if isinstance(c, ast.Call)]
    unpassed = [f"{path.name}: {callee}({param})"
                for path, tree in trees.items() if path.parent == SRC
                for callee, param, pos in defaulted_parameters(tree)
                if not any(name == callee and (star or param in kws or n > pos)
                           for name, n, kws, star in calls)]
    assert not unpassed, ("defaulted parameters that no call in src/ or "
                          "perfbench/ passes: " + ", ".join(unpassed))
