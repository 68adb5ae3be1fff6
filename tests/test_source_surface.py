"""The library holds no API that only tests use: every public top-level
name defined in src/blowup_lab is referenced somewhere in src/ besides
its own definition (a use, an attribute access or an import); and every
default, of a parameter of its functions and methods or of a field of
its frozen dataclasses, is passed by some call in src/ or perfbench/
and left out by another.  A default that no call passes is a setting
nothing uses; one that every call overrides is one only tests rely on.
Nor does every call pass a parameter, defaulted or not, the same
constant (a literal, or a name bound at the top level of a module):
that is a constant of the callee that only tests vary.  Calls are
matched to what they call by name.  Nor does any module in
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


def parameters(tree):
    """(callee, name, position, defaulted) of each parameter of a
    top-level function or method and of each field of a frozen
    dataclass; a call reaches __init__ and the fields by the class name,
    and position counts positional arguments after self (keyword-only
    ones have none)."""
    for node in tree.body:
        if is_frozen_dataclass(node):
            fields = [s for s in node.body if isinstance(s, ast.AnnAssign)
                      and isinstance(s.target, ast.Name)]
            yield from ((node.name, s.target.id, i, s.value is not None)
                        for i, s in enumerate(fields))
        defs = [(node, node.name, 0)] if isinstance(node, ast.FunctionDef) \
            else [(fn, node.name if fn.name == "__init__" else fn.name, 1)
                  for fn in getattr(node, "body", [])
                  if isinstance(fn, ast.FunctionDef)]
        for fn, callee, skip in defs:
            first = len(fn.args.args) - len(fn.args.defaults)
            yield from ((callee, a.arg, i - skip, i >= first)
                        for i, a in enumerate(fn.args.args) if i >= skip)
            yield from ((callee, a.arg, math.inf, d is not None) for a, d in
                        zip(fn.args.kwonlyargs, fn.args.kw_defaults))


def module_constants(tree):
    """The names an assignment binds at the top level of a module."""
    return {t.id for node in tree.body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for t in getattr(node, "targets", [getattr(node, "target", None)])
            if isinstance(t, ast.Name)}


def argument(call, name, pos):
    """What a call passes for a parameter: its expression, None when it
    leaves it out, or ... when *args or **kwargs may pass it."""
    for k in call.keywords:
        if k.arg == name:
            return k.value
    if any(isinstance(a, ast.Starred) for a in call.args) \
            or any(k.arg is None for k in call.keywords):
        return ...
    return call.args[pos] if pos < len(call.args) else None


def constant(expr, constants):
    """expr as source text when it is a literal or reads a name in
    constants (by itself or as a module's attribute), else None."""
    try:
        ast.literal_eval(expr)
        return ast.unparse(expr)
    except (ValueError, TypeError):
        pass
    if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
        expr = ast.Name(expr.attr)
    if isinstance(expr, ast.Name) and expr.id in constants:
        return expr.id
    return None


def parameter_uses(defined, calling):
    """(module, callee, name, defaulted, [what each call by that name
    passes: an expression, None or ...]) of each parameter of the
    modules in defined (name -> tree), over the calls in calling, and
    the names bound at the top level of each of those modules."""
    calls = [(getattr(c.func, "id", None) or getattr(c.func, "attr", None),
              c) for tree in calling.values() for c in ast.walk(tree)
             if isinstance(c, ast.Call)]
    constants = set().union(*map(module_constants, calling.values()))
    uses = [(module, callee, name, defaulted,
             [argument(c, name, pos) for called, c in calls
              if called == callee])
            for module, tree in defined.items()
            for callee, name, pos, defaulted in parameters(tree)]
    return uses, constants


def library_uses():
    """parameter_uses of src/ over the calls in src/ and perfbench/."""
    trees = {path: ast.parse(path.read_text())
             for root in (SRC, SRC.parent.parent / "perfbench")
             for path in sorted(root.glob("*.py"))}
    return parameter_uses({path.name: tree for path, tree in trees.items()
                           if path.parent == SRC}, trees)


def library_defaults():
    """(module, callee, name, [whether each call by that name passes
    it]) of each default in src/, over the calls in src/ and perfbench/;
    a call with *args or **kwargs passes everything."""
    uses, _ = library_uses()
    for module, callee, name, defaulted, args in uses:
        if defaulted:
            yield module, callee, name, [a is not None for a in args]


def constant_parameters(uses, constants):
    """The parameters that calls pass, every one of them the same
    constant."""
    return [f"{module}: {callee}({name}) = {values.pop()}"
            for module, callee, name, _, args in uses
            for values in [{constant(a, constants) if isinstance(a, ast.AST)
                            else None for a in args}]
            if len(values) == 1 and None not in values]


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


def test_the_constant_parameter_check_finds_what_it_looks_for():
    # every call gives b and d, by position or keyword, one constant;
    # amplitude and negate come from a single call, as a seed amplitude
    # once did; by reads LIMIT plainly and as a module's attribute; a
    # method's n counts from after self.  Not flagged: a, which varies,
    # c and e, left out by a call, b of pad, which *rest may pass, and
    # what g and k are passed, variables
    tree = ast.parse("LIMIT = 3\n"
                     "_AMP: float = 1e-14\n"
                     "def f(a, b, c=1, *, d=2, e=None):\n"
                     "    return a\n"
                     "def noise(c, amplitude, rng_seed, negate=True):\n"
                     "    return c\n"
                     "def pad(a, b=0):\n"
                     "    return a\n"
                     "def scale(v, by):\n"
                     "    return v\n"
                     "class Box:\n"
                     "    def fill(self, n, f=None):\n"
                     "        return n\n"
                     "def g(x, box, *rest):\n"
                     "    f(x, LIMIT, d=-1.0)\n"
                     "    f(x + 1, LIMIT, 2, d=-1.0, e=rest)\n"
                     "    pad(1, 2)\n"
                     "    pad(*rest)\n"
                     "    scale(x, mod.LIMIT)\n"
                     "    scale(1, LIMIT)\n"
                     "    box.fill(3)\n"
                     "    box.fill(3, f=x)\n"
                     "    return noise(x, _AMP, rest, negate=False)\n"
                     "def k(y):\n"
                     "    return g(y, y)\n")
    uses, constants = parameter_uses({"planted.py": tree},
                                     {"planted.py": tree})
    assert constants == {"LIMIT", "_AMP"}
    assert constant_parameters(uses, constants) == [
        "planted.py: f(b) = LIMIT", "planted.py: f(d) = -1.0",
        "planted.py: noise(amplitude) = _AMP",
        "planted.py: noise(negate) = False", "planted.py: scale(by) = LIMIT",
        "planted.py: fill(n) = 3"]


def test_no_parameter_is_passed_one_constant_by_every_call():
    found = constant_parameters(*library_uses())
    assert not found, ("parameters that every call in src/ and perfbench/ "
                       "passes the same constant: " + ", ".join(found))


def functions(tree):
    """The names of a module's top-level functions and of its classes'
    methods."""
    for node in tree.body:
        body = node.body if isinstance(node, ast.ClassDef) else [node]
        yield from (fn.name for fn in body if isinstance(fn, ast.FunctionDef))


def discarded_results(defined, calling):
    """The positions of the results of the functions of the modules in
    defined (name -> tree) that every call in calling, matched by name,
    unpacks into a tuple with _ at that position; a call that keeps its
    result whole, or unpacks it with a starred name, reads every
    position."""
    unpacked = {node.value: [isinstance(e, ast.Name) and e.id == "_"
                             for e in node.targets[0].elts]
                for tree in calling.values() for node in ast.walk(tree)
                if isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Tuple)
                and not any(isinstance(e, ast.Starred)
                            for e in node.targets[0].elts)}
    calls = [(getattr(c.func, "id", None) or getattr(c.func, "attr", None),
              c) for tree in calling.values() for c in ast.walk(tree)
             if isinstance(c, ast.Call)]
    for module, tree in defined.items():
        for callee in functions(tree):
            shapes = [unpacked.get(c) for called, c in calls
                      if called == callee]
            if shapes and None not in shapes:
                yield from (f"{module}: {callee}[{pos}]"
                            for pos, dropped in enumerate(zip(*shapes))
                            if all(dropped))


def test_the_discarded_result_check_finds_what_it_looks_for():
    # pair's second value and triple's first are dropped by every call,
    # as is split's first, a method's; not flagged: triple's last, which
    # one call reads, once, whose result one call keeps whole, and rest,
    # which one call unpacks with a starred name
    tree = ast.parse("def pair(x):\n"
                     "    return x, 1\n"
                     "def triple(x):\n"
                     "    return x, 2, 3\n"
                     "def once(x):\n"
                     "    return x, x\n"
                     "def rest(x):\n"
                     "    return x, x, x\n"
                     "class Box:\n"
                     "    def split(self):\n"
                     "        return 1, 2\n"
                     "def use(x, box):\n"
                     "    a, _ = pair(x)\n"
                     "    b, _ = pair(a)\n"
                     "    _, c, _ = triple(b)\n"
                     "    _, d, e = triple(c)\n"
                     "    f, _ = once(x)\n"
                     "    g = once(f)\n"
                     "    h, _, _ = rest(x)\n"
                     "    i, *_ = rest(h)\n"
                     "    _, j = box.split()\n"
                     "    return a, b, c, d, e, g, i, j\n")
    assert list(discarded_results({"planted.py": tree},
                                  {"planted.py": tree})) == [
        "planted.py: pair[1]", "planted.py: triple[0]",
        "planted.py: split[0]"]


def test_no_result_is_discarded_by_every_call():
    trees = {path: ast.parse(path.read_text())
             for root in (SRC, SRC.parent.parent / "perfbench")
             for path in sorted(root.glob("*.py"))}
    found = list(discarded_results(
        {path.name: tree for path, tree in trees.items()
         if path.parent == SRC}, trees))
    assert not found, ("results that every call in src/ and perfbench/ "
                       "discards: " + ", ".join(found))


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
