"""Every parameter with a default in `btquot` is set by some call in the
package, the demos or the benchmark: an option no caller sets is a
constant.

A call is matched to its functions by the callee's name: a name, an
attribute, or the class name for a class's `__init__`.  It sets a
parameter by keyword, or by position, counted after `self` or `cls`; a
starred argument sets every positional parameter from its place on, and
`**` every parameter.  A keyword passed to a call that names no package
function sets every parameter of that name, as a dispatch through a
table does (`selftest.run_all` calls its checks as `fn(fast=fast)`).
An argument of a package function that is one of its own parameters with
a default, passed on unchanged, sets the callee's parameter only where a
caller sets the one passed on."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "btquot"
OTHERS = [ROOT / "demos", ROOT / "perfbench"]

# (function, parameter) kept as options whether or not a caller sets them
ALLOWED = {
    ("split_counts", "pic"): "the Picard input the formulas docstring "
                             "promises for general base curves",
    ("classifying_cusp_count", "pic"): "the same Picard input; the "
                                       "formula demo passes it",
    ("main", "argv"): "the tests drive the command line through main(argv)",
}


def _scan(tree):
    """The functions of `tree`, as (key, positional parameters after self
    or cls, keyword-only parameters, parameters with a default), key the
    name or, for `__init__`, the class's name; and its calls, as (call,
    the (key, parameters with a default) of the innermost function around
    it, or None)."""
    functions, calls = [], []

    def walk(node, owner, enclosing):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                pos = [p.arg for p in (*a.posonlyargs, *a.args)]
                if owner and pos and pos[0] in ("self", "cls"):
                    pos = pos[1:]
                kwonly = [p.arg for p in a.kwonlyargs]
                defaulted = pos[len(pos) - len(a.defaults):] if a.defaults \
                    else []
                defaulted += [p for p, d in zip(kwonly, a.kw_defaults)
                              if d is not None]
                key = owner if child.name == "__init__" and owner \
                    else child.name
                functions.append((key, pos, kwonly, defaulted))
                walk(child, None, (key, defaulted))
                continue
            if isinstance(child, ast.Call):
                calls.append((child, enclosing))
            walk(child, child.name if isinstance(child, ast.ClassDef)
                 else owner, enclosing)

    walk(tree, None, None)
    return functions, calls


def unset_options(package, others):
    """(function key, parameter) of each parameter with a default in the
    sources `package` that no call in them or in the sources `others`
    sets, sorted."""
    functions, calls = [], []
    for src in package:
        f, c = _scan(ast.parse(src))
        functions += f
        calls += c
    for src in others:
        calls += [(call, None) for call, _ in _scan(ast.parse(src))[1]]
    by_key = {}
    for key, pos, kwonly, _ in functions:
        by_key.setdefault(key, []).append((pos, kwonly))
    # (key, parameter) set, key "*" for every function; and
    # (target, source): the target is set if the source is
    direct, forwarded = set(), []

    def record(target, arg, enclosing):
        if (enclosing and isinstance(arg, ast.Name)
                and arg.id in enclosing[1]):
            forwarded.append((target, (enclosing[0], arg.id)))
        else:
            direct.add(target)

    for call, enclosing in calls:
        f = call.func
        name = f.id if isinstance(f, ast.Name) else \
            f.attr if isinstance(f, ast.Attribute) else None
        if name not in by_key:
            for k in call.keywords:
                if k.arg is not None:
                    record(("*", k.arg), k.value, enclosing)
            continue
        starred = next((i for i, x in enumerate(call.args)
                        if isinstance(x, ast.Starred)), None)
        for pos, kwonly in by_key[name]:
            if any(k.arg is None for k in call.keywords):
                direct.update((name, p) for p in pos + kwonly)
            if starred is not None:
                direct.update((name, p) for p in pos[starred:])
            for p, arg in zip(pos, call.args[:starred]):
                record((name, p), arg, enclosing)
            for k in call.keywords:
                if k.arg in pos or k.arg in kwonly:
                    record((name, k.arg), k.value, enclosing)

    def is_set(option):
        return option in direct or ("*", option[1]) in direct

    grew = True
    while grew:
        grew = False
        for target, source in forwarded:
            if is_set(source) and target not in direct:
                direct.add(target)
                grew = True
    return sorted({(key, p) for key, _, _, defaulted in functions
                   for p in defaulted if not is_set((key, p))})


def test_the_check_sees_an_unset_option():
    package = ("def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n"
               "class C:\n    def __init__(self, x, y=0, z=0):\n"
               "        pass\n    def m(self, u=1, v=2):\n"
               "        def inner(w=0):\n            pass\n"
               "        inner()\n        h(*u)\n"
               "def g(fast=False, slow=False):\n    pass\n"
               "def h(p=0, q=0):\n    pass\n"
               "def fmt(x, var='t'):\n    return fmt2(x, var)\n"
               "def fmt2(x, var='t'):\n    return x\n"
               "def run(fast=False, n=1):\n    fn(fast=fast)\n"
               "    fmt2(1, n)\n")
    others = ["f(1, 2, e=5)\nC(1, 2)\nobj.m(0)\nrun(fast=True)\n"]
    assert unset_options([package], others) == [
        ("C", "z"), ("f", "c"), ("f", "d"), ("fmt", "var"), ("fmt2", "var"),
        ("g", "slow"), ("inner", "w"), ("m", "v"), ("run", "n")]


def test_every_option_is_set_by_a_caller():
    package = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    others = [p.read_text() for d in OTHERS for p in sorted(d.glob("*.py"))]
    assert [option for option in unset_options(package, others)
            if option not in ALLOWED] == []
