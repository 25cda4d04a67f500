"""Every parameter of every function and lambda of `btquot` is read in its
body.  `self`, `cls` and names that start with `_` are left out."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "btquot"
MODULES = sorted(p.name for p in SRC.glob("*.py"))


def unused_parameters(source):
    """(function name, parameter) for each parameter `source` never reads,
    in source order."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, *filter(None, [a.vararg]),
                  *a.kwonlyargs, *filter(None, [a.kwarg])]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out.extend((getattr(node, "name", "<lambda>"), p.arg) for p in params
                   if p.arg not in read and p.arg not in ("self", "cls")
                   and not p.arg.startswith("_"))
    return out


def test_the_check_sees_an_unused_parameter():
    assert unused_parameters(
        "def f(a, b, *c, d, _e, **g):\n    return a + g\n"
        "class C:\n    def m(self, x):\n        def inner():\n"
        "            return x\n        return inner\n"
        "h = lambda u, v: u\n") == [
        ("f", "b"), ("f", "c"), ("f", "d"), ("<lambda>", "v")]


@pytest.mark.parametrize("name", MODULES)
def test_every_parameter_is_read(name):
    assert unused_parameters((SRC / name).read_text()) == []
