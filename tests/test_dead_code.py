"""Every module-level function and class of `btquot` is referenced somewhere
in the package outside its own definition, or listed in its module's
`__all__`: a definition nothing reaches is dead code.  A reference is a
name or an attribute read, or a name imported from another module."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "btquot"


def _exported(tree):
    """The names the module's `__all__` lists."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _references(node):
    """The names `node` reads, as names, attributes or imports."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(a.name for a in sub.names)
    return out


def unreferenced(sources):
    """(module, name) of each module-level def or class of the modules
    {module: source} that no other top-level statement of any module
    references and that its module does not export, sorted."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    refs = [(node, _references(node)) for tree in trees.values()
            for node in tree.body]
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    out = []
    for module, tree in trees.items():
        exported = _exported(tree)
        for node in tree.body:
            if not isinstance(node, kinds) or node.name in exported:
                continue
            if not any(node.name in names for other, names in refs
                       if other is not node):
                out.append((module, node.name))
    return sorted(out)


def test_the_check_sees_a_dead_definition():
    sources = {"a.py": "def f():\n    return f()\n\n"
                       "def g():\n    pass\n\n"
                       "class C:\n    pass\n\n"
                       "__all__ = ['g']\n",
               "b.py": "from .a import C\n\ndef h():\n    return x.h\n"}
    assert unreferenced(sources) == [("a.py", "f"), ("b.py", "h")]


def test_no_dead_definition():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unreferenced(sources) == []
