"""Every name a module of `btquot` imports is used in it.  `__init__.py`,
which imports to re-export, is left out, and so are `__future__` imports;
a name listed in the module's `__all__` counts as used.  Importing the
package and its command line loads neither `dataclasses` nor `inspect`,
nor `fractions`, `decimal` or `numbers`."""

import ast
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "btquot"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """The names `source` imports and never reads, sorted."""
    tree = ast.parse(source)
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nfrom .m import a, b as c\nc()\n") == \
        ["a", "os"]
    assert unused_imports("from __future__ import annotations\n"
                          "import os.path\nos.sep\n") == []


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_import(name):
    assert unused_imports((SRC / name).read_text()) == []


def test_import_loads_no_dataclasses_or_inspect():
    """In a fresh interpreter, as pytest has loaded these modules; `-S`
    keeps out what the site's .pth files import.  The formulas count in
    ints, so `fractions` and the `decimal` and `numbers` it loads stay
    out too."""
    code = ("import sys; sys.path.insert(0, %r); import btquot, btquot.cli; "
            "print(sorted({'dataclasses', 'inspect', 'fractions', 'decimal', "
            "'numbers'} & set(sys.modules)))" % str(SRC.parent))
    out = subprocess.run([sys.executable, "-S", "-c", code],
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
