"""The benchmark tracer rebinds package functions and methods by name; each
name it lists must still exist, or the traced benchmark run crashes."""

import ast
import importlib.util
import pathlib

import btquot

TRACING = pathlib.Path(__file__).parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist():
    tracing = _tracing()
    for home, names in tracing.TRACED.items():
        module = getattr(btquot, home)
        for name in names:
            assert callable(getattr(module, name, None)), (home, name)
    for home, cls_name, name in tracing.TRACED_METHODS:
        cls = getattr(getattr(btquot, home), cls_name)
        assert callable(vars(cls).get(name)), (home, cls_name, name)


def test_production_modules_do_not_bind_act():
    """The build, certification and presentation move no vertex: they
    reduce vertices and read neighbor labels off the residue matrix.  `act`
    stays in `btree` as the reference, so the traced `btree.act.calls`
    counts oracle calls only."""
    assert {"act", "canonicalize"} <= package_names()
    for module in (btquot.quotient, btquot.presentation):
        assert "act" not in vars(module), module.__name__
        assert "canonicalize" not in vars(module), module.__name__


def package_names():
    """Every name that a source file of `btquot` defines, binds or reads,
    so that a check can tell that a name it forbids still exists."""
    src = pathlib.Path(btquot.__file__).parent
    return {name for path in src.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            for name in [getattr(node, "name", None),
                         getattr(node, "attr", None),
                         getattr(node, "id", None)] if name}


def test_only_hecke_reads_and_builds_stabilizer_descriptors():
    """A descriptor's form is known to `hecke` alone: the quotient and the
    presentation reach the neighbor rules through `fixed_labels` and
    `edge_group`, so they bind none of the descriptor's class or helpers,
    and no other module reads its torus map, kernel or translation test.
    Each forbidden name exists in the package, so that no entry passes
    because its name is gone."""
    bound = ("StabDescriptor", "_cut", "_torus_restrict")
    internal = {"torus_map", "kernel", "holds_translations"}
    assert internal.union(bound) <= package_names()
    for module in (btquot.quotient, btquot.presentation):
        for name in bound:
            assert name not in vars(module), (module.__name__, name)
    src = pathlib.Path(btquot.__file__).parent
    for path in sorted(src.glob("*.py")):
        if path.name == "hecke.py":
            continue
        read = {node.attr for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Attribute)}
        assert not read & internal, (path.name, sorted(read & internal))


def test_only_points_reads_a_point():
    """A point of P^1(R/N_D) is stored as `points` alone knows: no other
    module reads its parts or cached ids, the quotient and the
    presentation import no private name of `hecke` or `points`, and
    `hecke` binds the level-0 solver of `points` itself, so that the
    tracer, which rebinds it by identity, counts the solves `points`
    makes."""
    internal = {"parts", "_parts", "_minus_x", "_zero"}
    assert internal <= package_names()
    src = pathlib.Path(btquot.__file__).parent
    for path in sorted(src.glob("*.py")):
        if path.name == "points.py":
            continue
        read = {node.attr for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Attribute)}
        assert not read & internal, (path.name, sorted(read & internal))
    for name in ("quotient", "presentation"):
        tree = ast.parse((src / (name + ".py")).read_text())
        private = [(node.module, alias.name) for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)
                   and node.module in ("hecke", "points")
                   for alias in node.names if alias.name.startswith("_")]
        private += [(node.value.id, node.attr) for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in ("hecke", "points")
                    and node.attr.startswith("_")]
        assert private == [], (name, private)
    assert btquot.hecke.solve_affine is btquot.points.solve_affine


def test_group_modules_do_not_bind_rational_functions():
    """Elements of GL2(F_q[t]) hold `Polynomial` entries; F_q(t) stays in
    the lattice bases of `btree`, so the Hecke layer, the quotient build
    and the presentation never name `RationalFunction`."""
    assert "RationalFunction" in package_names()
    for module in (btquot.hecke, btquot.quotient, btquot.presentation):
        assert "RationalFunction" not in vars(module), module.__name__


def field_storage_reads(sources):
    """(module, attribute) of each read, in the modules `sources` (name ->
    source), of how a `FieldSpec` stores an element: its tables or handles
    outside `algebra`, or its p or s in `hecke` or `points`, which compute
    through the ops the field binds."""
    tables = {"_add", "_mul", "_neg", "_inv", "_handles"}
    reads = set()
    for name, source in sources.items():
        banned = set() if name == "algebra" else set(tables)
        if name in ("hecke", "points"):
            banned |= {"p", "s"}
        reads |= {(name, node.attr) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr in banned}
    return sorted(reads)


def test_the_check_sees_a_field_storage_read():
    reads = field_storage_reads({
        "algebra": "f._mul[a][b]\nf.s\n",
        "points": "f._add[x][y]\nf.p\nf.q\n",
        "hecke": "f.s == 1\nf.add(a, b)\n",
        "quotient": "f.p\nf._handles[0]\n"})
    assert reads == [("hecke", "s"), ("points", "_add"), ("points", "p"),
                     ("quotient", "_handles")]


def test_only_algebra_reads_how_a_field_stores_an_element():
    """F_q is stored as `algebra` alone knows: ints mod p or lookup tables,
    chosen once when the `FieldSpec` is made.  Every other module computes
    with the ops the field binds (`add`, `neg`, `mul`, `inv`, `vadd`,
    `vscale`) and reads its `primitive`, `logs` and `basis`."""
    src = pathlib.Path(btquot.__file__).parent
    sources = {path.stem: path.read_text() for path in src.glob("*.py")}
    assert field_storage_reads(sources) == []
