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
    for module in (btquot.quotient, btquot.presentation):
        assert "act" not in vars(module), module.__name__
        assert "canonicalize" not in vars(module), module.__name__


def test_only_hecke_reads_and_builds_stabilizer_descriptors():
    """A descriptor's form is known to `hecke` alone: the quotient and the
    presentation reach the neighbor rules through `fixed_labels` and
    `edge_group`, so they bind none of the descriptor's class or helpers,
    and no other module reads its torus map, kernel or translation test."""
    for module in (btquot.quotient, btquot.presentation):
        for name in ("StabDescriptor", "_cut", "_torus_restrict",
                     "_vector_ops"):
            assert name not in vars(module), (module.__name__, name)
    internal = {"torus_map", "kernel", "holds_translations"}
    src = pathlib.Path(btquot.__file__).parent
    for path in sorted(src.glob("*.py")):
        if path.name == "hecke.py":
            continue
        read = {node.attr for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Attribute)}
        assert not read & internal, (path.name, sorted(read & internal))


def test_group_modules_do_not_bind_rational_functions():
    """Elements of GL2(F_q[t]) hold `Polynomial` entries; F_q(t) stays in
    the lattice bases of `btree`, so the Hecke layer, the quotient build
    and the presentation never name `RationalFunction`."""
    for module in (btquot.hecke, btquot.quotient, btquot.presentation):
        assert "RationalFunction" not in vars(module), module.__name__
