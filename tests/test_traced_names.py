"""The benchmark tracer rebinds package functions and methods by name; each
name it lists must still exist, or the traced benchmark run crashes."""

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


def test_group_modules_do_not_bind_rational_functions():
    """Elements of GL2(F_q[t]) hold `Polynomial` entries; F_q(t) stays in
    the lattice bases of `btree`, so the Hecke layer, the quotient build
    and the presentation never name `RationalFunction`."""
    for module in (btquot.hecke, btquot.quotient, btquot.presentation):
        assert "RationalFunction" not in vars(module), module.__name__
