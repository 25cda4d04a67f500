"""Call counts of the F_q elimination behind every orbit and stabilizer
test: one per congruence system, plus one for the homogeneous system of
level 0, however many torus pairs the system decides; and of the
divisions by N_D that set a system up."""

import pytest

from btquot import hecke
from btquot.algebra import FieldSpec, Polynomial
from btquot.btree import BallVertex, Matrix2, act
from btquot.quotient import build_quotient


@pytest.fixture
def counts(monkeypatch):
    """Counts of `_eliminate`, `_stab_solution` (in total and at level 0)
    and `solve_affine` calls while the test runs."""
    tally = {"eliminate": 0, "systems": 0, "level0": 0, "solve_affine": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            tally[key] += 1
            if key == "systems" and args[1].level_n == 0:
                tally["level0"] += 1
            return fn(*args, **kwargs)
        return wrapper

    for key, name in (("eliminate", "_eliminate"),
                      ("systems", "_stab_solution"),
                      ("solve_affine", "solve_affine")):
        monkeypatch.setattr(hecke, name, counted(key, getattr(hecke, name)))
    return tally


@pytest.mark.parametrize("p,s,lvl,depth", [(2, 1, "t^3", 8),
                                           (3, 1, "t^2", 6),
                                           (3, 2, "t", 3),
                                           (2, 2, "t^2", 5)])
def test_one_elimination_per_system(counts, p, s, lvl, depth):
    level = hecke.parse_level(lvl, FieldSpec(p, s))
    build_quotient(level, depth)
    assert counts["systems"] > counts["level0"] > 0
    # the homogeneous level-0 system is solved only at level 0
    assert counts["solve_affine"] <= counts["level0"]
    assert counts["eliminate"] == counts["systems"] + counts["solve_affine"]


def test_stabilizer_counts_over_f9(counts):
    """(q-1)^2 = 64 torus pairs, one elimination at level 1 and two at
    level 0."""
    F9 = FieldSpec(3, 2)
    level = hecke.parse_level("t", F9)
    assert len(hecke.stabilizer(BallVertex.standard(F9, 1),
                                level).torus_pairs()) == 64
    assert counts["eliminate"] == 1
    hecke.stabilizer(BallVertex.base(F9), level)
    assert counts["eliminate"] == 3 and counts["solve_affine"] == 1


@pytest.mark.parametrize("p,s", [(2, 1), (3, 1), (3, 2)])
@pytest.mark.parametrize("n", [1, 4, 8, 12])
def test_three_divisions_per_stabilizer(monkeypatch, p, s, n):
    """A stabilizer at level n >= 1 divides by N_D twice: for the first
    column and for the torus terms, which share one division since
    W21 * a = -W22 * c when the source and target reductions agree.  Each
    later column t^i * P mod N_D is the previous one shifted, less a
    multiple of the monic N_D, so the count does not grow with n.
    Checked on v_n and on a vertex of level n whose reduction has c != 0.
    (The name dates from three divisions, one per torus term.)"""
    field = FieldSpec(p, s)
    level = hecke.parse_level("t^3;t+1", field)
    one, zero, t = (Polynomial.one(field), Polynomial.zero(field),
                    Polynomial.t(field))
    x = Matrix2(one, zero, t + one, one) @ Matrix2.translation(t)
    v_n = BallVertex.standard(field, n)
    vertices = (v_n, act(x, v_n))
    reductions = [hecke.reduce_vertex(v) for v in vertices]
    assert [red.level_n for red in reductions] == [n, n]
    assert reductions[1].g.c
    calls = []
    divmod_ = hecke.packed_divmod

    def counted(field, a, b):
        calls.append(b)
        return divmod_(field, a, b)

    monkeypatch.setattr(hecke, "packed_divmod", counted)
    for v in vertices:
        del calls[:]
        hecke.stabilizer(v, level)
        assert calls == [level.modulus.packed_coeffs] * 2
