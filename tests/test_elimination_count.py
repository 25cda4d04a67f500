"""Call counts behind every orbit and stabilizer test: no F_q elimination
decides the torus pairs, which a vertex group and a witness read off the
points of P^1(R/N_D) of their columns (`hecke._Column.torus`); the one
elimination left is `solve_affine` on the homogeneous system of level 0,
once per level-0 stabilizer; and the divisions by N_D that a stabilizer
makes do not grow with the level n."""

import pytest

from btquot import hecke
from btquot.algebra import FieldSpec, Polynomial
from btquot.btree import BallVertex, Matrix2, act
from btquot.quotient import build_quotient


@pytest.fixture
def counts(monkeypatch):
    """Counts of `_eliminate` and `solve_affine` calls, in total and by
    the open calls that make them, innermost last: a vertex group
    (`hecke._Column.stabilizer`) with the level of its vertex, a torus map
    (`hecke._Column.torus`) or a level-0 algebra (`hecke._algebra`); and
    of the vertex groups at level 0."""
    tally = {"eliminate": 0, "solve_affine": 0, "level0 stabilizers": 0}
    inside = []   # the open calls

    def opened(part, fn):
        def wrapper(*args):
            if part == "stabilizer":
                n = args[2].level_n
                tally["level0 stabilizers"] += n == 0
                inside.append((part, n))
            else:
                inside.append((part,))
            try:
                return fn(*args)
            finally:
                inside.pop()
        return wrapper

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            tally[key] += 1
            where = (key,) + tuple(inside)
            tally[where] = tally.get(where, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    for part in ("stabilizer", "torus"):
        monkeypatch.setattr(hecke._Column, part, opened(
            part, getattr(hecke._Column, part)))
    monkeypatch.setattr(hecke, "_algebra", opened("algebra", hecke._algebra))
    for key in ("eliminate", "solve_affine"):
        name = "_" + key if key == "eliminate" else key
        monkeypatch.setattr(hecke, name, counted(key, getattr(hecke, name)))
    return tally


@pytest.mark.parametrize("p,s,lvl,depth", [(2, 1, "t^3", 8),
                                           (3, 1, "t^2", 6),
                                           (3, 2, "t", 3),
                                           (2, 2, "t^2", 5)])
def test_one_elimination_per_system(counts, p, s, lvl, depth):
    """No elimination decides a torus map: every `_eliminate` call is the
    one inside a `solve_affine` call, each level-0 stabilizer makes
    exactly one, through its algebra, and no stabilizer above level 0 and
    no torus map makes any.  (The name dates from one elimination per
    system.)"""
    level = hecke.parse_level(lvl, FieldSpec(p, s))
    build_quotient(level, depth)
    level0 = counts["level0 stabilizers"]
    assert level0 > 0
    assert counts["eliminate"] == counts["solve_affine"] == level0
    assert counts[("solve_affine", ("stabilizer", 0), ("algebra",))] == \
        level0
    assert all(entry[1:] == (("stabilizer", 0), ("algebra",))
               for entry in counts if isinstance(entry, tuple))


def test_stabilizer_counts_over_f9(counts):
    """(q-1)^2 = 64 torus pairs with no elimination at level 1, and one
    `solve_affine` elimination at level 0."""
    F9 = FieldSpec(3, 2)
    level = hecke.parse_level("t", F9)
    assert len(hecke.stabilizer(BallVertex.standard(F9, 1),
                                level).torus_pairs()) == 64
    assert counts["eliminate"] == 0
    hecke.stabilizer(BallVertex.base(F9), level)
    assert counts["eliminate"] == 1 and counts["solve_affine"] == 1


@pytest.mark.parametrize("p,s", [(2, 1), (3, 1), (3, 2)])
@pytest.mark.parametrize("n", [1, 4, 8, 12])
def test_three_divisions_per_stabilizer(monkeypatch, p, s, n):
    """A stabilizer at level n >= 1 reads its torus map off the parts of
    its column's point (`hecke._Column._parts`): one division by N_D
    reduces X = -c, and a second reduces d = a*(X/e)^-1 by M = N_D/e,
    which is N_D when e = gcd(X, N_D) is 1.  Splitting d by g0 = gcd(e, M)
    and M1 = M/g0 makes two more when neither e nor M is 1.  The kernel
    basis, one more division by M1, is built only when read.  So the
    divisions by N_D number the same at level n as at level 1, and there
    are at most four, however large n is.  Checked on v_n and on a vertex
    of level n whose reduction has c != 0.  (The name dates from three
    divisions, one per torus term.)"""
    field = FieldSpec(p, s)
    level = hecke.parse_level("t^3;t+1", field)
    one, zero, t = (Polynomial.one(field), Polynomial.zero(field),
                    Polynomial.t(field))
    x = Matrix2(one, zero, t + one, one) @ Matrix2.translation(t)
    vertices = [(v, act(x, v)) for v in (BallVertex.standard(field, k)
                                         for k in (n, 1))]
    reductions = [hecke.reduce_vertex(v) for pair in vertices for v in pair]
    assert [red.level_n for red in reductions] == [n, n, 1, 1]
    assert reductions[1].g.c and reductions[3].g.c
    calls = []
    divmod_ = hecke.packed_divmod

    def counted(field, a, b):
        calls.append(tuple(b))
        return divmod_(field, a, b)

    monkeypatch.setattr(hecke, "packed_divmod", counted)
    modulus = level.modulus.packed_coeffs
    for v, v_1 in zip(*vertices):
        del calls[:]
        hecke.stabilizer(v_1, level)
        at_1 = calls.count(modulus)
        del calls[:]
        hecke.stabilizer(v, level)
        assert calls[0] == modulus and len(calls) <= 4
        assert calls.count(modulus) == at_1
