"""Call counts behind every orbit and stabilizer test: no F_q elimination
decides the torus pairs, which are read off gcd(c_dst*c_src, N_D); the
one elimination left is `solve_affine` on the homogeneous system of
level 0, once per level-0 stabilizer column; and the divisions that set a
system up do not grow with the level n."""

import pytest

from btquot import hecke
from btquot.algebra import FieldSpec, Polynomial
from btquot.btree import BallVertex, Matrix2, act
from btquot.quotient import build_quotient


@pytest.fixture
def counts(monkeypatch):
    """Counts of `_eliminate` and `solve_affine` calls, in total and by
    the part of a congruence system (`hecke._Congruence`) that makes them:
    its constructor, its level slice `torus` or its level-0 `algebra`, for
    a stabilizer column (the pair (col, col)) or a witness, the algebra
    with the level of the system's last slice; and of the columns, the
    witness systems and the columns whose algebra was read at level 0."""
    tally = {"eliminate": 0, "solve_affine": 0, "columns": 0,
             "witnesses": 0}
    level0_columns = tally["level0 columns"] = set()
    kinds = {}    # id of a system -> [column or witness, level of its slice]
    inside = []   # the open part of a system

    def opened(part, fn):
        def wrapper(system, *args):
            if part == "constructor":
                kind = "column" if args[1] is args[2] else "witness"
                tally["columns" if kind == "column" else "witnesses"] += 1
                kinds[id(system)] = [kind, None]
            elif part == "torus":
                kinds[id(system)][1] = args[0]
            kind, n = kinds[id(system)]
            if part == "algebra" and kind == "column" and n == 0:
                level0_columns.add(id(system))
            inside.append((kind, part, n) if part == "algebra"
                          else (kind, part))
            try:
                return fn(system, *args)
            finally:
                inside.pop()
        return wrapper

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            tally[key] += 1
            if inside:
                where = (key, inside[-1])
                tally[where] = tally.get(where, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    system = hecke._Congruence
    for part, name in (("constructor", "__init__"), ("torus", "torus"),
                       ("algebra", "algebra")):
        monkeypatch.setattr(system, name, opened(part, getattr(system, name)))
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
    one inside a `solve_affine` call, each level-0 column makes exactly
    one however many vertices share it, and no constructor, level slice,
    or algebra read above level 0 makes any.  (The name dates from one
    elimination per system.)"""
    level = hecke.parse_level(lvl, FieldSpec(p, s))
    build_quotient(level, depth)
    assert counts["columns"] + counts["witnesses"] > \
        len(counts["level0 columns"]) > 0
    assert counts["eliminate"] == counts["solve_affine"]
    assert counts.get(("solve_affine", ("column", "algebra", 0))) == \
        len(counts["level0 columns"])
    assert all(entry[1][1:] == ("algebra", 0) for entry in counts
               if isinstance(entry, tuple))


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
    """A stabilizer at level n >= 1 divides by N_D for the residues of
    u = c*c and of the torus term a*c, which the other torus term shares
    since W21 * a = -W22 * c when the source and target reductions agree.
    Its other divisions split a*c by e = gcd(u, N_D) and by M = N_D/e; e
    or M is N_D when gcd(u, N_D) is N_D or 1.  The kernel basis, one more
    division by M, is built only when read.  So the divisions by N_D
    number the same at level n as at level 1, and there are at most four,
    however large n is.  Checked on v_n and on a vertex of level n whose
    reduction has c != 0.  (The name dates from three divisions, one per
    torus term.)"""
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
        assert calls[:2] == [modulus] * 2 and len(calls) <= 4
        assert calls.count(modulus) == at_1
