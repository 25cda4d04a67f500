"""The build solves each stabilizer congruence once per first column (a, c)
of the reductions (`hecke._Congruence` of the pair (col, col)), and a
solver's descriptor keeps the modulus M of its unipotent space until its
basis is read: each class's descriptor equals a fresh `hecke.stabilizer`,
the columns are counted, no kernel basis is built by the build or by
certification, and the system of a column passed as one object equals the
system of two equal but distinct column tuples."""

import itertools

import pytest

from btquot import hecke
from btquot.algebra import FieldSpec, Polynomial
from btquot.hecke import Level, parse_level, stabilizer
from btquot.quotient import (build_quotient, certify_cusps, class_key,
                             frame_orbits)


def levels(field, degree):
    """Every level of degree <= `degree` over `field`, D = 0 included."""
    primes = [p for d in range(1, degree + 1)
              for low in itertools.product(range(field.q), repeat=d)
              for p in [Polynomial(field, low + (1,))] if p.is_irreducible()]
    out = []

    def extend(start, left, factors):
        out.append(Level(field, factors))
        for i in range(start, len(primes)):
            for m in range(1, left // primes[i].degree + 1):
                extend(i + 1, left - m * primes[i].degree,
                       factors + [(primes[i], m)])

    extend(0, degree, [])
    return out


ORACLE_LEVELS = ([lv for (p, s), degree in (((2, 1), 3), ((3, 1), 3),
                                           ((2, 2), 2), ((5, 1), 2))
                  for lv in levels(FieldSpec(p, s), degree)]
                 + [parse_level("t^2", FieldSpec(3, 2))])

# the census levels of the benchmark, with their depths and column solves
CENSUS_COLUMNS = [(2, "t", 10, 2), (2, "t;t+1", 12, 5), (2, "t^3", 12, 8),
                  (2, "t^2+t+1", 12, 3), (3, "t^3", 12, 10),
                  (3, "t^2", 10, 4)]


def check_shortcut(Q):
    """On every column the build solved: the system of the pair (col, col),
    which reads the parts of va off those of vc = -va, equals the system
    of col and an equal but distinct tuple, which divides both, in every
    field and in the torus map at each level up to the build's depth, and
    their level-0 algebras are equal."""
    for col in Q.columns:
        same, full = (hecke._Congruence(Q.level, col, other)
                      for other in (col, (col[0], col[1])))
        assert [getattr(same, k) for k in same.__slots__] == \
            [getattr(full, k) for k in full.__slots__], col
        assert [same.torus(n) for n in range(Q.depth + 2)] == \
            [full.torus(n) for n in range(Q.depth + 2)], col
        assert same.algebra() == full.algebra(), col


@pytest.fixture
def solves(monkeypatch):
    """Counts of the column solves, the systems of a pair (col, col), and
    of the kernel bases built."""
    out = {"columns": 0, "kernel bases": 0}
    init, basis = hecke._Congruence.__init__, hecke._kernel_basis

    def column(self, level, dst, src):
        out["columns"] += dst is src
        init(self, level, dst, src)

    def kernel_basis(field, m, k, n):
        out["kernel bases"] += 1
        return basis(field, m, k, n)

    monkeypatch.setattr(hecke._Congruence, "__init__", column)
    monkeypatch.setattr(hecke, "_kernel_basis", kernel_basis)
    return out


@pytest.mark.parametrize("level", ORACLE_LEVELS,
                         ids=["q%d-%s" % (lv.field.q, lv)
                              for lv in ORACLE_LEVELS])
def test_class_descriptors_equal_fresh_stabilizers(level):
    """Each class's descriptor, read off the build's shared column, equals
    `stabilizer` of its representative, in its order, unipotent dimension,
    class key and neighbor orbits, all read from M, and in its kernel
    basis, built from M."""
    Q = build_quotient(level, 2 * level.degree + 4)
    assert len(Q.columns) <= len(Q.located)
    for c in Q.classes:
        stab, fresh = c.stab, stabilizer(c.representative, level)
        summary = (stab.order, stab.unipotent_dim(), class_key(stab),
                   frame_orbits(stab))
        assert summary == (fresh.order, fresh.unipotent_dim(),
                           class_key(fresh), frame_orbits(fresh)), c.id
        assert (stab.conjugator, stab.torus, stab.kernel) == \
            (fresh.conjugator, fresh.torus, fresh.kernel), c.id
        col = c.reduction.g.a.packed_coeffs, c.reduction.g.c.packed_coeffs
        assert stab.torus[3] == hecke._kernel_basis(
            level.field, hecke._Congruence(level, col, col).m,
            c.level_n, c.level_n), c.id
    check_shortcut(Q)


@pytest.mark.parametrize("q,lvl,depth,columns", CENSUS_COLUMNS)
def test_census_column_solves(solves, q, lvl, depth, columns):
    """One solve per distinct column, none repeated by a second build from
    the same `Level`, and no kernel basis built by the build or by
    certification."""
    level = parse_level(lvl, FieldSpec(q))
    for _ in range(2):
        solves["columns"] = 0
        Q = build_quotient(level, depth)
        certify_cusps(Q)
        assert solves["columns"] == len(Q.columns) == columns
        assert len(Q.located) > columns
    assert solves["kernel bases"] == 0
    check_shortcut(Q)
